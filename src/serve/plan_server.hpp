// PlanServer: the asynchronous request-lifecycle layer over PlanEngine.
//
// The engine is a blocking batch call: callers assemble a batch, wait for
// optimizeBatch, and receive every result at once. A serving process sees
// the opposite shape — requests arrive one at a time from many clients,
// and the *server* must decide admission, ordering and batching. The
// PlanServer owns that lifecycle:
//
//   submit -> admit -> coalesce -> batch -> solve -> stream
//
//   * submit(request, priority) returns a std::future<OptimizedPlan>
//     immediately; drain threads assemble admitted work into batches of at
//     most maxBatch and hand them to PlanEngine::optimizeBatch;
//   * admission is bounded: at most maxQueueDepth queued solves and
//     maxInFlight solving ones. Over the queue bound, Block waits for
//     space while Reject fails the future fast (RejectedSubmit);
//   * identical requests coalesce: a submit whose requestKey matches a
//     queued *or in-flight* solve attaches to it instead of queueing new
//     work — it consumes no queue space, and one solve fulfills every
//     attached future;
//   * priorities order the queue (higher drains first, FIFO within a
//     priority; a coalescing submit can raise a queued solve's priority);
//   * onResult streams every completed solve to a callback as its batch
//     finishes, before the solve's futures are fulfilled;
//   * drain() blocks until everything admitted so far has completed;
//     shutdown() additionally rejects subsequent submits and stops the
//     drain threads once the queue empties — admitted work is never
//     dropped. The destructor shuts down gracefully.
//
// Determinism contract, inherited from the engine: every fulfilled future
// holds a winner bit-identical to a serial optimizePlan of the same
// request — the server reorders *when* pure solves run, never their
// inputs.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/serve/plan_engine.hpp"

namespace fsw {

/// A submit refused at admission: the Reject policy saw a full queue, or
/// the server had been shut down. Delivered through the returned future.
class RejectedSubmit : public std::runtime_error {
 public:
  explicit RejectedSubmit(const std::string& what)
      : std::runtime_error(what) {}
};

/// What submit does when the queue is at maxQueueDepth.
enum class AdmissionPolicy {
  Block,   ///< wait for queue space (a shutdown rejects blocked submits)
  Reject,  ///< fail fast: the future throws RejectedSubmit
};

struct ServerConfig {
  /// Serving backend (not owned): any PlanSolver — a PlanEngine or a
  /// custom spine wrapping one. Takes precedence over `engine`.
  PlanSolver* solver = nullptr;
  /// Serving engine (not owned); consulted when `solver` is null. If both
  /// are null the server owns a private engine built from `engineConfig`.
  PlanEngine* engine = nullptr;
  EngineConfig engineConfig{};
  AdmissionPolicy admission = AdmissionPolicy::Block;
  /// Queued-solve bound enforced at admission (0 = unbounded). Coalesced
  /// submits never count against it — they queue no new work.
  std::size_t maxQueueDepth = 256;
  /// Solves concurrently handed to the engine, across all drain threads
  /// (0 = drainThreads * maxBatch, the natural bound).
  std::size_t maxInFlight = 0;
  /// Solves drained into one optimizeBatch call (floored to 1).
  std::size_t maxBatch = 8;
  /// Concurrent drain loops (floored to 1). More than one lets a fresh
  /// batch start while an earlier one is still solving.
  std::size_t drainThreads = 1;
  /// Streaming result path: invoked once per completed solve, from a
  /// drain thread, in batch order, before the solve's futures are
  /// fulfilled. Must be thread-safe when drainThreads > 1. If the
  /// callback throws, that solve's futures are failed with its exception
  /// (the drain thread itself never unwinds).
  std::function<void(const PlanRequest&, const OptimizedPlan&)> onResult;
};

/// The asynchronous serving front end. Thread-safe: any number of threads
/// may submit concurrently; drain() and shutdown() may race with submits.
class PlanServer {
 public:
  struct Stats {
    std::size_t submitted = 0;  ///< submit() calls observed
    std::size_t admitted = 0;   ///< submits that queued a new solve
    std::size_t coalesced = 0;  ///< submits attached to an existing solve
    std::size_t rejected = 0;   ///< submits refused (policy or shutdown)
    std::size_t batches = 0;    ///< optimizeBatch calls issued
    std::size_t completed = 0;  ///< solves finished (one per admitted)
  };

  explicit PlanServer(ServerConfig config = {});
  ~PlanServer();  ///< graceful: drains admitted work, then stops

  PlanServer(const PlanServer&) = delete;
  PlanServer& operator=(const PlanServer&) = delete;

  /// Queues (or coalesces) one request and returns its future. Higher
  /// `priority` drains earlier; ties drain in submit order. On rejection
  /// the future throws RejectedSubmit from get().
  [[nodiscard]] std::future<OptimizedPlan> submit(PlanRequest request,
                                                 int priority = 0);

  /// Blocks until every solve admitted *before this call* has completed,
  /// streamed and fulfilled its futures. A snapshot, not quiescence:
  /// submits admitted while draining do not extend the wait, so periodic
  /// flush points return even under continuous traffic. Submits stay
  /// open.
  void drain();

  /// Graceful shutdown: rejects subsequent (and blocked) submits, lets the
  /// drain threads finish everything already admitted, and joins them.
  /// Idempotent; concurrent callers block until the shutdown completes.
  void shutdown();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t queueDepth() const;
  [[nodiscard]] std::size_t inFlight() const;
  /// The serving backend (one solve spine across single, batched and
  /// remote paths).
  [[nodiscard]] PlanSolver& solver() noexcept { return *solver_; }
  /// The backing PlanEngine, or nullptr when a non-engine solver serves
  /// this server (e.g. a wrapping spine — reach its engine directly).
  [[nodiscard]] PlanEngine* engine() noexcept { return engine_; }

 private:
  /// One admitted unit of work; every coalesced submit parks a promise in
  /// `waiters`.
  struct Solve {
    PlanRequest request;
    int priority = 0;
    std::uint64_t seq = 0;
    std::vector<std::promise<OptimizedPlan>> waiters;
  };

  void drainLoop();
  [[nodiscard]] std::size_t inFlightLimit() const noexcept;

  ServerConfig config_;
  std::unique_ptr<PlanEngine> ownedEngine_;
  PlanEngine* engine_ = nullptr;  ///< backing engine when the solver is one
  PlanSolver* solver_ = nullptr;  ///< the resolved serving backend

  mutable std::mutex mu_;
  std::condition_variable cvWork_;   ///< drainers: work available / stopping
  std::condition_variable cvSpace_;  ///< blocked submitters: space freed
  std::condition_variable cvIdle_;   ///< drain(): a solve completed
  /// Drain order: (-priority, seq) -> key, so begin() is the highest
  /// priority, earliest submit.
  std::map<std::pair<int, std::uint64_t>, std::string> order_;
  /// Seqs of admitted-but-incomplete solves (queued or in flight);
  /// drain() waits until no member precedes its admission cutoff.
  std::set<std::uint64_t> liveSeqs_;
  std::unordered_map<std::string, Solve> queued_;  ///< admitted, by key
  /// Solving now; late-coalescing submits park their promises here.
  std::unordered_map<std::string, std::vector<std::promise<OptimizedPlan>>>
      inFlight_;
  std::uint64_t nextSeq_ = 0;
  std::size_t inFlightCount_ = 0;
  bool stopping_ = false;
  Stats stats_{};

  std::mutex joinMu_;  ///< serializes the join phase of shutdown()
  std::vector<std::thread> drainers_;
};

}  // namespace fsw
