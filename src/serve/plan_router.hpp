// PlanRouter: client-side multi-host routing over the FSWF frame protocol
// — the layer that turns N independent PlanServiceHosts into one serving
// fleet.
//
// PR 4's transport stopped at one host: a RemotePlanClient speaks to one
// PlanServiceHost. The router holds one connection per host and
// rendezvous-ranks every request's canonical key (PlanEngine::requestKey,
// via src/serve/rendezvous.hpp) across the live host set:
//
//   * identical requests always land on the same host, so that host's
//     dedup, score cache and full-result cache keep working — the fleet's
//     cache locality is a pure function of the key space;
//   * when a host's connection drops mid-request, the request retries on
//     the next-ranked host for its key (solves are pure and idempotent —
//     a retry can change which machine answers, never the answer), the
//     host is marked down, and later requests rank around it;
//   * a down host is re-admitted when a reconnect succeeds: reconnect()
//     probes all down hosts, and when the whole fleet is down a request
//     probes its top-ranked host as a last resort (so the first request
//     after an outage heals the router);
//   * adding/removing hosts remaps only ~1/N of the key space (the
//     rendezvous property) — a fleet resize mostly preserves cache locality.
//
// Surface: the same submit -> std::future<OptimizedPlan> as PlanServer and
// RemotePlanClient — the front end of the serving stack is host-count
// agnostic. Remote *solve* errors (an 'E' frame: unknown portfolio,
// malformed payload) are deterministic answers and are never retried;
// only transport failures fail over. The bit-identity contract holds
// through every routing path, mid-stream host failure included, because
// every host returns the serial winner for a key.
//
// One connection (and one in-flight request) per host: fleet concurrency
// comes from the host fan-out; per-host concurrency comes from running
// several routers (the host's reactor handles connections concurrently).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/plan_service.hpp"

namespace fsw {

struct RouterHost {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct RouterConfig {
  /// The fleet, in slot order (slot index = rendezvous slot, so the list
  /// order is part of the routing function — keep it identical across
  /// routers that should agree).
  std::vector<RouterHost> hosts;
  /// Per-socket I/O bound (connect, send, recv) for every per-host client,
  /// in milliseconds; <= 0 disables. The router's whole value is failover,
  /// and failover needs a clock: a black-holed host (SIGSTOP, partition
  /// without RST) must surface as a transport failure so the request
  /// retries on the next-ranked host instead of hanging its future. Solves
  /// are idempotent, so a timeout fired while the host was merely slow
  /// costs a redundant solve elsewhere, never a wrong answer.
  int ioTimeoutMs = 30000;
};

/// Thread-safe: any number of threads may submit concurrently; each host
/// slot is drained by its own worker thread.
class PlanRouter {
 public:
  struct HostStats {
    std::size_t served = 0;             ///< futures fulfilled by this host
    std::size_t transportFailures = 0;  ///< drops observed on this host
    /// Wire bytes moved to/from this host across every connection this
    /// slot has held (frame headers included): the live client's counters
    /// plus those of every retired connection, folded in when it dropped.
    std::size_t bytesSent = 0;
    std::size_t bytesReceived = 0;
    bool up = true;                     ///< currently admitted for routing
  };

  struct Stats {
    std::size_t submitted = 0;   ///< submit() calls accepted
    std::size_t served = 0;      ///< futures fulfilled with a plan
    std::size_t failed = 0;      ///< futures failed (remote error/no hosts)
    std::size_t failovers = 0;   ///< requests re-routed after a drop
    std::size_t reconnects = 0;  ///< down hosts re-admitted
    std::vector<HostStats> perHost;
  };

  /// Connects lazily: construction validates the host list (throws
  /// std::invalid_argument when empty) but opens no sockets — each slot
  /// connects on its first routed request, so a fleet can be declared
  /// before every host is up.
  explicit PlanRouter(RouterConfig config);
  ~PlanRouter();

  PlanRouter(const PlanRouter&) = delete;
  PlanRouter& operator=(const PlanRouter&) = delete;

  /// Routes one request by its canonical key and returns its future: the
  /// remote winner (bit-identical to a serial optimizePlan) or a
  /// RemotePlanError. Throws std::invalid_argument synchronously for a
  /// non-portable request (unnamed portfolio), like RemotePlanClient.
  [[nodiscard]] std::future<OptimizedPlan> submit(const PlanRequest& request,
                                                  int priority = 0);

  /// Blocking convenience: submit(request, priority).get().
  [[nodiscard]] OptimizedPlan optimize(const PlanRequest& request,
                                       int priority = 0);

  [[nodiscard]] std::size_t hostCount() const noexcept;
  /// The top-ranked slot for this request's key (down-marks ignored — the
  /// static routing function, identical across routers).
  [[nodiscard]] std::size_t hostOf(const PlanRequest& request) const;
  [[nodiscard]] bool hostUp(std::size_t slot) const;

  /// Probes every down host and re-admits those that accept a connection.
  /// Returns how many were re-admitted. Never throws.
  std::size_t reconnect();

  [[nodiscard]] Stats stats() const;

  /// Fails queued work, closes every connection and joins the workers.
  /// Idempotent; the destructor calls it.
  void close();

 private:
  struct Job {
    PlanRequest request;
    int priority = 0;
    std::vector<std::size_t> rank;  ///< rendezvous order for the key
    std::size_t attempt = 0;        ///< position in `rank` being tried
    std::promise<OptimizedPlan> promise;
  };

  struct Slot {
    RouterHost endpoint;
    std::unique_ptr<RemotePlanClient> client;  ///< null while down
    bool down = false;
    std::deque<Job> queue;
    HostStats stats;
    std::thread worker;
  };

  void workerLoop(std::size_t slot);
  /// Adds a retiring connection's byte counters into the slot's HostStats
  /// (called with mu_ held, just before the client is dropped) so per-host
  /// traffic survives reconnect churn.
  void foldClientStatsLocked(Slot& s);
  /// Serves one job on `slot` (connecting first if needed); on a
  /// transport failure marks the slot down and fails the job over.
  void process(std::size_t slot, Job job);
  /// Queues `job` at rank[attempt]'s slot, preferring live slots (a down
  /// slot is skipped unless every remaining ranked slot is down, in which
  /// case the next ranked slot is probed anyway). Fails the promise when
  /// the rank list is exhausted or the router is closing.
  void dispatch(Job job);

  int ioTimeoutMs_ = 30000;  ///< RouterConfig::ioTimeoutMs, fixed at birth

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Slot>> slots_;
  bool stopping_ = false;
  Stats stats_{};
};

}  // namespace fsw
