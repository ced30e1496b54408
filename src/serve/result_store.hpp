// The shared remote result store: the full-result cache behind its own
// socket service, so engines on different machines warm each other.
//
// PR 3 gave each PlanEngine a local (requestKey -> winning OptimizedPlan)
// store. This pair puts that store behind the
// FSWF frame protocol (src/serve/plan_service.hpp) as a fleet-level
// second-level cache:
//
//   * ResultStoreHost — a loopback TCP listener owning one ResultCache and
//     one BoundBoard. GET returns the stored winner for a key (or a miss),
//     PUT stores a winner AND publishes its value to the board, and every
//     GET reply carries the board's incumbent bound for the key — so even
//     after the winner itself is evicted, a later same-key solve anywhere
//     in the fleet tightens its abort thresholds with the fleet's best
//     known value (winner-preserving, see src/serve/bound_board.hpp).
//   * RemoteResultStore — the engine-side client. PlanEngine consults it
//     on a local result-cache miss and populates it on solve completion
//     (EngineConfig::resultStore), so a cold engine behind host B serves a
//     repeat first solved behind host A with zero new orchestrations.
//
// Failure discipline: the store is an accelerator, never a dependency. A
// transport failure mid-op degrades the client — get() becomes a miss,
// put() a no-op, counted in Stats::failures — and solves proceed locally;
// reconnect() re-establishes the session. Soundness is the result cache's:
// a solve is a pure function of its canonical request key and every
// serving path returns bit-identical winners, so a stored winner (and its
// value as a bound) is THE answer for that key, whichever host computed it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/io/serialize.hpp"
#include "src/serve/bound_board.hpp"
#include "src/serve/frame_io.hpp"
#include "src/serve/plan_service.hpp"
#include "src/serve/result_cache.hpp"

namespace fsw {

struct ResultStoreConfig {
  /// Listening port on 127.0.0.1; 0 picks an ephemeral port (port()).
  std::uint16_t port = 0;
  /// Retained winners (0 = unbounded). Keys dominate an entry's footprint,
  /// so a fleet-level store should be bounded like any long-lived cache.
  std::size_t capacity = 1 << 14;
  /// Retained incumbent bounds (0 = unbounded). Bounds are tiny, so the
  /// board outliving the winners it came from is the point: an evicted
  /// winner keeps pruning.
  std::size_t boundCapacity = 1 << 16;
  /// The epoll reactor's knobs; see frameio::TransportConfig.
  frameio::TransportConfig transport{};
};

/// The serving side: the shared frameio::SocketService transport (an
/// epoll reactor) delivers each frame to handleFrame — decode ->
/// apply (GET/PUT/STATS) -> reply. Same frame failure discipline as
/// PlanServiceHost: malformed payloads get an error frame and the
/// connection lives; malformed frames drop it.
class ResultStoreHost : public frameio::SocketService {
 public:
  struct Stats {
    std::size_t connections = 0;  ///< connections accepted
    std::size_t gets = 0;         ///< GET frames answered
    std::size_t hits = 0;         ///< GETs answered with a stored winner
    std::size_t boundHits = 0;    ///< GETs answered with a finite bound
    std::size_t nearGets = 0;     ///< near (prefix) GET frames answered
    std::size_t nearHits = 0;     ///< near GETs that returned a neighbor
    std::size_t puts = 0;         ///< PUT frames applied
    std::size_t errors = 0;       ///< error frames sent + dropped streams
    /// Frame traffic across every connection, headers included (the STATS
    /// verb reports these counters to remote askers).
    std::size_t framesIn = 0;
    std::size_t bytesIn = 0;
    std::size_t framesOut = 0;
    std::size_t bytesOut = 0;
    /// Transport counters (see frameio::TransportTotals); STATS reports
    /// them too, so fleet operators see who is consuming a store.
    std::size_t refusedOverLimit = 0;
    std::size_t idleClosed = 0;
    std::size_t peakWriteQueueBytes = 0;
    std::size_t transportThreads = 0;
  };

  explicit ResultStoreHost(ResultStoreConfig config = {});
  ~ResultStoreHost();

  [[nodiscard]] Stats stats() const;
  /// Direct access to the stored state (tests, persistence tooling — the
  /// store can be warm-started via readResultCache into results()).
  [[nodiscard]] ResultCache& results() noexcept { return results_; }
  [[nodiscard]] BoundBoard& bounds() noexcept { return bounds_; }

  /// Stops accepting, drops live connections, joins every thread.
  /// Idempotent; the destructor calls it.
  void stop() { stopService(); }

 private:
  void handleFrame(Responder& out, frameio::Frame frame) override;

  ResultStoreConfig config_;
  ResultCache results_;
  BoundBoard bounds_;

  mutable std::mutex mu_;  ///< guards stats_
  Stats stats_{};
};

/// The engine-side client: blocking GET/PUT/STATS RPCs over one socket,
/// serialized by an internal mutex (safe to share across an engine's
/// concurrent batches). Construction connects eagerly and throws on
/// failure — a misconfigured endpoint should surface at wiring time; every
/// *later* transport failure degrades the client instead (miss / no-op)
/// so the store can die without failing a single solve.
class RemoteResultStore {
 public:
  struct Stats {
    std::size_t gets = 0;      ///< get() calls issued
    std::size_t hits = 0;      ///< gets that returned a stored winner
    std::size_t nearGets = 0;  ///< getNear() calls issued
    std::size_t nearHits = 0;  ///< getNears that returned a neighbor plan
    std::size_t puts = 0;      ///< put() calls delivered
    std::size_t failures = 0;  ///< ops degraded by transport failures
    /// Cumulative wire bytes this client moved (frame headers included),
    /// every verb combined — the per-peer ledger the engine's E12 bench
    /// reads.
    std::size_t bytesSent = 0;
    std::size_t bytesReceived = 0;
  };

  /// The result of one GET: the stored winner (nullptr = miss) and the
  /// fleet's incumbent bound for the key (+inf = none), plus what that
  /// lookup cost on the wire (its GET frame out, its reply frame in,
  /// headers included) so callers can attribute store traffic per key.
  struct Lookup {
    std::shared_ptr<const OptimizedPlan> plan;
    double bound = std::numeric_limits<double>::infinity();
    std::size_t bytesSent = 0;
    std::size_t bytesReceived = 0;
  };

  /// Per-key wire cost of one putMany entry (frame headers included).
  struct OpBytes {
    std::size_t sent = 0;
    std::size_t received = 0;
  };

  /// `ioTimeoutMs` bounds every socket op (connect, send, recv): a store
  /// that stops responding without closing (SIGSTOP, partition) degrades
  /// the session after the timeout instead of hanging a solve — the
  /// "never a dependency" contract needs a clock, not just error codes.
  /// <= 0 disables the bound (blocking sockets).
  RemoteResultStore(const std::string& host, std::uint16_t port,
                    int ioTimeoutMs = 5000);
  ~RemoteResultStore();

  RemoteResultStore(const RemoteResultStore&) = delete;
  RemoteResultStore& operator=(const RemoteResultStore&) = delete;

  /// The stored winner and bound for `key`. Degrades to a miss (and marks
  /// the client disconnected) on transport failure — never throws, never
  /// hangs a solve on a dead store.
  [[nodiscard]] Lookup get(const std::string& key);

  /// The most recent stored winner whose key shares the structural
  /// `prefix` (structuralPrefixOfKey): the warm-start hint for a re-solve
  /// of a mutated application. The reply never carries a bound — a
  /// neighbor's value is not a bound for the asker's key; the caller must
  /// re-evaluate the plan under its own parameters (see
  /// src/serve/bound_board.hpp). Degrades to a miss like get(); an error
  /// frame from the host also degrades to a miss (without dropping the
  /// session).
  [[nodiscard]] Lookup getNear(const std::string& prefix);

  /// The stored winners and bounds for `keys`, answered index-aligned in
  /// ONE pipelined pass over the socket (every GET frame is written, then
  /// every reply read) — a cold batch pays ~1 round trip, not
  /// keys.size() of them. `wantPlans = false` asks for bounds only: the
  /// store skips the winner payloads, for engines that re-solve by
  /// policy. Same degradation contract as get().
  [[nodiscard]] std::vector<Lookup> getMany(
      const std::vector<std::string>& keys, bool wantPlans = true);

  /// Publishes `plan` as the winner of `key` (the store also posts its
  /// value to the fleet bound board). No-op when disconnected.
  void put(const std::string& key, const OptimizedPlan& plan);

  /// Publishes a batch of winners (index-aligned keys/plans; plans are
  /// borrowed for the call) in one pipelined pass, mirroring getMany — a
  /// cold batch's publishes pay ~1 round trip, not keys.size() of them.
  /// Same degradation contract as put(). `perKey`, when non-null, is
  /// resized to keys.size() and filled with each key's wire cost (zeros
  /// for keys degraded away).
  void putMany(const std::vector<std::string>& keys,
               const std::vector<const OptimizedPlan*>& plans,
               std::vector<OpBytes>* perKey = nullptr);

  /// The store's own counters. Throws RemotePlanError when the store
  /// cannot be reached — unlike get/put this is an observability call, so
  /// failing loudly is the useful behavior.
  [[nodiscard]] StoreStatsWire remoteStats();

  /// Attempts to re-establish a degraded session; true when connected
  /// after the call. Never throws.
  bool reconnect();

  [[nodiscard]] bool connected() const;
  [[nodiscard]] Stats stats() const;

  /// Closes the socket; subsequent ops degrade until reconnect().
  void close();

 private:
  /// One framed RPC under the lock. Returns false (and degrades the
  /// session) on any transport failure; `reply` holds the payload of a
  /// Result frame, `error` the payload of an Error frame (errorFrame set).
  bool roundTrip(FrameType type, const std::string& payload,
                 std::string& reply, std::string& error, bool& errorFrame);

  std::string host_;
  std::uint16_t port_ = 0;
  int ioTimeoutMs_ = 5000;

  mutable std::mutex mu_;
  int fd_ = -1;
  Stats stats_{};
};

}  // namespace fsw
