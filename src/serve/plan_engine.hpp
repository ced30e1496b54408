// PlanEngine: the long-lived batched serving core of the plan search.
//
// PR 1 built a parallel, pluggable engine but re-wired it per call: every
// optimizePlan constructed its own registry view, dedup/score cache and
// pool hookup, so repeated traffic on similar applications redid dedup and
// surrogate scoring from scratch. The PlanEngine owns that wiring for the
// lifetime of a serving process:
//
//   * one ThreadPool (owned, or an injected external pool) shared by every
//     request — candidate generation, scoring and orchestration of
//     concurrent requests interleave on the same workers;
//   * one CandidateRegistry (per-request override supported);
//   * one thread-safe, LRU-bounded CandidateCache keyed by
//     (application, model, objective, graph) signatures, shared across
//     requests and batches, and persistable across runs via
//     saveCache/loadCache (src/io/serialize.*);
//   * one ResultCache (requestKey -> winning OptimizedPlan): identical
//     repeated requests are served wholesale with zero new orchestrations,
//     in-process or across runs (saveResults/loadResults persist it as a
//     versioned, size-budgeted artifact);
//   * optimizeBatch: fans a batch of PlanRequests out over the pool,
//     serving members with identical canonical signatures from the first
//     occurrence's solve (cross-request dedup), and threads the incumbent
//     value of each request's best-ranked candidate into the remaining
//     orchestrations as an upper bound so dominated difference-constraint
//     solves abort early (Bounded-Dijkstra-style pruning).
//
// The asynchronous request lifecycle (queueing, admission control,
// coalescing, streaming results) lives one layer up in PlanServer
// (src/serve/plan_server.hpp); this engine stays a blocking batch core.
//
// Determinism contract, unchanged from PR 1 and extended to batches: the
// winner of every request is bit-identical across serial, pooled and
// batched execution, and independent of the shared cache's state (the
// cache memoizes pure functions of its keys).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/core/application.hpp"
#include "src/core/model.hpp"
#include "src/opt/candidate.hpp"
#include "src/opt/optimizer.hpp"
#include "src/serve/plan_solver.hpp"
#include "src/serve/result_cache.hpp"

namespace fsw {

class BoundBoard;
class RemoteResultStore;

/// Engine-wide configuration (per-request knobs live in PlanRequest —
/// since PR 4 the request struct itself lives with the optimizer facade in
/// src/opt/optimizer.hpp, the canonical form every serving path shares).
struct EngineConfig {
  /// Workers in the engine-owned pool; 0 defers to ThreadPool::shared()
  /// (no extra threads), 1 makes the engine fully serial by default.
  /// Ignored when `pool` is set.
  std::size_t threads = 0;
  ThreadPool* pool = nullptr;  ///< external pool override (not owned)
  /// Candidate portfolio; nullptr = CandidateRegistry::builtin(). An
  /// engine-level override is NOT part of requestKey (keys only cover
  /// per-request state), so requests that rely on it bypass the
  /// full-result cache — its key would misattribute their winner to the
  /// built-in portfolio. To serve a custom portfolio with full-result
  /// caching, pass it per request via OptimizerOptions::registry with a
  /// stable name.
  const CandidateRegistry* registry = nullptr;
  /// Capacity of the shared cross-request score cache (0 = unbounded).
  std::size_t cacheCapacity = 1 << 16;
  /// Full-result memoization: when enabled the engine keeps a
  /// (requestKey -> winning OptimizedPlan) store and serves an identical
  /// repeated request wholesale — zero new orchestrations,
  /// EngineStats::resultCacheHits = 1. Sound because a solve is a pure
  /// function of its request key. Requests carrying an *unnamed* custom
  /// portfolio bypass this store: their pointer-identity key is only
  /// stable for the duration of the call, so caching it could serve a
  /// dead registry's winner to whatever next reuses the address.
  bool cacheFullResults = true;
  /// Retained winners in the full-result store (0 = unbounded).
  std::size_t resultCacheCapacity = 1024;
  /// Cross-engine incumbent sharing (not owned; nullptr = off). When set —
  /// a fleet wires one board through every host's engine — a completed
  /// solve publishes (requestKey -> winner value) and a later
  /// solve of the same key, on any engine sharing the board, tightens
  /// every orchestration's abort threshold (rank 0 included) with the
  /// posted value. Winner-preserving by construction (see
  /// src/serve/bound_board.hpp): only the bound-abort counters can grow.
  /// The board also powers near-key warm starts: on an exact-key miss the
  /// engine asks for the most recent winner sharing the request's
  /// STRUCTURAL prefix (same graph/precedences/portfolio, drifted
  /// costs/selectivities), re-evaluates that winner's orders under the
  /// request's own parameters, and uses the certified achievable value as
  /// an incumbent — a true bound, never a guess, and the neighbor's plan
  /// itself is never served. Only result-cacheable requests participate —
  /// the board's key discipline is the result cache's.
  BoundBoard* boundBoard = nullptr;
  /// Fleet-shared second-level result store (not owned; nullptr = off) —
  /// a RemoteResultStore speaking to a ResultStoreHost, possibly on
  /// another machine (src/serve/result_store.hpp). Local result-cache
  /// misses are consulted in one pipelined multi-GET per batch: with
  /// `cacheFullResults` set a stored winner is served wholesale — a cold
  /// engine repeats another host's solve with zero new orchestrations —
  /// while with it unset only the fleet's incumbent bound is fetched (no
  /// winner payloads travel just to be discarded). Either way a consult
  /// imports the store's bound for the key (its own winner value, posted
  /// by whichever host solved it first), tightening abort thresholds
  /// exactly like a shared BoundBoard — winner-preserving for the same
  /// reason. Completed solves publish their winner back. Transport
  /// failures degrade to misses/no-ops: the store is an accelerator,
  /// never a dependency. Only result-cacheable requests participate.
  /// On an exact-key miss with no local near neighbor, the engine also
  /// asks the store for a near (structural-prefix) neighbor to warm-start
  /// from — same validate-before-use contract as the board's near table.
  RemoteResultStore* resultStore = nullptr;
};

/// The long-lived serving core. Thread-safe: any number of threads may call
/// optimize/optimizeBatch on one engine concurrently. Implements
/// PlanSolver, so a PlanServer can serve it or any wrapping spine through
/// the same lifecycle.
class PlanEngine : public PlanSolver {
 public:
  explicit PlanEngine(EngineConfig config = {});

  PlanEngine(const PlanEngine&) = delete;
  PlanEngine& operator=(const PlanEngine&) = delete;

  /// Solves one request by routing it through optimizeBatch on a
  /// one-element span — single-request and batch serving share one code
  /// path, so dedup, result-cache, incumbent and stats accounting can
  /// never drift between the two entry points.
  [[nodiscard]] OptimizedPlan optimize(const PlanRequest& request);
  [[nodiscard]] OptimizedPlan optimize(const Application& app, CommModel m,
                                       Objective obj,
                                       const OptimizerOptions& opt = {});

  /// Solves a batch: requests with identical canonical signatures (same
  /// application, model, objective and value-affecting options) are solved
  /// once; the copies report EngineStats::crossRequestHits = 1 and
  /// otherwise empty stats (the work is accounted at the representative,
  /// so summing stats over the batch counts it once). Distinct requests
  /// fan out over the pool and share the score cache. The result
  /// vector is index-aligned with `requests`, and every winner is
  /// bit-identical to a per-request serial optimizePlan.
  [[nodiscard]] std::vector<OptimizedPlan> optimizeBatch(
      std::span<const PlanRequest> requests) override;

  /// Cumulative shared-cache counters since construction (or loadCache).
  [[nodiscard]] CandidateCache::Stats cacheStats() const;
  [[nodiscard]] std::size_t cacheSize() const;

  /// Persist / restore the shared score cache (cross-run memoization).
  /// loadCache inserts on top of the current contents, oldest entries
  /// first, so the LRU order survives a round trip. The file carries a
  /// magic/version header; loadCache throws std::runtime_error on a
  /// mismatch.
  void saveCache(std::ostream& os) const;
  void loadCache(std::istream& is);

  /// Counters and size of the full-result store.
  [[nodiscard]] ResultCache::Stats resultCacheStats() const;
  [[nodiscard]] std::size_t resultCacheSize() const;

  /// Persist / restore the full-result store (signature -> OptimizedPlan)
  /// as a versioned on-disk artifact: magic/version header (loadResults
  /// throws std::runtime_error on a mismatch) and an on-disk entry budget
  /// (`budget` = max winners written, most recently used kept; 0 = all).
  /// A warm-started engine serves a repeated request from the dump with
  /// zero new orchestrations.
  void saveResults(std::ostream& os, std::size_t budget = 0) const;
  void loadResults(std::istream& is);

  /// The canonical dedup/cache key of a request: application, model and
  /// objective signatures plus a fingerprint of the value-affecting
  /// options. Portable across processes for *named* portfolios: a named
  /// options.registry is fingerprinted by its portfolio name and ordered
  /// source-name list (portfolioFingerprint), never by pointer, so two
  /// processes that register the same portfolio compute identical keys —
  /// the key space of ROADMAP's distributed fan-out. A portfolio whose
  /// fingerprint matches the built-in's keys identically to a
  /// default-registry request; an *unnamed* registry falls back to
  /// pointer identity (process-local), so anonymous portfolios can never
  /// collide in a shared cache.
  [[nodiscard]] static std::string requestKey(const PlanRequest& request);

  /// The engine-aware dedup/coalescing key: requestKey, plus a marker on
  /// requests solved by this engine's EngineConfig::registry override —
  /// their static key reads "builtin" while a different portfolio solves
  /// them, so they must never collapse onto (or coalesce with) a true
  /// builtin-portfolio request. optimizeBatch and PlanServer key by this;
  /// persisted result-cache keys never carry the marker (such requests
  /// are not result-cacheable).
  [[nodiscard]] std::string dedupKey(
      const PlanRequest& request) const override;

  /// Per-source outcome tally across this engine's lifetime — the signal
  /// behind early tightening (see solveOne): the portfolio member whose
  /// source has the highest observed win rate runs first, so the incumbent
  /// is strong before the expensive tail sources start.
  struct SourceTally {
    std::size_t solves = 0;  ///< orchestrated candidates from this source
    std::size_t wins = 0;    ///< solves whose candidate won the reduce
    std::size_t aborts = 0;  ///< solves fully pruned by an incumbent bound
  };

  /// Snapshot of the per-source tallies (source name -> tally), engine
  /// state rather than per-request wire stats: the ranking signal is
  /// cumulative and local by design. Purely observational — execution
  /// order never changes the canonical index-ordered reduce, so winners
  /// (and per-request stats) stay bit-identical whatever the history.
  [[nodiscard]] std::vector<std::pair<std::string, SourceTally>> sourceStats()
      const;

  /// The process-wide default engine behind the optimizePlan facade.
  static PlanEngine& shared();

 private:
  /// `externalBound` is a cross-engine incumbent for this request (an
  /// exact-key board/store bound, or a validated near-key warm bound): it
  /// bounds every orchestration, the lead rank included. Exact-key bounds
  /// are winner-preserving because they are this key's own winner value
  /// (see bound_board.hpp); validated near bounds are achievable values
  /// under this request's own parameters. Belt-and-braces for both: if the
  /// reduce ends above a finite externalBound (a bound that beat every
  /// candidate — impossible for a sound bound), solveOne re-runs itself
  /// unbounded, so even a corrupted bound can only cost time, never
  /// change a winner. Infinity = none.
  [[nodiscard]] OptimizedPlan solveOne(const Application& app, CommModel m,
                                       Objective obj,
                                       const OptimizerOptions& opt,
                                       double externalBound);
  /// A certified warm-start incumbent for `r` from `neighbor` (a prior
  /// winner sharing r's structural prefix): re-evaluates the neighbor's
  /// port orders under r's own application. Returns infinity when the
  /// re-evaluation is infeasible or the shape does not apply — "no
  /// information", never a guess.
  [[nodiscard]] static double validatedWarmBound(const PlanRequest& r,
                                                 const OptimizedPlan& neighbor);
  [[nodiscard]] ThreadPool* poolFor(const OptimizerOptions& opt) const;
  /// Whether the request's key soundly identifies its winner beyond this
  /// call (see the definition for the two unsound shapes it excludes).
  [[nodiscard]] bool resultCacheable(const PlanRequest& request) const;

  EngineConfig config_;
  std::unique_ptr<ThreadPool> ownedPool_;
  ThreadPool* pool_ = nullptr;  ///< resolved engine pool (may be null: serial)
  CandidateCache cache_;        ///< shared cross-request score cache
  ResultCache results_;         ///< full-result store (requestKey -> winner)
  mutable std::mutex sourceMu_;  ///< guards sourceTallies_
  std::unordered_map<std::string, SourceTally> sourceTallies_;
};

/// Batch adapter on the process-wide engine, mirroring optimizePlan.
[[nodiscard]] std::vector<OptimizedPlan> optimizePlanBatch(
    std::span<const PlanRequest> requests);

}  // namespace fsw
