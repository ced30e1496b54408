// Facade for the full MinPeriod / MinLatency problems, built on the
// parallel plan-search engine:
//
//   1. every applicable CandidateSource in the registry proposes execution
//      graphs (fanned out over the thread pool);
//   2. proposals are deduplicated and surrogate-scored once per canonical
//      graph signature through a CandidateCache;
//   3. the top-K survivors are orchestrated under the target model (again
//      over the pool, with the order search itself pooled underneath);
//   4. a deterministic reduce — lowest value, then strategy name, then
//      proposal order — picks the winner, so pooled and serial runs return
//      identical plans.
#pragma once

#include <cstddef>
#include <string>

#include "src/common/thread_pool.hpp"
#include "src/core/application.hpp"
#include "src/core/model.hpp"
#include "src/oplist/plan.hpp"
#include "src/opt/candidate.hpp"
#include "src/opt/heuristics.hpp"
#include "src/sched/orchestrator.hpp"

namespace fsw {

struct OptimizerOptions {
  /// Exhaustive forest search cutoff, capped at kExactForestMaxN.
  std::size_t exactForestMaxN = 6;
  std::size_t orchestrateTop = 3;   ///< candidates handed to the orchestrator
  /// Degree of parallelism: 1 forces a fully serial run (the benchmarks'
  /// --serial mode); any other value uses `pool` when set and otherwise the
  /// process-wide ThreadPool::shared(). Results are identical either way.
  std::size_t threads = 0;
  ThreadPool* pool = nullptr;  ///< explicit pool override (not owned)
  /// Candidate portfolio; nullptr = CandidateRegistry::builtin().
  const CandidateRegistry* registry = nullptr;
  HeuristicOptions heuristics{};
  OrchestratorOptions orchestrator{};
};

/// Observability counters for one engine request.
struct EngineStats {
  std::size_t sourcesRun = 0;     ///< applicable sources invoked
  std::size_t generated = 0;      ///< graphs proposed (pre-filter)
  std::size_t unique = 0;         ///< distinct signatures after dedup
  std::size_t duplicates = 0;     ///< proposals dropped by the dedup cache
  std::size_t scoreCacheHits = 0; ///< surrogate evaluations avoided
                                  ///< (= duplicates + sharedHits)
  std::size_t orchestrated = 0;   ///< candidates fully orchestrated
  /// Scores served from the PlanEngine's long-lived cross-request cache —
  /// work amortized against earlier requests (or a loaded cache dump).
  std::size_t sharedHits = 0;
  /// LRU entries this request's insertions evicted at the capacity bound.
  std::size_t evictions = 0;
  /// 1 when this batch member was served wholesale from an identical
  /// earlier member of the same optimizePlanBatch call.
  std::size_t crossRequestHits = 0;
  /// 1 when this request was served wholesale from the engine's full-result
  /// cache (an earlier identical request, possibly loaded from disk): the
  /// stored winner is returned with zero new orchestrations, so every other
  /// counter in this struct is 0.
  std::size_t resultCacheHits = 0;
  /// Hot-loop candidate evaluations (order-search solves and OUTORDER
  /// repair iterations) performed for this request.
  std::size_t evalProbes = 0;
  /// Buffer-growth events observed by the reusable per-worker evaluation
  /// scratch (constraint storage, solve vectors, arena blocks). In steady
  /// state this stays near the warm-up cost — allocsPerProbe() ~ 0.
  std::size_t scratchHeapAllocs = 0;
  /// Max bytes live at once in any evaluation arena of this request
  /// (merged by max, not sum, when hosts are combined).
  std::size_t arenaBytesHighWater = 0;
  /// Wire bytes this request sent to / received from the fleet-shared
  /// remote result store (FSWF frame headers included): the GET that
  /// probed this key plus the PUT that published its winner. Store
  /// traffic is attributed per key to the batch member that asked — the
  /// representative carries the bytes, duplicates carry none — so summing
  /// over a batch counts every wire byte exactly once.
  std::size_t storeBytesSent = 0;
  std::size_t storeBytesReceived = 0;

  /// Dominated solves aborted by an incumbent bound, split by phase (their
  /// sum is the total). Seed-phase: order searches pruned during
  /// enumeration — the plain INORDER/latency searches plus the OUTORDER
  /// seed's derived bound, including whole candidates dominated below the
  /// analytic floor. Repair-phase: OUTORDER repair bisections cut short
  /// because their certified floor crossed the final-value incumbent.
  std::size_t seedBoundAborts = 0;
  std::size_t repairBoundAborts = 0;

  /// Scratch allocation discipline: growth events per hot-loop probe.
  [[nodiscard]] double allocsPerProbe() const {
    return evalProbes == 0 ? 0.0
                           : static_cast<double>(scratchHeapAllocs) /
                                 static_cast<double>(evalProbes);
  }
};

struct OptimizedPlan {
  Plan plan;
  double value = 0.0;          ///< achieved period or latency
  double surrogate = 0.0;      ///< the candidate's surrogate score
  std::string strategy;        ///< which candidate source won
  EngineStats stats{};
};

/// One unit of serving traffic: solve (app, model, objective) under the
/// given per-request knobs. Requests are values — a serving front end can
/// queue, route, serialize (src/io/serialize.hpp) and replay them freely.
/// This is the canonical request form shared by every serving path:
/// single-shot optimizePlan, PlanEngine batches, PlanServer queues,
/// PlanRouter placement and the wire protocol.
struct PlanRequest {
  Application app;
  CommModel model = CommModel::Overlap;
  Objective objective = Objective::Period;
  OptimizerOptions options{};
};

/// Throws std::invalid_argument for a request no solver can serve: one
/// whose application has no services, or one where some plan cost could be
/// NaN: its costs and selectivities can overflow a product to inf and a
/// zero cost or selectivity can then multiply it. Every serving entry point
/// calls it before any work starts.
void checkRequest(const PlanRequest& request);

/// Solves MinPeriod or MinLatency for (app, m) heuristically (exactly for
/// small n via forest enumeration, per Prop 4 for the period).
///
/// Since PR 2 this is a thin adapter over the process-wide PlanEngine
/// (src/serve/plan_engine.hpp): the call is served as a one-request batch
/// against the engine's shared pool and cross-request score cache. Results
/// are bit-identical to a fresh-cache run — the cache memoizes pure
/// functions only — and `threads = 1` still forces a fully serial solve.
/// Batched traffic should call PlanEngine::optimizeBatch directly.
[[nodiscard]] OptimizedPlan optimizePlan(const Application& app, CommModel m,
                                         Objective obj,
                                         const OptimizerOptions& opt = {});

}  // namespace fsw
