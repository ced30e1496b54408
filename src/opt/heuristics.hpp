// Heuristic plan construction for MinPeriod / MinLatency (both NP-hard for
// all models, Theorems 2 and 4): greedy parent insertion, hill climbing and
// simulated annealing over parent-function (forest) encodings.
//
// Candidates are scored with the cheap exact surrogates — the max-Cexec
// period bound (tight for OVERLAP, a relaxation for one-port) and Algorithm
// 1 for latency on forests, computed on parent vectors by ForestScorer
// (src/opt/forest_scorer.hpp) — and the final winner is handed to the full
// orchestrator by the Optimizer facade.
#pragma once

#include <cstdint>

#include "src/common/thread_pool.hpp"
#include "src/core/application.hpp"
#include "src/core/execution_graph.hpp"
#include "src/core/model.hpp"

namespace fsw {

struct HeuristicOptions {
  std::size_t restarts = 4;
  std::size_t iterations = 4000;    ///< annealing steps per restart
  double initialTemperature = 1.0;  ///< relative to the initial score
  /// Restart r anneals with a PRNG derived from `seed` + r: restarts are
  /// independent chains that fan out over `pool` (nullptr = serial) and
  /// reduce deterministically (lowest score, then lowest restart index).
  std::uint64_t seed = 1;
  ThreadPool* pool = nullptr;
};

/// Greedy insertion: services are added one by one (filters by ascending
/// c/(1-sigma), then expanders), each picking the parent (or root) that
/// minimizes the surrogate objective.
[[nodiscard]] ExecutionGraph greedyForest(const Application& app, CommModel m,
                                          Objective obj);

/// Hill climbing over single-parent reassignments from a given start.
[[nodiscard]] ExecutionGraph hillClimbForest(const Application& app,
                                             CommModel m, Objective obj,
                                             ExecutionGraph start,
                                             std::size_t maxRounds = 50);

/// Simulated annealing over parent functions. Returns the empty graph when
/// the application has no services.
[[nodiscard]] ExecutionGraph annealForest(const Application& app, CommModel m,
                                          Objective obj,
                                          const HeuristicOptions& opt = {});

/// The surrogate score used by the heuristics (exposed for tests/benches).
[[nodiscard]] double surrogateScore(const Application& app,
                                    const ExecutionGraph& g, CommModel m,
                                    Objective obj);

}  // namespace fsw
