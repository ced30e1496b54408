// Exhaustive search over forest execution graphs.
//
// Prop 4: for MinPeriod without precedence constraints (any model), some
// optimal execution graph is a forest, so enumerating parent functions
// (parent[i] in {none} union F \ {i}, acyclic) is an *exact* MinPeriod
// algorithm — exponential, usable up to n ~ 7. For MinLatency the optimum
// may be a genuine DAG (the fork-join of Prop 13), so the same enumeration
// is a strong baseline rather than exact; MinLatency stays NP-hard even on
// forests (Prop 17).
#pragma once

#include <cstddef>
#include <limits>

#include "src/core/application.hpp"
#include "src/core/execution_graph.hpp"
#include "src/core/model.hpp"

namespace fsw {

/// Largest instance the exact searches enumerate: n^n parent functions,
/// 16.8M at n = 8. The exact-forest candidate source caps a request's own
/// `exactForestMaxN` at this, so no client can ask for more.
inline constexpr std::size_t kExactForestMaxN = 8;

struct ForestSearchResult {
  double value = std::numeric_limits<double>::infinity();
  ExecutionGraph graph{0};
  std::size_t explored = 0;  ///< admissible parent functions evaluated
};

/// Exact MinPeriod over forests with the cheap exact evaluations:
/// OVERLAP uses the (tight, Prop 1) max-Cexec bound. For the one-port models
/// the same bound is a relaxation; pass `orchestrated = true` to evaluate
/// candidates with the full one-port orchestrator instead (much slower).
/// Every forest that respects the precedences is visited, and the first
/// strictly best one wins. Throws std::invalid_argument when n > maxN.
[[nodiscard]] ForestSearchResult exactForestMinPeriod(
    const Application& app, CommModel m, bool orchestrated = false,
    std::size_t maxN = kExactForestMaxN);

/// Exact-on-forests MinLatency (Algorithm 1 evaluates each candidate).
[[nodiscard]] ForestSearchResult exactForestMinLatency(
    const Application& app, std::size_t maxN = kExactForestMaxN);

}  // namespace fsw
