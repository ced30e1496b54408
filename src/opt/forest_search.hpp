// Exhaustive search over forest execution graphs.
//
// Prop 4: for MinPeriod without precedence constraints (any model), some
// optimal execution graph is a forest, so enumerating parent functions
// (parent[i] in {none} union F \ {i}, acyclic) is an *exact* MinPeriod
// algorithm — exponential, usable up to n ~ 8. For MinLatency the optimum
// may be a genuine DAG (the fork-join of Prop 13), so the same enumeration
// is a strong baseline rather than exact; MinLatency stays NP-hard even on
// forests (Prop 17).
//
// The enumeration is a depth-first walk that assigns parents from node n-1
// down to node 0 and skips every subtree whose choices already close a
// cycle. It visits only the (n+1)^(n-1) acyclic parent functions (1,296 at
// n = 5, 4.8M at n = 8), not all n^n, in odometer order: node n-1's choice
// is the outermost digit and node 0's the innermost, each ranging over the
// other services in ascending order, then root. Each one is checked and
// scored from 64-bit ancestor masks.
#pragma once

#include <cstddef>
#include <limits>

#include "src/core/application.hpp"
#include "src/core/execution_graph.hpp"
#include "src/core/model.hpp"

namespace fsw {

/// Largest instance the exact searches enumerate: (n+1)^(n-1) forests,
/// 4.8M at n = 8. The exact-forest candidate source caps a request's own
/// `exactForestMaxN` at this, so no client can ask for more.
inline constexpr std::size_t kExactForestMaxN = 8;
// Each forest is scored from 64-bit ancestor masks.
static_assert(kExactForestMaxN < 64);

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
/// strictly best one wins. Throws std::invalid_argument when n > maxN or
/// n > 63, whatever maxN says.
[[nodiscard]] ForestSearchResult exactForestMinPeriod(
    const Application& app, CommModel m, bool orchestrated = false,
    std::size_t maxN = kExactForestMaxN);

/// Exact-on-forests MinLatency (Algorithm 1 evaluates each candidate), in
/// the same visiting order and with the same limits.
[[nodiscard]] ForestSearchResult exactForestMinLatency(
    const Application& app, std::size_t maxN = kExactForestMaxN);

}  // namespace fsw
