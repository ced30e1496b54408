#include "src/opt/forest_search.hpp"

#include <stdexcept>
#include <vector>

#include "src/core/service.hpp"
#include "src/opt/forest_scorer.hpp"
#include "src/sched/orchestrator.hpp"

namespace fsw {
namespace {

/// Calls visit(parent) for every parent function the scorer finds
/// admissible, in odometer order: digit i ranges over 0..n-1, where digits
/// 0..n-2 name the n-1 other services (self skipped) and digit n-1 means
/// "root"; digit 0 turns fastest.
template <typename Visit>
void forEachForest(ForestScorer& scorer, std::size_t maxN, Visit&& visit) {
  const std::size_t n = scorer.size();
  if (n > maxN) {
    throw std::invalid_argument("exact forest search: instance too large");
  }
  std::vector<NodeId> parent(n, kNoNode);
  std::vector<std::size_t> digit(n, 0);
  const auto toParent = [&](NodeId i, std::size_t d) -> NodeId {
    if (d == n - 1) return kNoNode;
    const NodeId p = static_cast<NodeId>(d);
    return p >= i ? p + 1 : p;
  };

  bool carry = false;
  while (!carry) {
    for (NodeId i = 0; i < n; ++i) parent[i] = toParent(i, digit[i]);
    if (scorer.admissible(parent)) visit(parent);
    carry = true;
    for (NodeId i = 0; i < n && carry; ++i) {
      if (digit[i] < n - 1) {
        ++digit[i];
        carry = false;
      } else {
        digit[i] = 0;
      }
    }
  }
}

/// Keeps the first parent function with the strictly smallest score(parent)
/// and builds the graph of that winner only.
template <typename Score>
ForestSearchResult searchForests(const Application& app, std::size_t maxN,
                                 Score&& score) {
  ForestScorer scorer(app);
  ForestSearchResult best;
  std::vector<NodeId> bestParent;
  bool found = false;
  forEachForest(scorer, maxN, [&](const std::vector<NodeId>& parent) {
    ++best.explored;
    const double v = score(scorer, parent);
    if (v < best.value) {
      best.value = v;
      bestParent = parent;
      found = true;
    }
  });
  if (found) best.graph = ExecutionGraph::fromParents(bestParent);
  return best;
}

}  // namespace

ForestSearchResult exactForestMinPeriod(const Application& app, CommModel m,
                                        bool orchestrated, std::size_t maxN) {
  if (orchestrated) {
    return searchForests(
        app, maxN, [&](ForestScorer&, const std::vector<NodeId>& parent) {
          return orchestrate(app, ExecutionGraph::fromParents(parent), m,
                             Objective::Period)
              .result.value;
        });
  }
  return searchForests(
      app, maxN, [m](ForestScorer& s, const std::vector<NodeId>& parent) {
        return s.periodScore(parent, m);
      });
}

ForestSearchResult exactForestMinLatency(const Application& app,
                                         std::size_t maxN) {
  return searchForests(
      app, maxN, [](ForestScorer& s, const std::vector<NodeId>& parent) {
        return s.latencyScore(parent);
      });
}

}  // namespace fsw
