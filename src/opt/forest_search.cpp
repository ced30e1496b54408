#include "src/opt/forest_search.hpp"

#include <stdexcept>
#include <vector>

#include "src/core/service.hpp"
#include "src/opt/forest_scorer.hpp"
#include "src/sched/orchestrator.hpp"

namespace fsw {
namespace {

/// Calls visit(parent) for every acyclic parent function, depth first in
/// the order of an odometer whose digit i is node i's parent (the other
/// services in ascending order, then "root") and whose digit 0 turns
/// fastest: node n-1 is chosen outermost, node 0 innermost. Nodes
/// [firstAssigned, n) hold their parents. A choice that closes a cycle
/// among them skips its whole subtree, so only the (n+1)^(n-1) forests are
/// reached, and in the odometer's order.
template <typename Visit>
void forEachForest(std::vector<NodeId>& parent, NodeId firstAssigned,
                   Visit& visit) {
  if (firstAssigned == 0) {
    visit(parent);
    return;
  }
  const NodeId i = firstAssigned - 1;
  for (NodeId p = 0; p < parent.size(); ++p) {
    // Walk up from p through assigned nodes: reaching i closes a cycle,
    // while a root or an unassigned node (index below i) ends the walk.
    NodeId v = p;
    while (v != kNoNode && v > i) v = parent[v];
    if (v == i) continue;
    parent[i] = p;
    forEachForest(parent, i, visit);
  }
  parent[i] = kNoNode;
  forEachForest(parent, i, visit);
}

/// Keeps the first admissible parent function with the strictly smallest
/// score(parent), where score runs after the scorer's maskAncestors, and
/// builds the graph of that winner only.
template <typename Score>
ForestSearchResult searchForests(const Application& app, std::size_t maxN,
                                 Score&& score) {
  const std::size_t n = app.size();
  if (n > maxN || n > kMaxMaskedServices) {
    throw std::invalid_argument("exact forest search: instance too large");
  }
  ForestScorer scorer(app);
  ForestSearchResult best;
  std::vector<NodeId> parent(n, kNoNode);
  std::vector<NodeId> bestParent;
  bool found = false;
  auto visit = [&](const std::vector<NodeId>& forest) {
    if (!scorer.maskAncestors(forest)) return;
    ++best.explored;
    const double v = score(scorer, forest);
    if (v < best.value) {
      best.value = v;
      bestParent = forest;
      found = true;
    }
  };
  forEachForest(parent, n, visit);
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
        return s.maskedPeriodScore(parent, m);
      });
}

ForestSearchResult exactForestMinLatency(const Application& app,
                                         std::size_t maxN) {
  return searchForests(
      app, maxN, [](ForestScorer& s, const std::vector<NodeId>& parent) {
        return s.maskedLatencyScore(parent);
      });
}

}  // namespace fsw
