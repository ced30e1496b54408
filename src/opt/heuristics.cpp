#include "src/opt/heuristics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "src/common/prng.hpp"
#include "src/core/cost_model.hpp"
#include "src/opt/forest_scorer.hpp"

namespace fsw {
namespace {

/// A parent vector that always respects the application's precedences: a
/// topological chain. Used to seed searches on constrained instances.
std::vector<NodeId> respectingSeed(const Application& app) {
  const std::size_t n = app.size();
  std::vector<NodeId> parent(n, kNoNode);
  if (app.hasPrecedences()) {
    const auto order = app.topologicalOrder();
    for (std::size_t k = 1; k < n; ++k) parent[order[k]] = order[k - 1];
  }
  return parent;
}

std::vector<NodeId> parentsOf(const ExecutionGraph& g) {
  std::vector<NodeId> parent(g.size(), kNoNode);
  for (NodeId i = 0; i < g.size(); ++i) {
    const auto& preds = g.predecessors(i);
    if (!preds.empty()) parent[i] = preds.front();
  }
  return parent;
}

/// The surrogate of an acyclic parent function; +infinity when it breaks a
/// precedence constraint.
double scoreParents(ForestScorer& scorer, const std::vector<NodeId>& parent,
                    CommModel m, Objective obj) {
  if (!scorer.respectsPrecedences(parent)) {
    return std::numeric_limits<double>::infinity();
  }
  return obj == Objective::Period ? scorer.periodScore(parent, m)
                                  : scorer.latencyScore(parent);
}

}  // namespace

double surrogateScore(const Application& app, const ExecutionGraph& g,
                      CommModel m, Objective obj) {
  if (!g.isForest()) {
    const CostModel costs(app, g);
    return obj == Objective::Period ? costs.periodLowerBound(m)
                                    : costs.latencyLowerBound();
  }
  ForestScorer scorer(app);
  const std::vector<NodeId> parent = parentsOf(g);
  return obj == Objective::Period ? scorer.periodScore(parent, m)
                                  : scorer.latencyScore(parent);
}

ExecutionGraph greedyForest(const Application& app, CommModel m,
                            Objective obj) {
  const std::size_t n = app.size();
  // Insertion order: filters by ascending c/(1-sigma), then expanders by
  // ascending cost (cheap useful filters first, so later services can hang
  // off already-filtered data).
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    const auto& sa = app.service(a);
    const auto& sb = app.service(b);
    const bool fa = sa.selectivity < 1.0;
    const bool fb = sb.selectivity < 1.0;
    if (fa != fb) return fa;
    if (fa) {
      return sa.cost / (1.0 - sa.selectivity) <
             sb.cost / (1.0 - sb.selectivity);
    }
    return sa.cost < sb.cost;
  });

  ForestScorer scorer(app);
  std::vector<NodeId> parent(n, kNoNode);
  std::vector<bool> placed(n, false);
  for (const NodeId v : order) {
    placed[v] = true;
    // Score only the sub-application of placed services: build a parent
    // vector where unplaced services are isolated roots (their score
    // contribution is placement-independent noise shared by all choices).
    double bestScore = std::numeric_limits<double>::infinity();
    NodeId bestParent = kNoNode;
    for (NodeId cand = 0; cand <= n; ++cand) {
      const NodeId p = (cand == n) ? kNoNode : cand;
      if (p == v || (p != kNoNode && !placed[p])) continue;
      parent[v] = p;
      if (!scorer.acyclic(parent)) continue;
      const double s = scoreParents(scorer, parent, m, obj);
      if (s < bestScore) {
        bestScore = s;
        bestParent = p;
      }
    }
    parent[v] = bestParent;
  }
  if (!scorer.respectsPrecedences(parent)) {
    // Constrained instances may defeat the insertion order; fall back to
    // the always-respecting topological chain.
    return ExecutionGraph::fromParents(respectingSeed(app));
  }
  return ExecutionGraph::fromParents(parent);
}

ExecutionGraph hillClimbForest(const Application& app, CommModel m,
                               Objective obj, ExecutionGraph start,
                               std::size_t maxRounds) {
  const std::size_t n = app.size();
  ForestScorer scorer(app);
  std::vector<NodeId> parent = parentsOf(start);
  double best = scoreParents(scorer, parent, m, obj);
  for (std::size_t round = 0; round < maxRounds; ++round) {
    bool improved = false;
    for (NodeId v = 0; v < n; ++v) {
      const NodeId old = parent[v];
      for (NodeId cand = 0; cand <= n; ++cand) {
        const NodeId p = (cand == n) ? kNoNode : cand;
        if (p == v || p == old) continue;
        parent[v] = p;
        if (!scorer.acyclic(parent)) continue;
        const double s = scoreParents(scorer, parent, m, obj);
        if (s < best - 1e-12) {
          best = s;
          improved = true;
          goto nextNode;  // keep the move
        }
      }
      parent[v] = old;
    nextNode:;
    }
    if (!improved) break;
  }
  return ExecutionGraph::fromParents(parent);
}

ExecutionGraph annealForest(const Application& app, CommModel m, Objective obj,
                            const HeuristicOptions& opt) {
  const std::size_t n = app.size();
  if (n == 0) return ExecutionGraph(0);
  const std::vector<NodeId> seedParent = respectingSeed(app);
  ForestScorer seedScorer(app);
  const double seedScore = scoreParents(seedScorer, seedParent, m, obj);

  struct Chain {
    std::vector<NodeId> parent;
    double score = 0.0;
  };

  // One annealing chain: a pure function of its restart index (PRNG derived
  // from seed + restart), so chains fan out over the pool and reproduce.
  // Each chain owns its scorer: the scratch is never shared across workers.
  auto runChain = [&](std::size_t restart) -> Chain {
    ForestScorer scorer(app);
    Prng rng(opt.seed + restart);
    std::vector<NodeId> parent = seedParent;
    double score = seedScore;
    Chain best{parent, score};
    double temp = opt.initialTemperature * std::max(score, 1.0);
    const double cooling =
        std::pow(1e-4, 1.0 / static_cast<double>(opt.iterations));

    for (std::size_t it = 0; it < opt.iterations; ++it, temp *= cooling) {
      const NodeId v =
          static_cast<NodeId>(rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
      const auto cand = rng.uniformInt(0, static_cast<std::int64_t>(n));
      const NodeId p = (cand == static_cast<std::int64_t>(n))
                           ? kNoNode
                           : static_cast<NodeId>(cand);
      if (p == v) continue;
      const NodeId old = parent[v];
      if (p == old) continue;
      parent[v] = p;
      if (!scorer.acyclic(parent)) {
        parent[v] = old;
        continue;
      }
      const double s = scoreParents(scorer, parent, m, obj);
      const double delta = s - score;
      if (delta <= 0.0 ||
          (temp > 1e-12 && rng.uniform() < std::exp(-delta / temp))) {
        score = s;
        if (score < best.score) {
          best.score = score;
          best.parent = parent;
        }
      } else {
        parent[v] = old;
      }
    }
    return best;
  };

  const std::size_t restarts = std::max<std::size_t>(1, opt.restarts);
  const auto chains = parallelMap<Chain>(opt.pool, restarts, runChain);
  // Deterministic reduce: lowest score, ties to the lowest restart index.
  const Chain* best = &chains.front();
  for (const Chain& c : chains) {
    if (c.score < best->score) best = &c;
  }
  return ExecutionGraph::fromParents(best->parent);
}

}  // namespace fsw
