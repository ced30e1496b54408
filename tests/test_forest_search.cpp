#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "src/core/cost_model.hpp"
#include "src/opt/chain.hpp"
#include "src/opt/forest_scorer.hpp"
#include "src/opt/forest_search.hpp"
#include "src/sched/latency.hpp"
#include "src/workload/generator.hpp"
#include "src/workload/paper_instances.hpp"

namespace fsw {
namespace {

std::uint64_t bitsOf(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The graph-based reference: the parent function as an ExecutionGraph
/// that respects the application, or nothing (cycle or broken precedence).
std::optional<ExecutionGraph> referenceGraph(
    const Application& app, const std::vector<NodeId>& parent) {
  try {
    ExecutionGraph g = ExecutionGraph::fromParents(parent);
    if (g.respects(app)) return g;
  } catch (const std::invalid_argument&) {
  }
  return std::nullopt;
}

/// A random parent function: each node is a root with probability 1/3,
/// else it points at a uniformly drawn other node (cycles included).
std::vector<NodeId> randomParents(std::size_t n, Prng& rng) {
  std::vector<NodeId> parent(n, kNoNode);
  for (NodeId i = 0; i < n; ++i) {
    if (n == 1 || rng.uniformInt(0, 2) == 0) continue;
    auto p = static_cast<NodeId>(
        rng.uniformInt(0, static_cast<std::int64_t>(n) - 2));
    parent[i] = p >= i ? p + 1 : p;
  }
  return parent;
}

std::vector<NodeId> parentsOf(const ExecutionGraph& g) {
  std::vector<NodeId> parent(g.size(), kNoNode);
  for (NodeId i = 0; i < g.size(); ++i) {
    if (!g.predecessors(i).empty()) parent[i] = g.predecessors(i).front();
  }
  return parent;
}

/// B.1 plus a few precedences between its filters and expanders.
Application constrainedB1() {
  Application app = counterexampleB1().app;
  app.addPrecedence(0, 5);
  app.addPrecedence(1, 7);
  app.addPrecedence(5, 9);
  return app;
}

/// Scorer vs CostModel::periodLowerBound and treeLatencyValue, by bits.
void expectScoresMatchReference(const Application& app,
                                const std::vector<NodeId>& parent,
                                ForestScorer& scorer) {
  const ExecutionGraph g = ExecutionGraph::fromParents(parent);
  const CostModel costs(app, g);
  for (const CommModel m : kAllModels) {
    EXPECT_EQ(bitsOf(scorer.periodScore(parent, m)),
              bitsOf(costs.periodLowerBound(m)))
        << name(m) << " n=" << app.size();
  }
  EXPECT_EQ(bitsOf(scorer.latencyScore(parent)),
            bitsOf(treeLatencyValue(app, g)))
      << "n=" << app.size();
}

/// The exact search written over ExecutionGraph: the documented odometer
/// (digit i names the i-th other service, digit n-1 a root; digit 0 turns
/// fastest), each admissible forest scored by the graph-based reference.
ForestSearchResult bruteForce(const Application& app, CommModel m,
                              Objective obj) {
  const std::size_t n = app.size();
  ForestSearchResult best;
  std::vector<std::size_t> digit(n, 0);
  std::vector<NodeId> parent(n);
  for (bool carry = false; !carry;) {
    for (NodeId i = 0; i < n; ++i) {
      parent[i] = digit[i] == n - 1 ? kNoNode
                  : digit[i] >= i   ? digit[i] + 1
                                    : digit[i];
    }
    if (auto g = referenceGraph(app, parent)) {
      ++best.explored;
      const double v = obj == Objective::Period
                           ? CostModel(app, *g).periodLowerBound(m)
                           : treeLatencyValue(app, *g);
      if (v < best.value) {
        best.value = v;
        best.graph = std::move(*g);
      }
    }
    carry = true;
    for (NodeId i = 0; i < n && carry; ++i) {
      carry = digit[i] == n - 1;
      digit[i] = carry ? 0 : digit[i] + 1;
    }
  }
  return best;
}

TEST(ForestSearch, SingleServiceTrivial) {
  Application app;
  app.addService(2.0, 0.5);
  const auto r = exactForestMinPeriod(app, CommModel::Overlap);
  EXPECT_EQ(r.explored, 1u);
  EXPECT_NEAR(r.value, 2.0, 1e-12);  // max(1, 2, 0.5)
}

TEST(ForestSearch, ExploredCountsAcyclicParentFunctions) {
  // For n=2: parent vectors (none,none), (none,0), (1,none): 3 acyclic of
  // the 4 combinations (0<-1 and 1<-0 simultaneously is cyclic).
  Application app;
  app.addService(1.0, 1.0);
  app.addService(1.0, 1.0);
  const auto r = exactForestMinPeriod(app, CommModel::Overlap);
  EXPECT_EQ(r.explored, 3u);
}

TEST(ForestSearch, TwoFiltersChainBeatsParallel) {
  // Expensive filter behind a cheap one: chaining reduces the max Cexec.
  Application app;
  app.addService(1.0, 0.1);
  app.addService(10.0, 0.5);
  const auto r = exactForestMinPeriod(app, CommModel::Overlap);
  EXPECT_TRUE(r.graph.hasEdge(0, 1));
  EXPECT_NEAR(r.value, 1.0, 1e-9);  // C2 filtered: 0.1*10 = 1 = C1's cexec
}

TEST(ForestSearch, RespectsPrecedences) {
  Application app;
  app.addService(1.0, 0.5);
  app.addService(1.0, 0.5);
  app.addPrecedence(1, 0);  // C2 must precede C1
  const auto r = exactForestMinPeriod(app, CommModel::Overlap);
  // Only graphs where 1 is an ancestor of 0 are admissible.
  const auto anc = r.graph.ancestorClosure();
  EXPECT_TRUE(anc[0][1]);
}

TEST(ForestSearch, ChainGreedyIsOptimalWhenChainsWin) {
  // All filters: Prop 8's chain is a forest, so exact forest search can do
  // no better than the optimal chain when a chain is optimal; and never
  // worse than the chain in general.
  Prng rng(71);
  for (int trial = 0; trial < 10; ++trial) {
    WorkloadSpec spec;
    spec.n = 5;
    spec.filterFraction = 1.0;
    const auto app = randomApplication(spec, rng);
    const auto forest = exactForestMinPeriod(app, CommModel::Overlap);
    const double chain = chainPeriodValue(
        app, chainOrderPeriod(app, CommModel::Overlap), CommModel::Overlap);
    EXPECT_LE(forest.value, chain + 1e-9) << "trial " << trial;
  }
}

TEST(ForestSearch, MinLatencyUsesAlgorithmOne) {
  Prng rng(72);
  WorkloadSpec spec;
  spec.n = 5;
  const auto app = randomApplication(spec, rng);
  const auto r = exactForestMinLatency(app);
  EXPECT_NEAR(r.value, treeLatencyValue(app, r.graph), 1e-9);
  // Sanity: no worse than the all-roots forest or the latency chain.
  EXPECT_LE(r.value, treeLatencyValue(app, ExecutionGraph(app.size())) + 1e-9);
  EXPECT_LE(r.value,
            chainLatencyValue(app, chainOrderLatency(app)) + 1e-9);
}

TEST(ForestScorer, AdmissibleMatchesTheGraphReference) {
  Prng rng(74);
  for (std::size_t n = 1; n <= 12; ++n) {
    for (const double density : {0.0, 0.2, 0.4}) {
      WorkloadSpec spec;
      spec.n = n;
      spec.precedenceDensity = density;
      const auto app = randomApplication(spec, rng);
      ForestScorer scorer(app);
      for (int trial = 0; trial < 40; ++trial) {
        const auto parent = randomParents(n, rng);
        EXPECT_EQ(scorer.admissible(parent),
                  referenceGraph(app, parent).has_value())
            << "n=" << n << " density=" << density;
      }
    }
  }
  const Application b1 = constrainedB1();
  ForestScorer scorer(b1);
  for (int trial = 0; trial < 20; ++trial) {
    const auto parent = randomParents(b1.size(), rng);
    EXPECT_EQ(scorer.admissible(parent),
              referenceGraph(b1, parent).has_value());
  }
  // Out-of-range parents and size mismatches are rejected, not read.
  Application two;
  two.addService(1.0, 0.5);
  two.addService(1.0, 0.5);
  ForestScorer small(two);
  EXPECT_FALSE(small.admissible({kNoNode, 7}));
  EXPECT_FALSE(small.admissible({1, 1}));
  EXPECT_THROW((void)small.admissible({kNoNode}), std::invalid_argument);
  EXPECT_THROW((void)small.periodScore({kNoNode}, CommModel::Overlap),
               std::invalid_argument);
}

TEST(ForestScorer, ScoresAreBitIdenticalToCostModelAndTreeLatency) {
  Prng rng(75);
  for (std::size_t n = 1; n <= 12; ++n) {
    for (const double density : {0.0, 0.3}) {
      WorkloadSpec spec;
      spec.n = n;
      spec.precedenceDensity = density;
      const auto app = randomApplication(spec, rng);
      ForestScorer scorer(app);
      for (int trial = 0; trial < 20; ++trial) {
        expectScoresMatchReference(app, parentsOf(randomForest(app, rng)),
                                   scorer);
        // Any acyclic parent function scores, precedences or not.
        const auto parent = randomParents(n, rng);
        if (scorer.acyclic(parent)) {
          expectScoresMatchReference(app, parent, scorer);
        }
      }
    }
  }
  // Ties: equal costs and selectivities give equal R values among
  // siblings, which Algorithm 1 may feed in any order.
  Application flat;
  for (int i = 0; i < 9; ++i) flat.addService(2.0, i % 3 == 0 ? 0.5 : 1.0);
  ForestScorer flatScorer(flat);
  for (int trial = 0; trial < 40; ++trial) {
    expectScoresMatchReference(flat, parentsOf(randomForest(flat, rng)),
                               flatScorer);
  }
  // The 202-service B.1 instance: Fig 4's forest, the chained filters,
  // and random forests, with and without precedences.
  const PaperInstance b1 = counterexampleB1();
  ForestScorer b1Scorer(b1.app);
  expectScoresMatchReference(b1.app, parentsOf(b1.graph), b1Scorer);
  expectScoresMatchReference(b1.app, parentsOf(counterexampleB1ChainGraph()),
                             b1Scorer);
  const Application constrained = constrainedB1();
  ForestScorer constrainedScorer(constrained);
  for (int trial = 0; trial < 4; ++trial) {
    expectScoresMatchReference(b1.app, parentsOf(randomForest(b1.app, rng)),
                               b1Scorer);
    expectScoresMatchReference(
        constrained, parentsOf(randomForest(constrained, rng)),
        constrainedScorer);
  }
}

TEST(ForestSearch, ExactSearchMatchesAGraphBruteForce) {
  Prng rng(76);
  for (std::size_t n = 1; n <= 5; ++n) {
    for (const double density : {0.0, 0.3}) {
      WorkloadSpec spec;
      spec.n = n;
      spec.precedenceDensity = density;
      const auto app = randomApplication(spec, rng);
      for (const CommModel m : kAllModels) {
        for (const Objective obj : {Objective::Period, Objective::Latency}) {
          const auto got = obj == Objective::Period
                               ? exactForestMinPeriod(app, m)
                               : exactForestMinLatency(app);
          const auto want = bruteForce(app, m, obj);
          EXPECT_EQ(got.explored, want.explored) << "n=" << n;
          EXPECT_EQ(bitsOf(got.value), bitsOf(want.value)) << "n=" << n;
          EXPECT_TRUE(got.graph == want.graph) << "n=" << n;
        }
      }
    }
  }
}

TEST(ForestSearch, TooLargeThrows) {
  Application app;
  for (int i = 0; i < 12; ++i) app.addService(1.0, 1.0);
  EXPECT_THROW(exactForestMinPeriod(app, CommModel::Overlap),
               std::invalid_argument);
}

TEST(ForestSearch, OrchestratedEvaluationConsistent) {
  // With orchestrated evaluation the (valid) value can only be >= the
  // relaxation value.
  Prng rng(73);
  WorkloadSpec spec;
  spec.n = 4;
  const auto app = randomApplication(spec, rng);
  const auto relaxed = exactForestMinPeriod(app, CommModel::InOrder, false);
  const auto orched = exactForestMinPeriod(app, CommModel::InOrder, true);
  EXPECT_GE(orched.value, relaxed.value - 1e-9);
}

}  // namespace
}  // namespace fsw
