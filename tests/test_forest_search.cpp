#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/cost_model.hpp"
#include "src/opt/chain.hpp"
#include "src/opt/forest_scorer.hpp"
#include "src/opt/forest_search.hpp"
#include "src/sched/latency.hpp"
#include "src/sched/orchestrator.hpp"
#include "src/workload/generator.hpp"
#include "src/workload/paper_instances.hpp"
#include "tests/build_config.hpp"

namespace fsw {
namespace {

/// Largest n whose brute force also orchestrates every forest. At n = 7
/// that takes about 15 s of an optimized build, so other builds stop at 4.
constexpr std::size_t kOrchestratedMaxN = kOptimized && !kSanitized ? 7 : 4;

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

/// The scorer's admissibility of one parent function. On acyclic input
/// the ancestor masks must agree with the parent walk.
bool admissible(ForestScorer& scorer, const std::vector<NodeId>& parent) {
  if (!scorer.acyclic(parent)) return false;
  const bool walked = scorer.respectsPrecedences(parent);
  if (parent.size() <= kMaxMaskedServices) {
    EXPECT_EQ(scorer.maskAncestors(parent), walked) << "n=" << parent.size();
  }
  return walked;
}

/// Scorer vs CostModel::periodLowerBound and treeLatencyValue, by bits,
/// along both ancestor sources (the masks only up to kMaxMaskedServices).
void expectScoresMatchReference(const Application& app,
                                const std::vector<NodeId>& parent,
                                ForestScorer& scorer) {
  const ExecutionGraph g = ExecutionGraph::fromParents(parent);
  const CostModel costs(app, g);
  const bool masked = parent.size() <= kMaxMaskedServices;
  if (masked) (void)scorer.maskAncestors(parent);
  for (const CommModel m : kAllModels) {
    const auto want = bitsOf(costs.periodLowerBound(m));
    EXPECT_EQ(bitsOf(scorer.periodScore(parent, m)), want)
        << name(m) << " n=" << app.size();
    if (masked) {
      EXPECT_EQ(bitsOf(scorer.maskedPeriodScore(parent, m)), want)
          << name(m) << " masked n=" << app.size();
    }
  }
  const auto want = bitsOf(treeLatencyValue(app, g));
  EXPECT_EQ(bitsOf(scorer.latencyScore(parent)), want) << "n=" << app.size();
  if (masked) {
    EXPECT_EQ(bitsOf(scorer.maskedLatencyScore(parent)), want)
        << "masked n=" << app.size();
  }
}

/// The exact searches written over ExecutionGraph: the documented odometer
/// over all n^n parent functions (digit i names the i-th other service,
/// digit n-1 a root; digit 0 turns fastest), each admissible forest scored
/// by the graph-based reference. One pass serves every model's period, the
/// latency and, with `orchestrated`, every model's orchestrated period.
struct Reference {
  std::array<ForestSearchResult, kAllModels.size()> period;
  ForestSearchResult latency;
  std::array<ForestSearchResult, kAllModels.size()> orchestrated;
};

void keepFirstBest(ForestSearchResult& best, double v,
                   const ExecutionGraph& g) {
  ++best.explored;
  if (v < best.value) {
    best.value = v;
    best.graph = g;
  }
}

/// True when following parents from every node reaches a root within n
/// steps (the brute force skips cycles without building a graph).
bool reachesRoots(const std::vector<NodeId>& parent) {
  for (NodeId i = 0; i < parent.size(); ++i) {
    NodeId v = i;
    for (std::size_t step = 0; v != kNoNode && step <= parent.size(); ++step) {
      v = parent[v];
    }
    if (v != kNoNode) return false;
  }
  return true;
}

Reference bruteForce(const Application& app, bool orchestrated) {
  const std::size_t n = app.size();
  Reference ref;
  std::vector<std::size_t> digit(n, 0);
  std::vector<NodeId> parent(n);
  for (bool carry = false; !carry;) {
    for (NodeId i = 0; i < n; ++i) {
      parent[i] = digit[i] == n - 1 ? kNoNode
                  : digit[i] >= i   ? digit[i] + 1
                                    : digit[i];
    }
    // A cycle skips the graph build: referenceGraph would reject it too.
    auto g = reachesRoots(parent) ? referenceGraph(app, parent) : std::nullopt;
    if (g) {
      const CostModel costs(app, *g);
      for (std::size_t mi = 0; mi < kAllModels.size(); ++mi) {
        const CommModel m = kAllModels[mi];
        keepFirstBest(ref.period[mi], costs.periodLowerBound(m), *g);
        if (orchestrated) {
          keepFirstBest(ref.orchestrated[mi],
                        orchestrate(app, *g, m, Objective::Period).result.value,
                        *g);
        }
      }
      keepFirstBest(ref.latency, treeLatencyValue(app, *g), *g);
    }
    carry = true;
    for (NodeId i = 0; i < n && carry; ++i) {
      carry = digit[i] == n - 1;
      digit[i] = carry ? 0 : digit[i] + 1;
    }
  }
  return ref;
}

/// Same visiting count, same value bits, same first-best graph.
void expectSameSearch(const ForestSearchResult& got,
                      const ForestSearchResult& want, const std::string& what) {
  EXPECT_EQ(got.explored, want.explored) << what;
  EXPECT_EQ(bitsOf(got.value), bitsOf(want.value)) << what;
  EXPECT_TRUE(got.graph == want.graph) << what;
}

/// Every exact search on `app` against the brute force; the orchestrated
/// mode too when `orchestrated`.
void expectMatchesBruteForce(const Application& app, bool orchestrated,
                             const std::string& what) {
  const Reference ref = bruteForce(app, orchestrated);
  for (std::size_t mi = 0; mi < kAllModels.size(); ++mi) {
    const CommModel m = kAllModels[mi];
    expectSameSearch(exactForestMinPeriod(app, m), ref.period[mi],
                     what + " period " + std::string(name(m)));
    if (orchestrated) {
      expectSameSearch(exactForestMinPeriod(app, m, /*orchestrated=*/true),
                       ref.orchestrated[mi],
                       what + " orchestrated " + std::string(name(m)));
    }
  }
  expectSameSearch(exactForestMinLatency(app), ref.latency,
                   what + " latency");
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
        EXPECT_EQ(admissible(scorer, parent),
                  referenceGraph(app, parent).has_value())
            << "n=" << n << " density=" << density;
      }
    }
  }
  const Application b1 = constrainedB1();
  ForestScorer scorer(b1);
  for (int trial = 0; trial < 20; ++trial) {
    const auto parent = randomParents(b1.size(), rng);
    EXPECT_EQ(admissible(scorer, parent),
              referenceGraph(b1, parent).has_value());
  }
  // B.1's 202 services do not fit the 64-bit ancestor masks.
  EXPECT_THROW(
      (void)scorer.maskAncestors(std::vector<NodeId>(b1.size(), kNoNode)),
      std::invalid_argument);
  // Out-of-range parents and size mismatches are rejected, not read.
  Application two;
  two.addService(1.0, 0.5);
  two.addService(1.0, 0.5);
  ForestScorer small(two);
  EXPECT_FALSE(small.acyclic({kNoNode, 7}));
  EXPECT_FALSE(small.acyclic({1, 1}));
  EXPECT_THROW((void)small.acyclic({kNoNode}), std::invalid_argument);
  EXPECT_THROW((void)small.maskAncestors({kNoNode}), std::invalid_argument);
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
  // n = 7 walks 823,543 parent functions through the graph reference per
  // instance: only in optimized, unsanitized builds.
  const std::size_t maxN = kOptimized && !kSanitized ? 7 : 6;
  Prng rng(76);
  for (std::size_t n = 1; n <= maxN; ++n) {
    for (const double density : {0.0, 0.15, 0.3}) {
      WorkloadSpec spec;
      spec.n = n;
      spec.precedenceDensity = density;
      const auto app = randomApplication(spec, rng);
      expectMatchesBruteForce(app, /*orchestrated=*/n <= kOrchestratedMaxN,
                              "n=" + std::to_string(n) +
                                  " density=" + std::to_string(density));
    }
  }
}

TEST(ForestSearch, TiesKeepTheFirstBestForest) {
  // All-equal services make most forests tie; the search must keep the
  // first best one in the odometer's order, with precedences or without.
  for (std::size_t n = 1; n <= 6; ++n) {
    Application app;
    for (std::size_t i = 0; i < n; ++i) app.addService(2.0, 0.5);
    expectMatchesBruteForce(app, n <= kOrchestratedMaxN,
                            "flat n=" + std::to_string(n));
    if (n >= 3) {
      app.addPrecedence(n - 1, 0);
      app.addPrecedence(1, 2);
      expectMatchesBruteForce(app, n <= kOrchestratedMaxN,
                              "flat constrained n=" + std::to_string(n));
    }
  }
  Application ones;
  for (int i = 0; i < 5; ++i) ones.addService(1.0, 1.0);
  expectMatchesBruteForce(ones, /*orchestrated=*/false, "all ones");
}

TEST(ForestSearch, EmptyApplicationVisitsTheEmptyForestOnce) {
  const Application empty;
  for (const CommModel m : kAllModels) {
    for (const bool orchestrated : {false, true}) {
      const auto r = exactForestMinPeriod(empty, m, orchestrated);
      EXPECT_EQ(r.explored, 1u) << name(m);
      EXPECT_EQ(bitsOf(r.value), bitsOf(0.0)) << name(m);
      EXPECT_EQ(r.graph.size(), 0u) << name(m);
    }
  }
  const auto r = exactForestMinLatency(empty);
  EXPECT_EQ(r.explored, 1u);
  EXPECT_EQ(bitsOf(r.value), bitsOf(0.0));
  EXPECT_EQ(r.graph.size(), 0u);
}

TEST(ForestSearch, TooLargeThrows) {
  Application app;
  for (int i = 0; i < 12; ++i) app.addService(1.0, 1.0);
  EXPECT_THROW(exactForestMinPeriod(app, CommModel::Overlap),
               std::invalid_argument);
  // Ancestor masks hold 63 services: 64 throws whatever maxN allows.
  Application wide;
  for (int i = 0; i < 64; ++i) wide.addService(1.0, 1.0);
  for (const bool orchestrated : {false, true}) {
    EXPECT_THROW(
        exactForestMinPeriod(wide, CommModel::InOrder, orchestrated, 100),
        std::invalid_argument);
  }
  EXPECT_THROW(exactForestMinLatency(wide, 64), std::invalid_argument);
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
