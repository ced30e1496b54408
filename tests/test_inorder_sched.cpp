#include <gtest/gtest.h>

#include <cstring>

#include "src/common/thread_pool.hpp"
#include "src/core/cost_model.hpp"
#include "src/io/serialize.hpp"
#include "src/oplist/validate.hpp"
#include "src/sched/inorder.hpp"
#include "src/sched/outorder.hpp"
#include "src/sim/greedy.hpp"
#include "src/sim/replay.hpp"
#include "src/workload/generator.hpp"
#include "src/workload/paper_instances.hpp"

namespace fsw {
namespace {

TEST(InorderForOrders, SingleServiceCycle) {
  Application app;
  app.addService(3.0, 0.5);
  ExecutionGraph g(1);
  const auto r = inorderPeriodForOrders(app, g, PortOrders::canonical(g));
  ASSERT_TRUE(r);
  // in(1) + comp(3) + out(0.5), fully serialized.
  EXPECT_NEAR(r->value, 4.5, 1e-6);
  EXPECT_TRUE(validate(app, g, r->ol, CommModel::InOrder).valid);
}

TEST(InorderForOrders, ChainAchievesBusyBound) {
  Application app;
  app.addService(2.0, 0.5);
  app.addService(1.0, 1.0);
  app.addService(0.5, 2.0);
  const auto g = ExecutionGraph::chain({0, 1, 2});
  const auto r = inorderPeriodForOrders(app, g, PortOrders::canonical(g));
  ASSERT_TRUE(r);
  const CostModel cm(app, g);
  EXPECT_NEAR(r->value, cm.periodLowerBound(CommModel::InOrder), 1e-6);
  EXPECT_TRUE(validate(app, g, r->ol, CommModel::InOrder).valid);
}

TEST(InorderForOrders, Sec23OrdersMatter) {
  const auto pi = sec23Example();
  // Sending to C2 before C4 and receiving C4 before C3 is the paper's
  // optimal configuration at 23/3.
  auto po = PortOrders::canonical(pi.graph);
  po.setOut(0, {1, 3});
  po.setIn(4, {3, 2});
  const auto good = inorderPeriodForOrders(pi.app, pi.graph, po);
  ASSERT_TRUE(good);
  EXPECT_NEAR(good->value, 23.0 / 3.0, 1e-6);
  // The reverse send order is strictly worse.
  po.setOut(0, {3, 1});
  po.setIn(4, {2, 3});
  const auto bad = inorderPeriodForOrders(pi.app, pi.graph, po);
  ASSERT_TRUE(bad);
  EXPECT_GT(bad->value, good->value + 1e-9);
}

TEST(InorderOrchestrate, ValidAndAboveBoundOnRandomForests) {
  Prng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    WorkloadSpec spec;
    spec.n = 6;
    const auto app = randomApplication(spec, rng);
    const auto g = randomForest(app, rng);
    OrchestrationOptions opt;
    opt.exactCap = 400;  // keep the test fast; heuristic beyond that
    const auto r = inorderOrchestratePeriod(app, g, opt);
    const CostModel cm(app, g);
    EXPECT_GE(r.value, cm.periodLowerBound(CommModel::InOrder) - 1e-9);
    const auto rep = validate(app, g, r.ol, CommModel::InOrder);
    EXPECT_TRUE(rep.valid) << "trial " << trial << ": " << rep.summary();
  }
}

TEST(InorderOrchestrate, ReplayerConfirmsPeriod) {
  const auto pi = sec23Example();
  const auto r = inorderOrchestratePeriod(pi.app, pi.graph);
  const auto sim =
      replayOperationList(pi.app, pi.graph, r.ol, CommModel::InOrder, 48);
  EXPECT_TRUE(sim.ok);
  EXPECT_NEAR(sim.measuredPeriod, r.value, 1e-6);
}

TEST(InorderOrchestrate, BeatsOrMatchesGreedySimulation) {
  // The orchestrated period never exceeds what the greedy runtime achieves
  // with the same orders (the greedy baseline is one feasible schedule).
  const auto pi = sec23Example();
  const auto r = inorderOrchestratePeriod(pi.app, pi.graph);
  const auto sim = simulateGreedyInOrder(pi.app, pi.graph, r.orders, 128);
  ASSERT_TRUE(sim.ok);
  EXPECT_LE(r.value, sim.measuredPeriod + 1e-6);
}

TEST(OneportLatencyForOrders, MatchesCriticalPathOnChain) {
  Application app;
  app.addService(2.0, 0.5);
  app.addService(3.0, 1.0);
  const auto g = ExecutionGraph::chain({0, 1});
  const auto r = oneportLatencyForOrders(app, g, PortOrders::canonical(g));
  ASSERT_TRUE(r);
  EXPECT_NEAR(r->value, 5.5, 1e-9);
  EXPECT_TRUE(validate(app, g, r->ol, CommModel::InOrder).valid);
  EXPECT_TRUE(validate(app, g, r->ol, CommModel::OutOrder).valid);
}

TEST(OneportOrchestrateLatency, Sec23Finds21) {
  const auto pi = sec23Example();
  const auto r = oneportOrchestrateLatency(pi.app, pi.graph);
  EXPECT_NEAR(r.value, 21.0, 1e-9);
  EXPECT_TRUE(validate(pi.app, pi.graph, r.ol, CommModel::InOrder).valid);
}

TEST(OneportOrchestrateLatency, NeverBelowCriticalPath) {
  Prng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    WorkloadSpec spec;
    spec.n = 7;
    const auto app = randomApplication(spec, rng);
    const auto g = randomLayeredDag(app, 3, 2, rng);
    OrchestrationOptions opt;
    opt.exactCap = 400;
    const auto r = oneportOrchestrateLatency(app, g, opt);
    const CostModel cm(app, g);
    EXPECT_GE(r.value, cm.latencyLowerBound() - 1e-9);
    const auto rep = validate(app, g, r.ol, CommModel::OutOrder);
    EXPECT_TRUE(rep.valid) << "trial " << trial << ": " << rep.summary();
  }
}

/// Bitwise equality of two order-search results: value, orders and
/// operation list.
void expectSameResult(const OrchestrationResult& a,
                      const OrchestrationResult& b, const std::string& what) {
  EXPECT_EQ(std::memcmp(&a.value, &b.value, sizeof a.value), 0)
      << what << ": " << a.value << " vs " << b.value;
  EXPECT_TRUE(a.orders == b.orders) << what;
  EXPECT_EQ(toString(a.ol), toString(b.ol)) << what;
}

TEST(InorderOrchestrate, PooledMatchesSerialOnBothSidesOfTheCutoff) {
  // Exact enumerations below kPooledPeriodMinOrders (period) or
  // kPooledLatencyMinOrders (latency) run on the caller even with a pool;
  // larger ones fan out. Either way the winner is the serial one.
  struct Case {
    std::string label;
    Application app;
    ExecutionGraph graph{0};
  };
  std::vector<Case> cases;
  const auto sec23 = sec23Example();
  cases.push_back({"sec23", sec23.app, sec23.graph});
  // Random layered DAGs until one lands in each band of the cutoffs.
  Prng rng(1414);
  bool haveMid = false;
  bool haveLarge = false;
  for (int tries = 0; tries < 200 && !(haveMid && haveLarge); ++tries) {
    WorkloadSpec spec;
    spec.n = 7;
    Case c{"", randomApplication(spec, rng), ExecutionGraph(0)};
    c.graph = randomLayeredDag(c.app, 3, 2, rng);
    const std::size_t combos = countPortOrders(c.graph, 20000);
    if (!haveMid && combos >= kPooledPeriodMinOrders &&
        combos < kPooledLatencyMinOrders) {
      haveMid = true;
      c.label = "dag with " + std::to_string(combos) + " orders";
      cases.push_back(std::move(c));
    } else if (!haveLarge && combos >= kPooledLatencyMinOrders &&
               combos < 4000) {
      haveLarge = true;
      c.label = "dag with " + std::to_string(combos) + " orders";
      cases.push_back(std::move(c));
    }
  }
  ASSERT_TRUE(haveMid && haveLarge);
  ASSERT_LT(countPortOrders(sec23.graph, 20000), kPooledPeriodMinOrders);

  ThreadPool pool(4);
  for (const Case& c : cases) {
    OrchestrationOptions serial;
    OrchestrationOptions pooled;
    pooled.pool = &pool;
    expectSameResult(inorderOrchestratePeriod(c.app, c.graph, serial),
                     inorderOrchestratePeriod(c.app, c.graph, pooled),
                     c.label + " period");
    expectSameResult(oneportOrchestrateLatency(c.app, c.graph, serial),
                     oneportOrchestrateLatency(c.app, c.graph, pooled),
                     c.label + " latency");
    OutorderOptions outSerial;
    OutorderOptions outPooled;
    outPooled.pool = &pool;
    outPooled.inorder.pool = &pool;
    expectSameResult(outorderOrchestratePeriod(c.app, c.graph, outSerial),
                     outorderOrchestratePeriod(c.app, c.graph, outPooled),
                     c.label + " OUTORDER period");
  }
}

}  // namespace
}  // namespace fsw
