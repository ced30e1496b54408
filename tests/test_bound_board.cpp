// The BoundBoard near-key warm-start machinery and the OUTORDER
// seed/repair bound split: structural-prefix surgery on canonical request
// keys, the prefix-indexed near table (most-recent-wins, benign racing),
// engine-level winner identity when warm starts fire (a neighbor's plan is
// never served, only its re-certified value used as a bound), degradation
// to cold behavior when the remote store dies, and the direct solver-level
// soundness of the final-value incumbent (seed-phase dominance aborts,
// repair-phase bisection aborts, bit-identical winners under loose bounds),
// and two engines sharing one board (the fleet layout) keeping winners.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/io/serialize.hpp"
#include "src/opt/optimizer.hpp"
#include "src/sched/outorder.hpp"
#include "src/serve/bound_board.hpp"
#include "src/serve/plan_engine.hpp"
#include "src/serve/result_store.hpp"
#include "src/workload/paper_instances.hpp"

namespace fsw {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

OptimizerOptions fastOptions() {
  OptimizerOptions opt;
  opt.exactForestMaxN = 5;
  opt.heuristics.iterations = 200;
  opt.heuristics.restarts = 2;
  opt.orchestrator.order.exactCap = 120;
  opt.orchestrator.outorder.restarts = 4;
  opt.orchestrator.outorder.bisectSteps = 4;
  return opt;
}

PlanRequest baseRequest() {
  PlanRequest req;
  req.app.addService(2.0, 0.5);
  req.app.addService(1.0, 0.8);
  req.app.addService(3.0, 0.4);
  req.app.addService(1.5, 0.7);
  req.app.addPrecedence(0, 2);
  req.model = CommModel::OutOrder;
  req.objective = Objective::Period;
  req.options = fastOptions();
  return req;
}

/// Same structure, drifted parameters — the near-key scenario.
PlanRequest mutateParams(const PlanRequest& base, double costScale,
                         double selScale) {
  PlanRequest out = base;
  out.app = Application{};
  for (const Service& s : base.app.services()) {
    out.app.addService(s.cost * costScale, s.selectivity * selScale);
  }
  for (const Precedence& p : base.app.precedences()) {
    out.app.addPrecedence(p.from, p.to);
  }
  return out;
}

OptimizedPlan serialReference(const PlanRequest& req) {
  OptimizerOptions serial = req.options;
  serial.threads = 1;
  return optimizePlan(req.app, req.model, req.objective, serial);
}

/// The bit-identity contract: value bits, strategy, graph and OL all equal.
void expectIdentical(const OptimizedPlan& got, const OptimizedPlan& ref) {
  EXPECT_EQ(got.value, ref.value);
  EXPECT_EQ(got.strategy, ref.strategy);
  EXPECT_EQ(toString(got.plan.graph), toString(ref.plan.graph));
  EXPECT_EQ(toString(got.plan.ol), toString(ref.plan.ol));
}

TEST(StructuralPrefix, SplitsParametricSuffixOnly) {
  const PlanRequest base = baseRequest();
  const std::string key = PlanEngine::requestKey(base);
  const std::string prefix = structuralPrefixOfKey(key);

  // Dropping the cost:selectivity segments strictly shrinks the key.
  EXPECT_LT(prefix.size(), key.size());

  // Drifting parameters changes the key but not the prefix.
  const PlanRequest drifted = mutateParams(base, 1.25, 0.9);
  const std::string driftedKey = PlanEngine::requestKey(drifted);
  EXPECT_NE(driftedKey, key);
  EXPECT_EQ(structuralPrefixOfKey(driftedKey), prefix);

  // Structure changes the prefix: an extra precedence edge...
  PlanRequest edged = base;
  edged.app.addPrecedence(1, 3);
  EXPECT_NE(structuralPrefixOfKey(PlanEngine::requestKey(edged)), prefix);

  // ...a different model or objective...
  PlanRequest remodeled = base;
  remodeled.model = CommModel::InOrder;
  EXPECT_NE(structuralPrefixOfKey(PlanEngine::requestKey(remodeled)), prefix);
  PlanRequest reaimed = base;
  reaimed.objective = Objective::Latency;
  EXPECT_NE(structuralPrefixOfKey(PlanEngine::requestKey(reaimed)), prefix);

  // ...or a different service count.
  PlanRequest grown = base;
  grown.app.addService(1.0, 1.0);
  EXPECT_NE(structuralPrefixOfKey(PlanEngine::requestKey(grown)), prefix);
}

TEST(BoundBoardNear, NamesMostRecentKeyPerPrefix) {
  BoundBoard board{16};
  const PlanRequest base = baseRequest();
  const std::string keyA = PlanEngine::requestKey(base);
  const std::string keyB =
      PlanEngine::requestKey(mutateParams(base, 1.5, 1.0));
  const std::string prefix = structuralPrefixOfKey(keyA);
  ASSERT_EQ(structuralPrefixOfKey(keyB), prefix);

  EXPECT_FALSE(board.nearestKey(prefix).has_value());
  board.publish(keyA, 5.0);
  ASSERT_TRUE(board.nearestKey(prefix).has_value());
  EXPECT_EQ(*board.nearestKey(prefix), keyA);
  board.publish(keyB, 7.0);
  EXPECT_EQ(*board.nearestKey(prefix), keyB);  // most recent publish wins

  // Non-finite publishes never reach either table.
  board.publish(PlanEngine::requestKey(mutateParams(base, 2.0, 1.0)), kInf);
  EXPECT_EQ(*board.nearestKey(prefix), keyB);

  const auto stats = board.stats();
  EXPECT_EQ(stats.nearConsulted, 5u);
  EXPECT_EQ(stats.nearHits, 4u);
}

TEST(BoundBoardNear, ConcurrentPostersRaceBenignly) {
  BoundBoard board{64};
  const PlanRequest base = baseRequest();
  std::vector<std::string> keys;
  for (int i = 0; i < 8; ++i) {
    keys.push_back(
        PlanEngine::requestKey(mutateParams(base, 1.0 + 0.1 * i, 1.0)));
  }
  const std::string prefix = structuralPrefixOfKey(keys[0]);

  std::vector<std::thread> posters;
  posters.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    posters.emplace_back(
        [&board, &keys, i] { board.publish(keys[i], 10.0 + double(i)); });
  }
  for (auto& t : posters) t.join();

  // Whichever poster landed last named the neighbor — but it must be one
  // of the published keys, and every exact bound must be intact.
  const auto named = board.nearestKey(prefix);
  ASSERT_TRUE(named.has_value());
  bool member = false;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    member = member || *named == keys[i];
    const auto bound = board.lookup(keys[i]);
    ASSERT_TRUE(bound.has_value());
    EXPECT_EQ(*bound, 10.0 + double(i));
  }
  EXPECT_TRUE(member);
}

TEST(BoundBoardNear, WarmStartedWinnersIdenticalRegardlessOfNeighbor) {
  // Two engines warm their boards with the same two structural siblings in
  // OPPOSITE orders, so their near tables name different neighbors for the
  // shared prefix. The mutated re-solve must return the bit-identical
  // serial winner from both — the neighbor choice is a benign race.
  const PlanRequest base = baseRequest();
  const PlanRequest sibling = mutateParams(base, 1.4, 0.85);
  const PlanRequest probe = mutateParams(base, 0.7, 1.1);
  const OptimizedPlan ref = serialReference(probe);

  for (const bool reversed : {false, true}) {
    BoundBoard board{64};
    EngineConfig cfg{.threads = 1};
    cfg.boundBoard = &board;
    PlanEngine engine{cfg};
    (void)engine.optimize(reversed ? sibling : base);
    (void)engine.optimize(reversed ? base : sibling);

    const OptimizedPlan got = engine.optimize(probe);
    expectIdentical(got, ref);
    // Served by a fresh solve under a warm bound — never from a cache.
    EXPECT_EQ(got.stats.resultCacheHits, 0u);
    EXPECT_GT(board.stats().nearHits, 0u);
  }
}

TEST(BoundBoardNear, PrefixCollisionNeverServesNeighborPlan) {
  // A drastic parameter drift: the neighbor's winner value is far from the
  // probe's. The engine may only use the neighbor's RE-CERTIFIED value as
  // a bound; the returned winner must be the probe's own.
  const PlanRequest base = baseRequest();
  const PlanRequest probe = mutateParams(base, 5.0, 1.0);
  const OptimizedPlan ref = serialReference(probe);
  const OptimizedPlan baseRef = serialReference(base);
  ASSERT_NE(ref.value, baseRef.value);  // the collision is observable

  BoundBoard board{64};
  EngineConfig cfg{.threads = 1};
  cfg.boundBoard = &board;
  PlanEngine engine{cfg};
  const OptimizedPlan first = engine.optimize(base);
  expectIdentical(first, baseRef);

  const OptimizedPlan got = engine.optimize(probe);
  expectIdentical(got, ref);
  EXPECT_EQ(got.stats.resultCacheHits, 0u);
}

TEST(BoundBoardNear, StoreDeathDegradesToColdSolve) {
  const PlanRequest base = baseRequest();
  const PlanRequest probe = mutateParams(base, 1.2, 0.95);
  const OptimizedPlan ref = serialReference(probe);

  ResultStoreHost host{ResultStoreConfig{}};
  ASSERT_GT(host.port(), 0);
  RemoteResultStore storeA("127.0.0.1", host.port());
  RemoteResultStore storeB("127.0.0.1", host.port());

  EngineConfig aCfg{.threads = 1};
  aCfg.resultStore = &storeA;
  PlanEngine engineA{aCfg};
  (void)engineA.optimize(base);  // publishes the neighbor fleet-wide

  // Alive: the near GET names the neighbor and the warm solve is identical.
  EngineConfig bCfg{.threads = 1};
  bCfg.resultStore = &storeB;
  PlanEngine engineB{bCfg};
  expectIdentical(engineB.optimize(probe), ref);
  EXPECT_GT(storeB.stats().nearHits, 0u);

  // Dead: a further drift (a fresh key) degrades to a cold exact solve —
  // no hang, no stale plan, same winner as serial.
  host.stop();
  const PlanRequest probe2 = mutateParams(base, 1.3, 0.9);
  expectIdentical(engineB.optimize(probe2), serialReference(probe2));
}

TEST(BoundBoardFleet, TwoEnginesSharingOneBoardPreserveWinnersAndPublish) {
  // The fleet layout: two engines (two hosts) wired to one BoundBoard,
  // full-result caching off so a repeat re-solves. Engine A's solves
  // publish every key; engine B's re-solves of the same keys consult the
  // board and must return A's winners bit-exactly — the board only ever
  // tightens a re-solve with the key's own winner value.
  std::vector<PlanRequest> reqs;
  const PaperInstance pi = sec23Example();
  for (const CommModel m : kAllModels) {
    for (const Objective obj : {Objective::Period, Objective::Latency}) {
      reqs.push_back({pi.app, m, obj, fastOptions()});
    }
  }
  reqs.push_back(baseRequest());

  BoundBoard board;
  EngineConfig cfg{.threads = 1};
  cfg.boundBoard = &board;
  cfg.cacheFullResults = false;
  PlanEngine engineA{cfg};
  PlanEngine engineB{cfg};

  const auto first = engineA.optimizeBatch(reqs);
  const BoundBoard::Stats afterA = board.stats();
  EXPECT_GT(afterA.published, 0u);
  EXPECT_GT(afterA.tightened, 0u);

  const auto second = engineB.optimizeBatch(reqs);
  EXPECT_GT(board.stats().hits, afterA.hits);  // B consulted A's bounds
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    expectIdentical(second[i], first[i]);
    EXPECT_EQ(second[i].surrogate, first[i].surrogate);
    EXPECT_EQ(second[i].stats.resultCacheHits, 0u);
    expectIdentical(first[i], serialReference(reqs[i]));
  }
}

// ---- Direct solver-level soundness of the seed/repair bound split ----

OutorderOptions b3Options() {
  OutorderOptions opt;
  opt.inorder.exactCap = 20000;
  opt.inorder.localSearchIters = 100;
  opt.restarts = 8;
  opt.repairIters = 200;
  opt.bisectSteps = 8;
  opt.seed = 17;
  return opt;
}

TEST(OutorderBoundSplit, SeedPhaseAbortsDominatedCandidate) {
  // B.3's one-port analytic floor is 12: an incumbent below it dominates
  // the whole candidate before the seed even runs.
  const PaperInstance inst = counterexampleB3();
  std::atomic<std::size_t> seedAborts{0}, repairAborts{0};
  OutorderOptions opt = b3Options();
  opt.upperBound = 11.0;
  opt.seedBoundAborts = &seedAborts;
  opt.repairBoundAborts = &repairAborts;

  const auto out = onePortOverlapOrchestratePeriod(inst.app, inst.graph, opt);
  EXPECT_TRUE(std::isinf(out.value));
  EXPECT_EQ(seedAborts.load(), 1u);
  EXPECT_EQ(repairAborts.load(), 0u);
}

TEST(OutorderBoundSplit, RepairPhaseAbortsWhenFloorCrossesIncumbent) {
  // The incumbent sits strictly between the floor (12) and the unbounded
  // winner: the seed survives (its derived bound covers the worst-case
  // repair improvement) and the bisection aborts when its certified lower
  // end crosses the incumbent.
  const PaperInstance inst = counterexampleB3();
  const auto unbounded =
      onePortOverlapOrchestratePeriod(inst.app, inst.graph, b3Options());
  ASSERT_TRUE(std::isfinite(unbounded.value));
  ASSERT_GT(unbounded.value, 12.5);  // Appendix B.3: every schedule > 12

  std::atomic<std::size_t> seedAborts{0}, repairAborts{0};
  OutorderOptions tight = b3Options();
  tight.upperBound = 12.5;
  tight.seedBoundAborts = &seedAborts;
  tight.repairBoundAborts = &repairAborts;
  const auto bounded =
      onePortOverlapOrchestratePeriod(inst.app, inst.graph, tight);
  EXPECT_TRUE(std::isinf(bounded.value));
  EXPECT_EQ(seedAborts.load(), 0u);
  EXPECT_GE(repairAborts.load(), 1u);
}

TEST(OutorderBoundSplit, LooseBoundKeepsWinnerBitIdentical) {
  const PaperInstance inst = counterexampleB3();
  const auto unbounded =
      onePortOverlapOrchestratePeriod(inst.app, inst.graph, b3Options());
  ASSERT_TRUE(std::isfinite(unbounded.value));

  std::atomic<std::size_t> seedAborts{0}, repairAborts{0};
  OutorderOptions loose = b3Options();
  loose.upperBound = unbounded.value + 1.0;
  loose.seedBoundAborts = &seedAborts;
  loose.repairBoundAborts = &repairAborts;
  const auto bounded =
      onePortOverlapOrchestratePeriod(inst.app, inst.graph, loose);
  EXPECT_EQ(bounded.value, unbounded.value);
  EXPECT_EQ(toString(bounded.ol), toString(unbounded.ol));
  EXPECT_EQ(seedAborts.load(), 0u);
  EXPECT_EQ(repairAborts.load(), 0u);

  // An incumbent equal to the winner keeps it too: the feasibility probe
  // at the incumbent is exact, not strict.
  std::atomic<std::size_t> seedEq{0}, repairEq{0};
  OutorderOptions atWinner = b3Options();
  atWinner.upperBound = unbounded.value;
  atWinner.seedBoundAborts = &seedEq;
  atWinner.repairBoundAborts = &repairEq;
  const auto exact =
      onePortOverlapOrchestratePeriod(inst.app, inst.graph, atWinner);
  EXPECT_EQ(exact.value, unbounded.value);
  EXPECT_EQ(toString(exact.ol), toString(unbounded.ol));
}

}  // namespace
}  // namespace fsw
