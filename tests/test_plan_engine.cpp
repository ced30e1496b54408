// The batched serving core: cross-request dedup, the shared LRU score
// cache, incumbent-bound pruning, cache persistence, and the extended
// determinism contract — batch winners are bit-identical to per-request
// serial optimizePlan, even when one engine is hammered from many threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/io/serialize.hpp"
#include "src/opt/forest_search.hpp"
#include "src/opt/optimizer.hpp"
#include "src/sched/inorder.hpp"
#include "src/serve/plan_engine.hpp"
#include "src/workload/generator.hpp"
#include "src/workload/paper_instances.hpp"

namespace fsw {
namespace {

OptimizerOptions fastOptions() {
  OptimizerOptions opt;
  opt.exactForestMaxN = 5;
  opt.heuristics.iterations = 400;
  opt.heuristics.restarts = 2;
  opt.orchestrator.order.exactCap = 150;
  opt.orchestrator.outorder.restarts = 6;
  opt.orchestrator.outorder.bisectSteps = 5;
  return opt;
}

/// A mixed request set: distinct apps x models x objectives, with the
/// whole set appended twice when `duplicated` so every request has an
/// identical twin later in the batch.
std::vector<PlanRequest> mixedWorkload(bool duplicated) {
  std::vector<PlanRequest> reqs;
  Prng rng(515);
  for (const std::size_t n : {4u, 5u, 6u}) {
    WorkloadSpec spec;
    spec.n = n;
    spec.precedenceDensity = n == 6 ? 0.25 : 0.0;
    const auto app = randomApplication(spec, rng);
    for (const CommModel m : kAllModels) {
      for (const Objective obj : {Objective::Period, Objective::Latency}) {
        reqs.push_back({app, m, obj, fastOptions()});
      }
    }
  }
  if (duplicated) {
    const std::size_t unique = reqs.size();
    for (std::size_t i = 0; i < unique; ++i) reqs.push_back(reqs[i]);
  }
  return reqs;
}

/// A tiny application whose key differs per `seed`.
Application tinyKeyedApp(double seed) {
  Application app;
  app.addService(1.0 + seed, 0.5);
  app.addService(2.0, 0.7);
  app.addService(0.5, 1.1);
  return app;
}

PlanRequest tinyKeyedRequest(double seed) {
  return {tinyKeyedApp(seed), CommModel::Overlap, Objective::Period,
          fastOptions()};
}

TEST(PlanEngine, BatchWinnersAreBitIdenticalToSerialOptimizePlan) {
  const auto reqs = mixedWorkload(/*duplicated=*/false);
  PlanEngine engine;
  const auto batch = engine.optimizeBatch(reqs);
  ASSERT_EQ(batch.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    OptimizerOptions serial = reqs[i].options;
    serial.threads = 1;
    const auto r =
        optimizePlan(reqs[i].app, reqs[i].model, reqs[i].objective, serial);
    EXPECT_EQ(batch[i].value, r.value) << "request " << i;
    EXPECT_EQ(batch[i].strategy, r.strategy) << "request " << i;
    EXPECT_EQ(batch[i].surrogate, r.surrogate) << "request " << i;
    EXPECT_EQ(graphSignature(batch[i].plan.graph),
              graphSignature(r.plan.graph))
        << "request " << i;
  }
}

TEST(PlanEngine, ZeroServiceRequestsAreRejectedBeforeAnyWork) {
  PlanEngine engine;
  PlanRequest empty;
  empty.options = fastOptions();
  EXPECT_THROW((void)engine.optimize(empty), std::invalid_argument);
  std::vector<PlanRequest> batch = mixedWorkload(/*duplicated=*/false);
  batch.resize(2);
  batch.push_back(empty);
  EXPECT_THROW((void)engine.optimizeBatch(batch), std::invalid_argument);
  EXPECT_EQ(engine.cacheSize(), 0u);  // nothing was scored
  EXPECT_EQ(engine.resultCacheSize(), 0u);
}

/// Finite parameters whose selectivity product overflows: chained, service
/// 2 would cost inf * 0 = NaN, which std::max drops.
PlanRequest overflowingRequest() {
  PlanRequest req;
  req.app.addService(1.0, 1e200);
  req.app.addService(1.0, 1e200);
  req.app.addService(0.0, 0.5);
  req.options = fastOptions();
  return req;
}

TEST(PlanEngine, OverflowingCostsAreRejectedBeforeAnyWork) {
  PlanEngine engine;
  EXPECT_THROW((void)engine.optimize(overflowingRequest()),
               std::invalid_argument);
  std::vector<PlanRequest> batch = mixedWorkload(/*duplicated=*/false);
  batch.resize(2);
  batch.push_back(overflowingRequest());
  EXPECT_THROW((void)engine.optimizeBatch(batch), std::invalid_argument);
  EXPECT_EQ(engine.cacheSize(), 0u);  // nothing was scored
  EXPECT_EQ(engine.resultCacheSize(), 0u);

  // Overflow without a zero factor scores inf and loses: the paper's
  // counter-example B.1 (200 expanders of selectivity 100) stays servable,
  // and so do large but bounded parameters with a zero.
  PlanRequest b1;
  b1.app = counterexampleB1().app;
  EXPECT_NO_THROW(checkRequest(b1));
  PlanRequest big;
  big.app.addService(1e100, 1e50);
  big.app.addService(0.0, 0.5);
  big.options = fastOptions();
  EXPECT_NO_THROW(checkRequest(big));
}

TEST(PlanEngine, ExactForestCapOverridesTheRequestKnob) {
  // A client asking for exhaustive search over 10 services (10^10 parent
  // functions) gets the portfolio without exact-forest.
  Prng rng(616);
  WorkloadSpec spec;
  spec.n = 10;
  PlanRequest req{randomApplication(spec, rng), CommModel::Overlap,
                  Objective::Period, fastOptions()};
  req.options.exactForestMaxN = 64;
  PlanEngine engine;
  const OptimizedPlan capped = engine.optimize(req);
  req.options.exactForestMaxN = 0;
  const OptimizedPlan without = engine.optimize(req);
  EXPECT_EQ(capped.stats.sourcesRun, without.stats.sourcesRun);
  EXPECT_EQ(capped.value, without.value);

  const CandidateSource* exact =
      CandidateRegistry::builtin().find("exact-forest");
  ASSERT_NE(exact, nullptr);
  for (const std::size_t n : {kExactForestMaxN, kExactForestMaxN + 1}) {
    spec.n = n;
    const Application app = randomApplication(spec, rng);
    const CandidateContext ctx{app, CommModel::Overlap, Objective::Period,
                               /*exactForestMaxN=*/64, HeuristicOptions{}};
    EXPECT_EQ(exact->applicable(ctx), n <= kExactForestMaxN) << "n=" << n;
  }
}

TEST(PlanEngine, DuplicateBatchMembersReportCrossRequestHits) {
  const auto reqs = mixedWorkload(/*duplicated=*/true);
  const std::size_t unique = reqs.size() / 2;
  PlanEngine engine;
  const auto batch = engine.optimizeBatch(reqs);

  std::size_t crossHits = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    crossHits += batch[i].stats.crossRequestHits;
    // Every duplicate must be byte-for-byte the first occurrence's plan.
    if (i >= unique) {
      EXPECT_EQ(batch[i].value, batch[i - unique].value);
      EXPECT_EQ(batch[i].strategy, batch[i - unique].strategy);
      EXPECT_EQ(graphSignature(batch[i].plan.graph),
                graphSignature(batch[i - unique].plan.graph));
      EXPECT_EQ(batch[i].stats.crossRequestHits, 1u);
    } else {
      EXPECT_EQ(batch[i].stats.crossRequestHits, 0u);
    }
  }
  EXPECT_EQ(crossHits, unique);
}

TEST(PlanEngine, RepeatedTrafficHitsTheSharedScoreCache) {
  Prng rng(88);
  WorkloadSpec spec;
  spec.n = 6;
  const auto app = randomApplication(spec, rng);
  // Full-result caching off: this test exercises the score-cache path,
  // which a wholesale result-cache hit would short-circuit.
  PlanEngine engine{EngineConfig{.cacheFullResults = false}};
  const PlanRequest req{app, CommModel::Overlap, Objective::Period,
                        fastOptions()};

  const auto first = engine.optimize(req);
  EXPECT_EQ(first.stats.sharedHits, 0u);  // cold cache
  EXPECT_GT(engine.cacheSize(), 0u);

  const auto second = engine.optimize(req);
  EXPECT_GT(second.stats.sharedHits, 0u);  // same signatures, warm cache
  EXPECT_EQ(second.stats.sharedHits, second.stats.unique);
  EXPECT_GE(second.stats.scoreCacheHits, second.stats.sharedHits);
  // Warm-cache winners must not drift: the cache memoizes pure functions.
  EXPECT_EQ(first.value, second.value);
  EXPECT_EQ(first.strategy, second.strategy);
}

TEST(PlanEngine, ConcurrentHammeringMatchesSerialResults) {
  const auto reqs = mixedWorkload(/*duplicated=*/false);

  // Serial reference, computed on a fresh serial engine.
  std::vector<OptimizedPlan> expected;
  PlanEngine serialEngine{EngineConfig{.threads = 1}};
  for (const auto& r : reqs) {
    OptimizerOptions serial = r.options;
    serial.threads = 1;
    expected.push_back(serialEngine.optimize(r.app, r.model, r.objective,
                                             serial));
  }

  // Hammer one engine from N threads with interleaved mixed traffic.
  PlanEngine engine;
  const std::size_t kThreads = 4;
  std::vector<std::vector<OptimizedPlan>> got(kThreads);
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        auto& mine = got[t];
        for (std::size_t i = 0; i < reqs.size(); ++i) {
          // Each thread walks the request set from a different offset.
          const auto& r = reqs[(i + t * 5) % reqs.size()];
          mine.push_back(engine.optimize(r));
        }
      } catch (...) {
        failed = true;
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_FALSE(failed);

  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const std::size_t j = (i + t * 5) % reqs.size();
      EXPECT_EQ(got[t][i].value, expected[j].value)
          << "thread " << t << " request " << j;
      EXPECT_EQ(got[t][i].strategy, expected[j].strategy)
          << "thread " << t << " request " << j;
      EXPECT_EQ(graphSignature(got[t][i].plan.graph),
                graphSignature(expected[j].plan.graph))
          << "thread " << t << " request " << j;
    }
  }
}

TEST(PlanEngine, CacheSaveLoadRoundTripWarmsAFreshEngine) {
  const auto reqs = mixedWorkload(/*duplicated=*/false);
  PlanEngine engine;
  const auto batch = engine.optimizeBatch(reqs);
  ASSERT_GT(engine.cacheSize(), 0u);

  std::stringstream dump;
  engine.saveCache(dump);

  PlanEngine fresh;
  fresh.loadCache(dump);
  EXPECT_EQ(fresh.cacheSize(), engine.cacheSize());

  // The warmed engine serves every score from the loaded dump and returns
  // identical winners (cross-run memoization).
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto r = fresh.optimize(reqs[i]);
    EXPECT_EQ(r.stats.sharedHits, r.stats.unique) << "request " << i;
    EXPECT_EQ(r.value, batch[i].value) << "request " << i;
    EXPECT_EQ(r.strategy, batch[i].strategy) << "request " << i;
  }
}

/// Sums the per-request work counters that must be batch-invariant.
EngineStats sumStats(const std::vector<OptimizedPlan>& batch) {
  EngineStats sum;
  for (const auto& r : batch) {
    sum.sourcesRun += r.stats.sourcesRun;
    sum.generated += r.stats.generated;
    sum.unique += r.stats.unique;
    sum.duplicates += r.stats.duplicates;
    sum.scoreCacheHits += r.stats.scoreCacheHits;
    sum.orchestrated += r.stats.orchestrated;
    sum.sharedHits += r.stats.sharedHits;
    sum.evictions += r.stats.evictions;
    sum.seedBoundAborts += r.stats.seedBoundAborts;
    sum.repairBoundAborts += r.stats.repairBoundAborts;
    sum.crossRequestHits += r.stats.crossRequestHits;
    sum.resultCacheHits += r.stats.resultCacheHits;
  }
  return sum;
}

TEST(PlanEngine, BatchStatsCountEachRepresentativeSolveExactlyOnce) {
  // Two fresh serial engines (serial: per-request stats are exactly
  // deterministic): a batch where every request has an identical twin must
  // report, summed, exactly the work of the duplicate-free batch — the
  // crossRequestHits copies carry empty work stats.
  const auto dup = mixedWorkload(/*duplicated=*/true);
  const auto uni = mixedWorkload(/*duplicated=*/false);
  PlanEngine engineDup{EngineConfig{.threads = 1}};
  PlanEngine engineUni{EngineConfig{.threads = 1}};
  const auto batchDup = engineDup.optimizeBatch(dup);
  const auto batchUni = engineUni.optimizeBatch(uni);

  for (std::size_t i = uni.size(); i < dup.size(); ++i) {
    const EngineStats& s = batchDup[i].stats;
    EXPECT_EQ(s.crossRequestHits, 1u) << "duplicate " << i;
    EXPECT_EQ(s.sourcesRun + s.generated + s.unique + s.duplicates +
                  s.scoreCacheHits + s.orchestrated + s.sharedHits +
                  s.evictions + s.seedBoundAborts + s.repairBoundAborts +
                  s.resultCacheHits,
              0u)
        << "duplicate " << i << " carries work stats";
  }

  const EngineStats sumDup = sumStats(batchDup);
  const EngineStats sumUni = sumStats(batchUni);
  EXPECT_EQ(sumDup.sourcesRun, sumUni.sourcesRun);
  EXPECT_EQ(sumDup.generated, sumUni.generated);
  EXPECT_EQ(sumDup.unique, sumUni.unique);
  EXPECT_EQ(sumDup.duplicates, sumUni.duplicates);
  EXPECT_EQ(sumDup.scoreCacheHits, sumUni.scoreCacheHits);
  EXPECT_EQ(sumDup.orchestrated, sumUni.orchestrated);
  EXPECT_EQ(sumDup.sharedHits, sumUni.sharedHits);
  EXPECT_EQ(sumDup.evictions, sumUni.evictions);
  EXPECT_EQ(sumDup.seedBoundAborts, sumUni.seedBoundAborts);
  EXPECT_EQ(sumDup.repairBoundAborts, sumUni.repairBoundAborts);
  EXPECT_EQ(sumDup.resultCacheHits, sumUni.resultCacheHits);
  // The only difference: one cross-request marker per duplicate member.
  EXPECT_EQ(sumDup.crossRequestHits, dup.size() - uni.size());
  EXPECT_EQ(sumUni.crossRequestHits, 0u);
}

TEST(PlanEngine, FullResultCacheServesRepeatsWithZeroNewOrchestrations) {
  const auto reqs = mixedWorkload(/*duplicated=*/false);
  PlanEngine engine;
  const auto first = engine.optimizeBatch(reqs);
  EXPECT_EQ(engine.resultCacheSize(), reqs.size());

  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto r = engine.optimize(reqs[i]);
    EXPECT_EQ(r.stats.resultCacheHits, 1u) << "request " << i;
    EXPECT_EQ(r.stats.orchestrated, 0u) << "request " << i;
    EXPECT_EQ(r.stats.generated, 0u) << "request " << i;
    EXPECT_EQ(r.value, first[i].value) << "request " << i;
    EXPECT_EQ(r.strategy, first[i].strategy) << "request " << i;
    EXPECT_EQ(graphSignature(r.plan.graph),
              graphSignature(first[i].plan.graph))
        << "request " << i;
  }
}

TEST(PlanEngine, ResultDumpRoundTripWarmStartsWithZeroOrchestrations) {
  const auto reqs = mixedWorkload(/*duplicated=*/false);
  PlanEngine engine;
  const auto batch = engine.optimizeBatch(reqs);
  ASSERT_GT(engine.resultCacheSize(), 0u);

  std::stringstream dump;
  engine.saveResults(dump);

  PlanEngine fresh;
  fresh.loadResults(dump);
  EXPECT_EQ(fresh.resultCacheSize(), engine.resultCacheSize());

  // The warm-started engine serves every repeated request wholesale: no
  // orchestrations, no candidate generation, not even surrogate scoring.
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto r = fresh.optimize(reqs[i]);
    EXPECT_EQ(r.stats.resultCacheHits, 1u) << "request " << i;
    EXPECT_EQ(r.stats.orchestrated, 0u) << "request " << i;
    EXPECT_EQ(r.stats.generated, 0u) << "request " << i;
    EXPECT_EQ(r.stats.sharedHits, 0u) << "request " << i;
    EXPECT_EQ(r.value, batch[i].value) << "request " << i;
    EXPECT_EQ(r.strategy, batch[i].strategy) << "request " << i;
    EXPECT_EQ(graphSignature(r.plan.graph),
              graphSignature(batch[i].plan.graph))
        << "request " << i;
  }
}

TEST(PlanEngine, ResultDumpBudgetKeepsTheMostRecentWinners) {
  const auto reqs = mixedWorkload(/*duplicated=*/false);
  PlanEngine engine{EngineConfig{.threads = 1}};
  (void)engine.optimizeBatch(reqs);
  ASSERT_EQ(engine.resultCacheSize(), reqs.size());

  std::stringstream dump;
  const std::size_t budget = 5;
  engine.saveResults(dump, budget);

  PlanEngine fresh;
  fresh.loadResults(dump);
  EXPECT_EQ(fresh.resultCacheSize(), budget);
  // The batch inserted winners in request order, so the budget keeps the
  // tail: the last request hits, the first must be re-solved.
  EXPECT_EQ(fresh.optimize(reqs.back()).stats.resultCacheHits, 1u);
  EXPECT_EQ(fresh.optimize(reqs.front()).stats.resultCacheHits, 0u);
}

TEST(Serialization, CacheHeadersRejectWrongMagicAndVersion) {
  PlanEngine engine;
  (void)engine.optimize(tinyKeyedApp(1.0), CommModel::Overlap,
                        Objective::Period, fastOptions());

  // Score cache: the dump opens with the binary block header (magic byte,
  // kind, current version) — the v3 artifact format.
  std::stringstream score;
  engine.saveCache(score);
  const std::string scoreDump = score.str();
  ASSERT_GE(scoreDump.size(), 3u);
  EXPECT_EQ(static_cast<unsigned char>(scoreDump[0]), binio::kMagicByte);
  EXPECT_EQ(scoreDump[1], kBinScoreCacheKind);
  EXPECT_EQ(static_cast<unsigned char>(scoreDump[2]), kBinScoreCacheVersion);

  PlanEngine sink;
  // A tampered binary version is rejected, not misparsed.
  std::string tamperedScore = scoreDump;
  tamperedScore[2] = 99;
  std::stringstream badBinScore(tamperedScore);
  EXPECT_THROW(sink.loadCache(badBinScore), std::runtime_error);
  // Text dumps (the retired dialect, headered or not) fail the block
  // magic check instead of misparsing.
  std::stringstream text("fswscorecache 2\ncandidatecache 0\n");
  EXPECT_THROW(sink.loadCache(text), std::runtime_error);
  std::stringstream headerless("candidatecache 1\nentry k 1.5\n");
  EXPECT_THROW(sink.loadCache(headerless), std::runtime_error);

  // Result cache: same contract.
  std::stringstream results;
  engine.saveResults(results);
  const std::string resultDump = results.str();
  ASSERT_GE(resultDump.size(), 3u);
  EXPECT_EQ(static_cast<unsigned char>(resultDump[0]), binio::kMagicByte);
  EXPECT_EQ(resultDump[1], kBinResultCacheKind);
  EXPECT_EQ(static_cast<unsigned char>(resultDump[2]), kBinResultCacheVersion);

  std::string tamperedResults = resultDump;
  tamperedResults[2] = 99;
  std::stringstream badBinResults(tamperedResults);
  EXPECT_THROW(sink.loadResults(badBinResults), std::runtime_error);
  std::stringstream badResults("fswresultcache 1\nresults 0\n");
  EXPECT_THROW(sink.loadResults(badResults), std::runtime_error);
  std::stringstream badMagic("bogus 1\nresults 0\n");
  EXPECT_THROW(sink.loadResults(badMagic), std::runtime_error);
}

namespace portablekeys {

/// A user-defined source, "registered in two processes" by building two
/// independent registry objects.
class EchoSource final : public CandidateSource {
 public:
  [[nodiscard]] std::string_view name() const override { return "echo"; }
  [[nodiscard]] std::vector<ExecutionGraph> generate(
      const CandidateContext& ctx) const override {
    std::vector<ExecutionGraph> out;
    out.push_back(ExecutionGraph(ctx.app.size()));
    return out;
  }
};

/// A second source, to extend a portfolio's source list.
class EchoSource2 final : public CandidateSource {
 public:
  [[nodiscard]] std::string_view name() const override { return "echo2"; }
  [[nodiscard]] std::vector<ExecutionGraph> generate(
      const CandidateContext& ctx) const override {
    std::vector<ExecutionGraph> out;
    out.push_back(ExecutionGraph(ctx.app.size()));
    return out;
  }
};

}  // namespace portablekeys

TEST(PlanEngine, RequestKeyIsPortableAcrossNamedPortfolios) {
  const auto makePortfolio = [] {
    // Simulates one process's registration sequence.
    CandidateRegistry reg = CandidateRegistry::makeBuiltin();
    reg.setName("prod-portfolio");
    reg.add(std::make_unique<portablekeys::EchoSource>());
    return reg;
  };
  const CandidateRegistry procA = makePortfolio();
  const CandidateRegistry procB = makePortfolio();
  ASSERT_NE(&procA, &procB);

  PlanRequest reqA = tinyKeyedRequest(1.0);
  reqA.options.registry = &procA;
  PlanRequest reqB = tinyKeyedRequest(1.0);
  reqB.options.registry = &procB;
  // Identical across "processes": the key covers the portfolio's name and
  // source list, never its address.
  EXPECT_EQ(PlanEngine::requestKey(reqA), PlanEngine::requestKey(reqB));

  // A different name, or a different source list, is a different key.
  CandidateRegistry renamed = makePortfolio();
  renamed.setName("canary-portfolio");
  PlanRequest reqRenamed = tinyKeyedRequest(1.0);
  reqRenamed.options.registry = &renamed;
  EXPECT_NE(PlanEngine::requestKey(reqA), PlanEngine::requestKey(reqRenamed));

  CandidateRegistry extended = makePortfolio();
  extended.add(std::make_unique<portablekeys::EchoSource2>());
  PlanRequest reqExtended = tinyKeyedRequest(1.0);
  reqExtended.options.registry = &extended;
  EXPECT_NE(PlanEngine::requestKey(reqA),
            PlanEngine::requestKey(reqExtended));

  // Explicitly passing the built-in (or an indistinguishable copy of it)
  // canonicalizes to the default-registry key.
  PlanRequest reqDefault = tinyKeyedRequest(1.0);
  PlanRequest reqBuiltin = tinyKeyedRequest(1.0);
  reqBuiltin.options.registry = &CandidateRegistry::builtin();
  const CandidateRegistry builtinCopy = CandidateRegistry::makeBuiltin();
  PlanRequest reqCopy = tinyKeyedRequest(1.0);
  reqCopy.options.registry = &builtinCopy;
  EXPECT_EQ(PlanEngine::requestKey(reqDefault),
            PlanEngine::requestKey(reqBuiltin));
  EXPECT_EQ(PlanEngine::requestKey(reqDefault),
            PlanEngine::requestKey(reqCopy));

  // Unnamed registries stay process-local: pointer identity keeps two
  // anonymous portfolios distinct even with identical source lists, so
  // naming is the explicit opt-in to a shared cross-process key space.
  EXPECT_TRUE(CandidateRegistry().name().empty());
  CandidateRegistry anonA;
  anonA.add(std::make_unique<portablekeys::EchoSource>());
  CandidateRegistry anonB;
  anonB.add(std::make_unique<portablekeys::EchoSource>());
  PlanRequest reqAnonA = tinyKeyedRequest(1.0);
  reqAnonA.options.registry = &anonA;
  PlanRequest reqAnonB = tinyKeyedRequest(1.0);
  reqAnonB.options.registry = &anonB;
  EXPECT_NE(PlanEngine::requestKey(reqAnonA),
            PlanEngine::requestKey(reqAnonB));
  EXPECT_EQ(PlanEngine::requestKey(reqAnonA),
            PlanEngine::requestKey(reqAnonA));

  // The fingerprint itself is the documented name[sources] shape.
  EXPECT_EQ(portfolioFingerprint(CandidateRegistry::builtin()),
            "builtin[chain-greedy,no-comm-baseline,greedy-forest,"
            "hill-climb,anneal,exact-forest]");

  // Portfolio and source names are file-format tokens and fingerprint
  // fields: no whitespace, no delimiters ("a,b" must not fingerprint like
  // the two sources "a" and "b").
  CandidateRegistry bad;
  EXPECT_THROW(bad.setName("has space"), std::invalid_argument);
  EXPECT_THROW(bad.setName(""), std::invalid_argument);
  EXPECT_THROW(bad.setName("a,b"), std::invalid_argument);
  EXPECT_THROW(bad.setName("a[b]"), std::invalid_argument);
}

TEST(PlanEngine, UnnamedPortfoliosBypassTheFullResultCache) {
  // An unnamed registry's key is its pointer, which is only stable for
  // the duration of the call — caching the result could serve a dead
  // registry's winner to whatever next reuses the address. Such requests
  // must re-solve; naming the portfolio opts back in.
  PlanEngine engine{EngineConfig{.threads = 1}};
  CandidateRegistry anon;
  anon.add(std::make_unique<portablekeys::EchoSource>());
  PlanRequest req = tinyKeyedRequest(1.0);
  req.options.registry = &anon;

  const auto first = engine.optimize(req);
  EXPECT_EQ(engine.resultCacheSize(), 0u);
  const auto second = engine.optimize(req);
  EXPECT_EQ(second.stats.resultCacheHits, 0u);
  EXPECT_GT(second.stats.orchestrated, 0u);
  EXPECT_EQ(second.value, first.value);

  anon.setName("now-named");
  const auto third = engine.optimize(req);
  EXPECT_EQ(third.stats.resultCacheHits, 0u);  // first solve under the name
  EXPECT_EQ(engine.resultCacheSize(), 1u);
  const auto fourth = engine.optimize(req);
  EXPECT_EQ(fourth.stats.resultCacheHits, 1u);
  EXPECT_EQ(fourth.value, first.value);
}

TEST(PlanEngine, EngineLevelRegistryOverrideBypassesTheFullResultCache) {
  // An EngineConfig::registry override changes the effective portfolio of
  // default requests, but requestKey only covers per-request state — so
  // caching under that key would misattribute the winner to the built-in
  // portfolio. Such requests must re-solve; a request-level *named*
  // portfolio on the same engine caches normally.
  CandidateRegistry portfolio("override-portfolio");
  portfolio.add(std::make_unique<portablekeys::EchoSource>());
  PlanEngine engine{EngineConfig{.threads = 1, .registry = &portfolio}};

  const PlanRequest req = tinyKeyedRequest(1.0);  // default-registry key
  const auto first = engine.optimize(req);
  EXPECT_EQ(first.stats.sourcesRun, 1u);  // the override portfolio solved it
  EXPECT_EQ(engine.resultCacheSize(), 0u);
  const auto second = engine.optimize(req);
  EXPECT_EQ(second.stats.resultCacheHits, 0u);
  EXPECT_EQ(second.value, first.value);

  PlanRequest explicitReq = tinyKeyedRequest(2.0);
  explicitReq.options.registry = &portfolio;
  (void)engine.optimize(explicitReq);
  EXPECT_EQ(engine.resultCacheSize(), 1u);
  EXPECT_EQ(engine.optimize(explicitReq).stats.resultCacheHits, 1u);
}

TEST(PlanEngine, EngineOverrideRequestsDoNotDedupWithExplicitBuiltin) {
  // Same app, same static requestKey shape — but one request is solved by
  // the engine-level override portfolio and the other explicitly asks for
  // the built-in. The engine-aware dedup key must keep them apart, or the
  // builtin request would be served the override portfolio's winner.
  CandidateRegistry portfolio("override-portfolio");
  portfolio.add(std::make_unique<portablekeys::EchoSource>());
  PlanEngine engine{EngineConfig{.threads = 1, .registry = &portfolio}};

  PlanRequest viaOverride = tinyKeyedRequest(3.0);
  PlanRequest viaBuiltin = tinyKeyedRequest(3.0);
  viaBuiltin.options.registry = &CandidateRegistry::builtin();
  EXPECT_NE(engine.dedupKey(viaOverride), engine.dedupKey(viaBuiltin));

  const std::vector<PlanRequest> batch = {viaOverride, viaBuiltin};
  const auto out = engine.optimizeBatch(batch);
  EXPECT_EQ(out[1].stats.crossRequestHits, 0u);  // two distinct solves
  EXPECT_EQ(out[0].stats.sourcesRun, 1u);  // the echo-only override
  EXPECT_EQ(out[1].stats.sourcesRun, CandidateRegistry::builtin().size());
}

TEST(PlanEngine, RequestKeySeparatesEveryDimension) {
  Prng rng(7);
  WorkloadSpec spec;
  spec.n = 5;
  const auto app = randomApplication(spec, rng);
  const auto app2 = randomApplication(spec, rng);
  const PlanRequest base{app, CommModel::Overlap, Objective::Period,
                         fastOptions()};
  PlanRequest other = base;
  EXPECT_EQ(PlanEngine::requestKey(base), PlanEngine::requestKey(other));
  other.model = CommModel::InOrder;
  EXPECT_NE(PlanEngine::requestKey(base), PlanEngine::requestKey(other));
  other = base;
  other.objective = Objective::Latency;
  EXPECT_NE(PlanEngine::requestKey(base), PlanEngine::requestKey(other));
  other = base;
  other.app = app2;
  EXPECT_NE(PlanEngine::requestKey(base), PlanEngine::requestKey(other));
  other = base;
  other.options.heuristics.seed += 1;
  EXPECT_NE(PlanEngine::requestKey(base), PlanEngine::requestKey(other));
}

TEST(CandidateCacheLru, EvictionIsBoundedAndDeterministic) {
  CandidateCache cache(2);
  EXPECT_EQ(cache.insert("k1", 1.0), 0u);
  EXPECT_EQ(cache.insert("k2", 2.0), 0u);
  EXPECT_EQ(cache.lookup("k1"), 1.0);  // touch: k2 is now least recent
  EXPECT_EQ(cache.insert("k3", 3.0), 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.lookup("k2"), std::nullopt);  // the LRU entry was evicted
  EXPECT_EQ(cache.lookup("k1"), 1.0);
  EXPECT_EQ(cache.lookup("k3"), 3.0);
  EXPECT_EQ(cache.stats().evictions, 1u);

  const auto entries = cache.snapshot();  // LRU first
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, "k1");
  EXPECT_EQ(entries[1].first, "k3");
}

TEST(CandidateCacheLru, SerializeRoundTripPreservesEntriesAndOrder) {
  CandidateCache cache;
  (void)cache.insert("a#overlap#period#n2|0>1", 1.25);
  (void)cache.insert("a#overlap#period#n2", 2.5);
  std::stringstream ss;
  writeCandidateCache(ss, cache);
  CandidateCache loaded;
  readCandidateCache(ss, loaded);
  EXPECT_EQ(loaded.snapshot(), cache.snapshot());

  std::stringstream bad("candidatecache 1\nbogus k 1\n");
  CandidateCache sink;
  EXPECT_THROW(readCandidateCache(bad, sink), std::runtime_error);
}

TEST(BoundedSolves, IncumbentAbortsDominatedOrderSolves) {
  Prng rng(31);
  WorkloadSpec spec;
  spec.n = 5;
  const auto app = randomApplication(spec, rng);
  const auto g = randomLayeredDag(app, 2, 2, rng);
  const auto po = PortOrders::canonical(g);

  const auto unbounded = inorderPeriodForOrders(app, g, po);
  ASSERT_TRUE(unbounded.has_value());

  std::atomic<std::size_t> aborts{0};
  // A bound below the achievable period makes the solve abort and count.
  const auto pruned = inorderPeriodForOrders(app, g, po,
                                             unbounded->value * 0.5, &aborts);
  EXPECT_FALSE(pruned.has_value());
  EXPECT_EQ(aborts.load(), 1u);

  // A bound at the achieved value keeps the solve and its exact result.
  const auto kept =
      inorderPeriodForOrders(app, g, po, unbounded->value, &aborts);
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->value, unbounded->value);
  EXPECT_EQ(aborts.load(), 1u);
}

TEST(BoundedSolves, BoundedOrderSearchKeepsTheUnboundedWinner) {
  Prng rng(32);
  WorkloadSpec spec;
  spec.n = 5;
  const auto app = randomApplication(spec, rng);
  const auto g = randomLayeredDag(app, 2, 2, rng);

  OrchestrationOptions opt;
  opt.exactCap = 150;
  const auto free = inorderOrchestratePeriod(app, g, opt);

  std::atomic<std::size_t> aborts{0};
  OrchestrationOptions bounded = opt;
  bounded.upperBound = free.value;
  bounded.boundAborts = &aborts;
  const auto r = inorderOrchestratePeriod(app, g, bounded);
  // The optimum meets the bound exactly, so it survives pruning bit-for-bit
  // while strictly dominated orders abort.
  EXPECT_EQ(r.value, free.value);
  EXPECT_EQ(r.orders, free.orders);
}

TEST(BoundedSolves, EngineThreadsIncumbentIntoLaterOrchestrations) {
  // An INORDER period request on a mid-size app orchestrates top-3
  // candidates; ranks 1..2 run under rank 0's achieved value, so some
  // difference-constraint solves must abort — and the winner must match
  // the serial reference exactly (the adapter uses the same engine path).
  Prng rng(33);
  WorkloadSpec spec;
  spec.n = 7;
  const auto app = randomApplication(spec, rng);
  OptimizerOptions opt = fastOptions();
  opt.threads = 1;
  PlanEngine engine{EngineConfig{.threads = 1}};
  const auto r = engine.optimize(app, CommModel::InOrder, Objective::Period,
                                 opt);
  EXPECT_GT(r.stats.orchestrated, 1u);
  const auto ref = optimizePlan(app, CommModel::InOrder, Objective::Period,
                                opt);
  EXPECT_EQ(r.value, ref.value);
  EXPECT_EQ(r.strategy, ref.strategy);
  EXPECT_TRUE(std::isfinite(r.value));
}

}  // namespace
}  // namespace fsw
