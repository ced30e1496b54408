// The wire codec and cache artifacts: byte-exact round trips for
// PlanRequest, OptimizedPlan, the store verbs and the cache dumps,
// portfolio-name portability rules, non-finite doubles, and the rejection
// discipline — text payloads, wrong kinds, retired versions, truncated or
// malformed blocks are clean errors, never misparses.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "src/io/binio.hpp"
#include "src/io/serialize.hpp"
#include "src/serve/plan_engine.hpp"
#include "src/serve/result_cache.hpp"
#include "src/workload/generator.hpp"

namespace fsw {
namespace {

Application sampleApp() {
  Application app;
  app.addService(2.0, 0.5, "decode");
  app.addService(1.0 / 3.0, 1.25, "detect");  // a non-terminating decimal
  app.addService(1.5, 1.0, "caption");
  app.addPrecedence(0, 1);
  return app;
}

/// A request with every value-affecting knob off its default.
PlanRequest sampleRequest() {
  PlanRequest req;
  req.app = sampleApp();
  req.model = CommModel::InOrder;
  req.objective = Objective::Latency;
  req.options.exactForestMaxN = 4;
  req.options.orchestrateTop = 2;
  req.options.heuristics.restarts = 3;
  req.options.heuristics.iterations = 123;
  req.options.heuristics.initialTemperature = 0.75;
  req.options.heuristics.seed = 99;
  req.options.orchestrator.order.exactCap = 64;
  req.options.orchestrator.order.localSearchIters = 17;
  req.options.orchestrator.order.localSearchRestarts = 2;
  req.options.orchestrator.order.seed = 5;
  req.options.orchestrator.order.upperBound = 12.5;
  req.options.orchestrator.outorder.repairIters = 33;
  req.options.orchestrator.outorder.restarts = 7;
  req.options.orchestrator.outorder.bisectSteps = 4;
  req.options.orchestrator.outorder.seed = 11;
  req.options.orchestrator.outorder.inorder.exactCap = 128;
  req.options.orchestrator.outorder.inorder.seed = 21;
  return req;
}

/// Re-wraps a block's body under another version byte: the shape a peer
/// speaking a retired version of the same codec would send.
std::string withVersion(const std::string& block, std::uint64_t version) {
  std::stringstream ss(block);
  binio::Block b = binio::readBlock(ss, "test");
  return binio::finishBlock(b.kind, version, std::move(b.body));
}

/// Asserts `decode(payload)` throws a std::runtime_error whose message
/// contains `needle`.
template <typename Decode>
void expectRejected(Decode decode, const std::string& payload,
                    const std::string& needle) {
  try {
    (void)decode(payload);
    ADD_FAILURE() << "expected a throw mentioning '" << needle << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

std::string versionNote(std::uint64_t version) {
  return "unsupported binary version " + std::to_string(version);
}

TEST(WireCodec, RequestRoundTripPreservesEveryField) {
  const PlanRequest req = sampleRequest();
  const WirePlanRequest wire =
      decodePlanRequest(encodePlanRequest(req, /*priority=*/7));

  EXPECT_EQ(wire.priority, 7);
  EXPECT_EQ(wire.portfolio, "-");
  EXPECT_EQ(wire.request.model, CommModel::InOrder);
  EXPECT_EQ(wire.request.objective, Objective::Latency);
  const OptimizerOptions& o = wire.request.options;
  EXPECT_EQ(o.exactForestMaxN, 4u);
  EXPECT_EQ(o.orchestrateTop, 2u);
  EXPECT_EQ(o.heuristics.restarts, 3u);
  EXPECT_EQ(o.heuristics.iterations, 123u);
  EXPECT_EQ(o.heuristics.initialTemperature, 0.75);
  EXPECT_EQ(o.heuristics.seed, 99u);
  EXPECT_EQ(o.orchestrator.order.exactCap, 64u);
  EXPECT_EQ(o.orchestrator.order.localSearchIters, 17u);
  EXPECT_EQ(o.orchestrator.order.localSearchRestarts, 2u);
  EXPECT_EQ(o.orchestrator.order.seed, 5u);
  EXPECT_EQ(o.orchestrator.order.upperBound, 12.5);
  EXPECT_EQ(o.orchestrator.outorder.repairIters, 33u);
  EXPECT_EQ(o.orchestrator.outorder.restarts, 7u);
  EXPECT_EQ(o.orchestrator.outorder.bisectSteps, 4u);
  EXPECT_EQ(o.orchestrator.outorder.seed, 11u);
  EXPECT_EQ(o.orchestrator.outorder.inorder.exactCap, 128u);
  EXPECT_EQ(o.orchestrator.outorder.inorder.seed, 21u);
  EXPECT_EQ(o.registry, nullptr);  // portfolio travels by name, not pointer

  // The application itself (including the non-terminating decimal cost)
  // reproduces its exact signature, so both sides compute one requestKey.
  EXPECT_EQ(PlanEngine::requestKey(wire.request), PlanEngine::requestKey(req));
}

TEST(WireCodec, DefaultOptionsCarryInfinityUpperBoundCleanly) {
  // The default OrchestrationOptions::upperBound is infinity; the
  // default-constructed request must round trip losslessly.
  PlanRequest req;
  req.app = sampleApp();
  const WirePlanRequest wire = decodePlanRequest(encodePlanRequest(req));
  EXPECT_TRUE(std::isinf(wire.request.options.orchestrator.order.upperBound));
  EXPECT_GT(wire.request.options.orchestrator.order.upperBound, 0.0);
}

TEST(BinaryWire, RequestRoundTripIsByteExactAndKeyPreserving) {
  // The sample request, and an application whose doubles have no short
  // decimal form (cost 100/0.9999): both must come back bit-exact.
  PlanRequest awkward;
  awkward.app.addService(100.0 / 0.9999, 0.9999);
  awkward.app.addService(2.5, 0.125, "alpha");
  awkward.app.addPrecedence(0, 1);
  for (const PlanRequest& req : {sampleRequest(), awkward}) {
    const std::string bin = encodePlanRequest(req, 7);
    ASSERT_FALSE(bin.empty());
    EXPECT_EQ(static_cast<unsigned char>(bin[0]), binio::kMagicByte);

    const WirePlanRequest wire = decodePlanRequest(bin);
    EXPECT_EQ(wire.priority, 7);
    EXPECT_EQ(wire.portfolio, "-");
    EXPECT_EQ(wire.request.model, req.model);
    EXPECT_EQ(wire.request.objective, req.objective);
    EXPECT_EQ(PlanEngine::requestKey(wire.request),
              PlanEngine::requestKey(req));
    ASSERT_EQ(wire.request.app.size(), req.app.size());
    for (NodeId i = 0; i < req.app.size(); ++i) {
      EXPECT_EQ(wire.request.app.service(i).cost, req.app.service(i).cost);
      EXPECT_EQ(wire.request.app.service(i).selectivity,
                req.app.service(i).selectivity);
    }
    // decode(encode(x)) re-encodes to the identical byte string
    // (canonical varints make the encoding unique).
    EXPECT_EQ(encodePlanRequest(wire.request, wire.priority), bin);
  }
}

TEST(BinaryWire, NamedPortfolioTravelsUnnamedIsRejected) {
  CandidateRegistry named = CandidateRegistry::makeBuiltin();
  named.setName("prod-portfolio");
  PlanRequest req;
  req.app = sampleApp();
  req.options.registry = &named;

  const WirePlanRequest wire = decodePlanRequest(encodePlanRequest(req, 1));
  EXPECT_EQ(wire.portfolio, "prod-portfolio");
  EXPECT_EQ(wire.request.options.registry, nullptr);

  // Unnamed portfolios are process-local (pointer identity): they must
  // not cross the wire.
  const CandidateRegistry anon;
  req.options.registry = &anon;
  EXPECT_THROW((void)encodePlanRequest(req), std::invalid_argument);
}

TEST(BinaryWire, PlanRoundTripPreservesWinnerAndStatsAndShrinks) {
  PlanEngine engine{EngineConfig{.threads = 1}};
  PlanRequest req;
  req.app = sampleApp();
  OptimizedPlan plan = engine.optimize(req);
  ASSERT_TRUE(std::isfinite(plan.value));
  // Pin counters a solve of this forest may leave at 0 (the tree
  // scheduler answers without a single order-search probe), so every wire
  // position is covered.
  plan.stats.evalProbes = 12345;
  plan.stats.scratchHeapAllocs = 67;
  plan.stats.arenaBytesHighWater = 890123;
  plan.stats.storeBytesSent = 4242;
  plan.stats.storeBytesReceived = 777777;
  plan.stats.seedBoundAborts = 31;
  plan.stats.repairBoundAborts = 9;

  // A second winner whose graph is a random 15-node layered DAG: the
  // adjacency delta coding must reproduce it exactly.
  Prng rng(6);
  WorkloadSpec spec;
  spec.n = 15;
  const Application bigApp = randomApplication(spec, rng);
  OptimizedPlan dag;
  dag.strategy = "layered";
  dag.value = 100.0 / 0.9999;
  dag.plan.graph = randomLayeredDag(bigApp, 4, 3, rng);
  dag.plan.ol = OperationList(15, 7.5);

  for (const OptimizedPlan& in : {plan, dag}) {
    const std::string bin = encodeOptimizedPlan(in);
    ASSERT_EQ(static_cast<unsigned char>(bin[0]), binio::kMagicByte);
    const OptimizedPlan back = decodeOptimizedPlan(bin);

    EXPECT_EQ(back.value, in.value);
    EXPECT_EQ(back.surrogate, in.surrogate);
    EXPECT_EQ(back.strategy, in.strategy);
    EXPECT_EQ(back.plan.graph, in.plan.graph);
    EXPECT_EQ(toString(back.plan.ol), toString(in.plan.ol));
    EXPECT_EQ(back.stats.sourcesRun, in.stats.sourcesRun);
    EXPECT_EQ(back.stats.generated, in.stats.generated);
    EXPECT_EQ(back.stats.unique, in.stats.unique);
    EXPECT_EQ(back.stats.orchestrated, in.stats.orchestrated);
    EXPECT_EQ(back.stats.resultCacheHits, in.stats.resultCacheHits);
    EXPECT_EQ(back.stats.evalProbes, in.stats.evalProbes);
    EXPECT_EQ(back.stats.scratchHeapAllocs, in.stats.scratchHeapAllocs);
    EXPECT_EQ(back.stats.arenaBytesHighWater, in.stats.arenaBytesHighWater);
    EXPECT_EQ(back.stats.storeBytesSent, in.stats.storeBytesSent);
    EXPECT_EQ(back.stats.storeBytesReceived, in.stats.storeBytesReceived);
    EXPECT_EQ(back.stats.seedBoundAborts, in.stats.seedBoundAborts);
    EXPECT_EQ(back.stats.repairBoundAborts, in.stats.repairBoundAborts);

    // Byte-exact re-encode.
    EXPECT_EQ(encodeOptimizedPlan(back), bin);
  }
}

TEST(BinaryWire, DegenerateAndReservedStrategiesRoundTripInBinary) {
  // A solve that found no candidate: infinite value, empty strategy.
  OptimizedPlan plan;
  plan.value = std::numeric_limits<double>::infinity();
  plan.surrogate = std::numeric_limits<double>::infinity();
  const OptimizedPlan back = decodeOptimizedPlan(encodeOptimizedPlan(plan));
  EXPECT_TRUE(std::isinf(back.value));
  EXPECT_TRUE(back.strategy.empty());

  // Length-prefixed strings have no reserved tokens: "-" round-trips.
  OptimizedPlan reserved;
  reserved.strategy = "-";
  const OptimizedPlan rback =
      decodeOptimizedPlan(encodeOptimizedPlan(reserved));
  EXPECT_EQ(rback.strategy, "-");
}

TEST(BinaryWire, BinaryRejectionsAreCleanErrors) {
  const std::string req = encodePlanRequest(sampleRequest(), 2);
  // Truncation anywhere is a clean error (cut 0 = empty payload).
  for (std::size_t cut = 0; cut < req.size(); cut += 3) {
    EXPECT_THROW((void)decodePlanRequest(req.substr(0, cut)),
                 std::runtime_error)
        << "cut at " << cut;
  }
  // Tampered kind and version bytes, and trailing garbage.
  std::string badKind = req;
  badKind[1] = 'Z';
  EXPECT_THROW((void)decodePlanRequest(badKind), std::runtime_error);
  std::string badVersion = req;
  badVersion[2] = 99;
  expectRejected(decodePlanRequest, badVersion, versionNote(99));
  EXPECT_THROW((void)decodePlanRequest(req + "x"), std::runtime_error);
  // An unknown model token inside an otherwise well-formed block.
  {
    binio::Writer w;
    w.i64(0);
    w.str("SIDEWAYS");
    w.str("PERIOD");
    const std::string bad = binio::finishBlock(
        kBinPlanRequestKind, kBinPlanRequestVersion, w.take());
    expectRejected(decodePlanRequest, bad, "unknown model 'SIDEWAYS'");
  }
  // Text payloads (the retired dialect's request and plan formats).
  expectRejected(decodePlanRequest,
                 "fswplanreq 1\nrequest 0 OVERLAP PERIOD -\n",
                 "missing binary block magic byte");
  expectRejected(decodeOptimizedPlan,
                 "fswplanresp 2\nplan 4.5 4.5 greedy-forest\n",
                 "missing binary block magic byte");

  OptimizedPlan plan;
  plan.strategy = "greedy-forest";
  const std::string resp = encodeOptimizedPlan(plan);
  for (std::size_t cut = 1; cut < resp.size(); ++cut) {
    EXPECT_THROW((void)decodeOptimizedPlan(resp.substr(0, cut)),
                 std::runtime_error)
        << "cut at " << cut;
  }
  EXPECT_THROW((void)decodeOptimizedPlan(resp + "x"), std::runtime_error);
  // Retired plan-response versions: v3 (16 stats counters) and v4 (18,
  // with the boundAborts total) are refused, naming the version.
  for (const std::uint64_t v : {3u, 4u}) {
    expectRejected(decodeOptimizedPlan, withVersion(resp, v), versionNote(v));
  }
}

TEST(BinaryWire, StoreVerbsRoundTrip) {
  const StoreGet g = decodeStoreGet(encodeStoreGet("some#key", false));
  EXPECT_EQ(g.key, "some#key");
  EXPECT_FALSE(g.wantPlan);
  EXPECT_FALSE(g.near);
  const StoreGet ng = decodeStoreGet(encodeStoreGet("prefix", true, true));
  EXPECT_EQ(ng.key, "prefix");
  EXPECT_TRUE(ng.wantPlan);
  EXPECT_TRUE(ng.near);

  // PUT and replies carry a real winner byte-exactly.
  PlanEngine engine{EngineConfig{.threads = 1}};
  PlanRequest req;
  req.app = sampleApp();
  const OptimizedPlan plan = engine.optimize(req);
  const StorePut p = decodeStorePut(encodeStorePut("key", plan));
  EXPECT_EQ(p.key, "key");
  EXPECT_EQ(p.plan.value, plan.value);
  EXPECT_EQ(graphSignature(p.plan.plan.graph),
            graphSignature(plan.plan.graph));
  EXPECT_EQ(toString(p.plan.plan.ol), toString(plan.plan.ol));

  const StoreReply hit = decodeStoreReply(encodeStoreReply(&plan, 3.25));
  EXPECT_TRUE(hit.found);
  EXPECT_EQ(hit.bound, 3.25);
  EXPECT_EQ(hit.plan.value, plan.value);
  const StoreReply miss = decodeStoreReply(
      encodeStoreReply(nullptr, std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(miss.found);
  EXPECT_TRUE(std::isinf(miss.bound));

  // STATS carries every counter, each in its own wire position.
  StoreStatsWire s;
  s.entries = 1;
  s.gets = 2;
  s.hits = 3;
  s.boundHits = 4;
  s.puts = 5;
  s.evictions = 6;
  s.bounds = 7;
  s.framesIn = 10;
  s.bytesIn = 1000;
  s.framesOut = 11;
  s.bytesOut = 1100;
  s.accepted = 12;
  s.refusedOverLimit = 13;
  s.idleClosed = 14;
  s.peakWriteQueueBytes = 1500;
  const StoreStatsWire back = decodeStoreStats(encodeStoreStats(s));
  EXPECT_EQ(back.entries, 1u);
  EXPECT_EQ(back.gets, 2u);
  EXPECT_EQ(back.hits, 3u);
  EXPECT_EQ(back.boundHits, 4u);
  EXPECT_EQ(back.puts, 5u);
  EXPECT_EQ(back.evictions, 6u);
  EXPECT_EQ(back.bounds, 7u);
  EXPECT_EQ(back.framesIn, 10u);
  EXPECT_EQ(back.bytesIn, 1000u);
  EXPECT_EQ(back.framesOut, 11u);
  EXPECT_EQ(back.bytesOut, 1100u);
  EXPECT_EQ(back.accepted, 12u);
  EXPECT_EQ(back.refusedOverLimit, 13u);
  EXPECT_EQ(back.idleClosed, 14u);
  EXPECT_EQ(back.peakWriteQueueBytes, 1500u);
}

TEST(BinaryWire, StoreVerbRejectionsAreCleanErrors) {
  // The near flag is the last body byte: any value above 1 is malformed,
  // never silently truthy.
  std::string badFlag = encodeStoreGet("k", true);
  badFlag.back() = 2;
  EXPECT_THROW((void)decodeStoreGet(badFlag), std::runtime_error);

  const std::string reply =
      encodeStoreReply(nullptr, std::numeric_limits<double>::infinity());
  for (std::size_t cut = 1; cut < reply.size(); ++cut) {
    EXPECT_THROW((void)decodeStoreReply(reply.substr(0, cut)),
                 std::runtime_error)
        << "cut at " << cut;
  }
  OptimizedPlan plan;
  plan.strategy = "s";
  const std::string put = encodeStorePut("key", plan);
  for (std::size_t cut = 1; cut < put.size(); cut += 2) {
    EXPECT_THROW((void)decodeStorePut(put.substr(0, cut)),
                 std::runtime_error)
        << "cut at " << cut;
  }

  // Text payloads of the retired dialect.
  const std::string noMagic = "missing binary block magic byte";
  expectRejected(decodeStoreGet, "fswstoreget 1\nget k 1\n", noMagic);
  expectRejected(decodeStorePut, "fswstoreput 1\nput k\n", noMagic);
  expectRejected(decodeStoreReply, "fswstorereply 1\nreply 0 inf\n", noMagic);
  expectRejected(decodeStoreStats,
                 "fswstorestats 1\nstorestats 1 2 3 4 5 6 7\n", noMagic);

  // Retired versions: GET v2 (no near flag), PUT/REPLY v2-v3 (older stats
  // vectors) and STATS v2 (no transport ledger).
  expectRejected(decodeStoreGet, withVersion(encodeStoreGet("k"), 2),
                 versionNote(2));
  const std::string hitReply = encodeStoreReply(&plan, 1.0);
  for (const std::uint64_t v : {2u, 3u}) {
    expectRejected(decodeStorePut, withVersion(put, v), versionNote(v));
    expectRejected(decodeStoreReply, withVersion(hitReply, v), versionNote(v));
  }
  expectRejected(decodeStoreStats, withVersion(encodeStoreStats({}), 2),
                 versionNote(2));
}

// ---- cache artifacts --------------------------------------------------------

TEST(CacheArtifacts, ScoreCacheRoundTrip) {
  CandidateCache cache(0);
  cache.insert("app#sig#a", 1.5);
  cache.insert("app#sig#b", 1.0 / 3.0);
  cache.insert("zzz", -0.0);

  std::stringstream bin;
  writeCandidateCache(bin, cache);
  EXPECT_EQ(static_cast<unsigned char>(bin.str()[0]), binio::kMagicByte);
  CandidateCache binBack(0);
  readCandidateCache(bin, binBack);
  // Loading preserves LRU order, so an immediate re-save is byte-identical.
  std::stringstream bin2;
  writeCandidateCache(bin2, binBack);
  EXPECT_EQ(bin.str(), bin2.str());
  EXPECT_EQ(binBack.size(), 3u);
  EXPECT_EQ(*binBack.lookup("app#sig#b"), 1.0 / 3.0);
  EXPECT_TRUE(std::signbit(*binBack.lookup("zzz")));
}

TEST(CacheArtifacts, ResultCacheSkipsDegenerateEntries) {
  PlanEngine engine{EngineConfig{.threads = 1}};
  PlanRequest req;
  req.app = sampleApp();
  const OptimizedPlan plan = engine.optimize(req);
  ASSERT_TRUE(std::isfinite(plan.value));

  ResultCache cache(0);
  cache.insert("good", plan);
  OptimizedPlan failed;  // a failed solve: +inf value, empty strategy
  failed.value = std::numeric_limits<double>::infinity();
  cache.insert("failed", failed);

  // The degenerate entry never reaches the artifact.
  std::stringstream bin;
  writeResultCache(bin, cache);
  ResultCache binBack(0);
  readResultCache(bin, binBack);
  EXPECT_EQ(binBack.size(), 1u);
  EXPECT_EQ(binBack.lookup("failed"), nullptr);
  const auto entry = binBack.lookup("good");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->value, plan.value);
  EXPECT_EQ(entry->strategy, plan.strategy);
  EXPECT_EQ(graphSignature(entry->plan.graph),
            graphSignature(plan.plan.graph));
  EXPECT_EQ(toString(entry->plan.ol), toString(plan.plan.ol));
}

TEST(CacheArtifacts, MalformedArtifactsNameEntryAndOffset) {
  // Binary score cache whose second entry claims to share more key bytes
  // than its predecessor has: the error names which entry broke and where.
  binio::Writer body;
  body.u64(2);
  body.u64(0);
  body.zstr("k");
  body.f64(1.5);
  body.u64(5);
  std::stringstream badScore(binio::finishBlock(
      kBinScoreCacheKind, kBinScoreCacheVersion, body.take()));
  CandidateCache cache(0);
  try {
    readCandidateCache(badScore, cache);
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("entry 2 of 2"), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
  }

  // A text score cache (the retired dialect) and a retired binary version
  // are refused cleanly.
  std::stringstream text("fswscorecache 2\ncandidatecache 1\nentry k 1.5\n");
  EXPECT_THROW(readCandidateCache(text, cache), std::runtime_error);
  std::stringstream good;
  writeCandidateCache(good, cache);
  std::stringstream old(withVersion(good.str(), 2));
  EXPECT_THROW(readCandidateCache(old, cache), std::runtime_error);

  // Binary result cache truncated inside the body: the block reader
  // reports the truncation cleanly (never an over-read).
  PlanEngine engine{EngineConfig{.threads = 1}};
  PlanRequest req;
  req.app = sampleApp();
  ResultCache full(0);
  full.insert("k", engine.optimize(req));
  std::stringstream bin;
  writeResultCache(bin, full);
  const std::string blob = bin.str();
  for (const std::size_t cut :
       {blob.size() / 4, blob.size() / 2, blob.size() - 1}) {
    std::stringstream truncated(blob.substr(0, cut));
    ResultCache sink(0);
    EXPECT_THROW(readResultCache(truncated, sink), std::runtime_error)
        << "cut at " << cut;
  }
}

TEST(CacheArtifacts, InspectArtifactSummarizesBlocks) {
  CandidateCache cache(0);
  cache.insert("a", 1.0);
  cache.insert("b", 2.0);

  std::stringstream bin;
  writeCandidateCache(bin, cache);
  const ArtifactInfo binInfo = inspectArtifact(bin);
  EXPECT_EQ(binInfo.kind, "score-cache");
  EXPECT_EQ(binInfo.version,
            static_cast<std::uint64_t>(kBinScoreCacheVersion));
  EXPECT_EQ(binInfo.entries, 2u);
  EXPECT_EQ(binInfo.bytes, bin.str().size());

  std::stringstream junk("not an artifact");
  EXPECT_THROW((void)inspectArtifact(junk), std::runtime_error);
  std::stringstream wire(encodeStoreGet("k"));
  EXPECT_THROW((void)inspectArtifact(wire), std::runtime_error);
}

}  // namespace
}  // namespace fsw
