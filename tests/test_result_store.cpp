// The shared remote result store: GET/PUT/STATS round trips over the
// frame protocol, a cold engine behind a second host serving a repeat
// with zero new orchestrations, incumbent bounds forwarded fleet-wide
// (winner-preserving), graceful degradation when the store dies, and the
// frame-level rejection discipline on the store port.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/io/serialize.hpp"
#include "src/opt/optimizer.hpp"
#include "src/serve/plan_engine.hpp"
#include "src/serve/plan_service.hpp"
#include "src/serve/result_store.hpp"

namespace fsw {
namespace {

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

PlanRequest smallRequest(double seed = 2.0) {
  PlanRequest req;
  req.app.addService(seed, 0.5);
  req.app.addService(1.0, 0.8);
  req.app.addService(3.0, 0.4);
  req.options = fastOptions();
  return req;
}

TEST(ResultStore, WireOpsRoundTripByteExact) {
  const PlanRequest req = smallRequest();
  OptimizerOptions serial = req.options;
  serial.threads = 1;
  const OptimizedPlan plan =
      optimizePlan(req.app, req.model, req.objective, serial);
  const std::string key = PlanEngine::requestKey(req);

  const StoreGet decodedGet = decodeStoreGet(encodeStoreGet(key));
  EXPECT_EQ(decodedGet.key, key);
  EXPECT_TRUE(decodedGet.wantPlan);
  EXPECT_FALSE(
      decodeStoreGet(encodeStoreGet(key, /*wantPlan=*/false)).wantPlan);

  const std::string put = encodeStorePut(key, plan);
  const StorePut decodedPut = decodeStorePut(put);
  EXPECT_EQ(decodedPut.key, key);
  EXPECT_EQ(decodedPut.plan.value, plan.value);
  EXPECT_EQ(decodedPut.plan.strategy, plan.strategy);
  EXPECT_EQ(encodeStorePut(decodedPut.key, decodedPut.plan), put);

  // reply(found) re-encodes byte-exact; reply(miss) carries the bound.
  const std::string hit = encodeStoreReply(&plan, plan.value);
  const StoreReply decodedHit = decodeStoreReply(hit);
  ASSERT_TRUE(decodedHit.found);
  EXPECT_EQ(decodedHit.bound, plan.value);
  EXPECT_EQ(decodedHit.plan.surrogate, plan.surrogate);
  EXPECT_EQ(encodeStoreReply(&decodedHit.plan, decodedHit.bound), hit);

  const StoreReply decodedMiss = decodeStoreReply(
      encodeStoreReply(nullptr, std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(decodedMiss.found);
  EXPECT_TRUE(std::isinf(decodedMiss.bound));

  EXPECT_THROW((void)decodeStoreGet("fswstoreget 1\nget k 1\n"),
               std::runtime_error);
}

TEST(ResultStore, GetPutStatsOverTheSocket) {
  ResultStoreHost host{ResultStoreConfig{}};
  ASSERT_GT(host.port(), 0);
  RemoteResultStore store("127.0.0.1", host.port());

  const PlanRequest req = smallRequest();
  const std::string key = PlanEngine::requestKey(req);

  const auto cold = store.get(key);
  EXPECT_EQ(cold.plan, nullptr);
  EXPECT_TRUE(std::isinf(cold.bound));

  OptimizerOptions serial = req.options;
  serial.threads = 1;
  const OptimizedPlan plan =
      optimizePlan(req.app, req.model, req.objective, serial);
  store.put(key, plan);

  const auto warm = store.get(key);
  ASSERT_NE(warm.plan, nullptr);
  EXPECT_EQ(warm.plan->value, plan.value);
  EXPECT_EQ(warm.plan->strategy, plan.strategy);
  EXPECT_EQ(graphSignature(warm.plan->plan.graph),
            graphSignature(plan.plan.graph));
  // The bound IS the key's winner value — the store posted it on PUT.
  EXPECT_EQ(warm.bound, plan.value);

  const StoreStatsWire remote = store.remoteStats();
  EXPECT_EQ(remote.entries, 1u);
  EXPECT_EQ(remote.gets, 2u);
  EXPECT_EQ(remote.hits, 1u);
  EXPECT_EQ(remote.boundHits, 1u);
  EXPECT_EQ(remote.puts, 1u);
  EXPECT_EQ(remote.bounds, 1u);

  const auto cs = store.stats();
  EXPECT_EQ(cs.gets, 2u);
  EXPECT_EQ(cs.hits, 1u);
  EXPECT_EQ(cs.puts, 1u);
  EXPECT_EQ(cs.failures, 0u);

  // One pipelined batch: replies are index-aligned, misses degrade per
  // key, and a bounds-only batch skips the winner payloads while the
  // bound still travels.
  const auto batch = store.getMany({key, "no-such-key"});
  ASSERT_EQ(batch.size(), 2u);
  ASSERT_NE(batch[0].plan, nullptr);
  EXPECT_EQ(batch[0].plan->value, plan.value);
  EXPECT_EQ(batch[1].plan, nullptr);
  EXPECT_TRUE(std::isinf(batch[1].bound));
  const auto boundsOnly = store.getMany({key}, /*wantPlans=*/false);
  EXPECT_EQ(boundsOnly[0].plan, nullptr);
  EXPECT_EQ(boundsOnly[0].bound, plan.value);
}

TEST(ResultStore, ColdEngineServesARepeatWithZeroOrchestrations) {
  ResultStoreHost storeHost{ResultStoreConfig{}};
  const PlanRequest req = smallRequest();

  OptimizerOptions serial = req.options;
  serial.threads = 1;
  const OptimizedPlan ref =
      optimizePlan(req.app, req.model, req.objective, serial);

  // Engine A (behind "host A") solves and publishes to the fleet store.
  RemoteResultStore storeA("127.0.0.1", storeHost.port());
  EngineConfig cfgA;
  cfgA.resultStore = &storeA;
  PlanEngine engineA{cfgA};
  const OptimizedPlan first = engineA.optimize(req);
  EXPECT_GT(first.stats.orchestrated, 0u);
  EXPECT_EQ(first.value, ref.value);
  EXPECT_EQ(first.strategy, ref.strategy);

  // Engine B is COLD — fresh process-equivalent, empty local caches —
  // but shares the fleet store: the repeat is served wholesale, zero new
  // orchestrations, bit-identical.
  RemoteResultStore storeB("127.0.0.1", storeHost.port());
  EngineConfig cfgB;
  cfgB.resultStore = &storeB;
  PlanEngine engineB{cfgB};
  const OptimizedPlan repeat = engineB.optimize(req);
  EXPECT_EQ(repeat.stats.resultCacheHits, 1u);
  EXPECT_EQ(repeat.stats.orchestrated, 0u);
  EXPECT_EQ(repeat.stats.generated, 0u);
  EXPECT_EQ(repeat.value, ref.value);
  EXPECT_EQ(repeat.strategy, ref.strategy);
  EXPECT_EQ(repeat.surrogate, ref.surrogate);
  EXPECT_EQ(graphSignature(repeat.plan.graph), graphSignature(ref.plan.graph));

  // The remote hit warmed B's local store: a second repeat is local (the
  // fleet store sees no new GET).
  const std::size_t getsBefore = storeB.remoteStats().gets;
  const OptimizedPlan local = engineB.optimize(req);
  EXPECT_EQ(local.stats.resultCacheHits, 1u);
  EXPECT_EQ(storeB.remoteStats().gets, getsBefore);
}

TEST(ResultStore, BoundsTravelEvenWithoutFullResultServing) {
  ResultStoreHost storeHost{ResultStoreConfig{}};
  const PlanRequest req = smallRequest(4.0);

  OptimizerOptions serial = req.options;
  serial.threads = 1;
  const OptimizedPlan ref =
      optimizePlan(req.app, req.model, req.objective, serial);

  RemoteResultStore storeA("127.0.0.1", storeHost.port());
  EngineConfig cfgA;
  cfgA.resultStore = &storeA;
  PlanEngine engineA{cfgA};
  (void)engineA.optimize(req);

  // Engine C keeps full-result caching off (it wants fresh solves) but
  // still imports the fleet bound: the re-solve runs — orchestrations
  // happen — under host A's winner value as an abort threshold, and the
  // winner is preserved down to the byte.
  RemoteResultStore storeC("127.0.0.1", storeHost.port());
  EngineConfig cfgC;
  cfgC.resultStore = &storeC;
  cfgC.cacheFullResults = false;
  PlanEngine engineC{cfgC};
  const std::size_t boundHitsBefore = storeC.remoteStats().boundHits;
  const OptimizedPlan resolved = engineC.optimize(req);
  EXPECT_GT(resolved.stats.orchestrated, 0u);  // it really re-solved
  EXPECT_EQ(resolved.stats.resultCacheHits, 0u);
  EXPECT_EQ(resolved.value, ref.value);
  EXPECT_EQ(resolved.strategy, ref.strategy);
  EXPECT_EQ(graphSignature(resolved.plan.graph),
            graphSignature(ref.plan.graph));
  // Its GET carried a finite bound (host A's winner value).
  EXPECT_GT(storeC.remoteStats().boundHits, boundHitsBefore);
}

TEST(ResultStore, StoreDeathDegradesToMissesAndReconnectHeals) {
  auto storeHost = std::make_unique<ResultStoreHost>(ResultStoreConfig{});
  const std::uint16_t port = storeHost->port();
  RemoteResultStore store("127.0.0.1", port);
  EngineConfig cfg;
  cfg.resultStore = &store;
  PlanEngine engine{cfg};

  const PlanRequest first = smallRequest(5.0);
  (void)engine.optimize(first);
  EXPECT_TRUE(store.connected());

  // Kill the store: the engine must keep solving — gets degrade to
  // misses, puts to no-ops, nothing throws, nothing hangs.
  storeHost.reset();
  const PlanRequest second = smallRequest(6.0);
  OptimizerOptions serial = second.options;
  serial.threads = 1;
  const OptimizedPlan ref =
      optimizePlan(second.app, second.model, second.objective, serial);
  const OptimizedPlan degraded = engine.optimize(second);
  EXPECT_EQ(degraded.value, ref.value);
  EXPECT_EQ(degraded.strategy, ref.strategy);
  EXPECT_FALSE(store.connected());
  EXPECT_GT(store.stats().failures, 0u);
  EXPECT_THROW((void)store.remoteStats(), RemotePlanError);

  // A fresh store on the same port: reconnect() heals the session and
  // publishes flow again.
  storeHost = std::make_unique<ResultStoreHost>(
      ResultStoreConfig{.port = port});
  EXPECT_TRUE(store.reconnect());
  EXPECT_TRUE(store.connected());
  const PlanRequest third = smallRequest(7.0);
  (void)engine.optimize(third);
  EXPECT_GE(storeHost->stats().puts, 1u);
}

TEST(ResultStore, PayloadErrorsKeepTheConnectionFrameErrorsDropIt) {
  ResultStoreHost host{ResultStoreConfig{}};

  // A plan-serving frame on the store port, and a GET in the retired text
  // dialect, are payload-level errors: the host answers each with an
  // error frame and the connection keeps serving.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(host.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string bad = encodeFrame(FrameType::Request, "not a store op") +
                          encodeFrame(FrameType::StoreGet,
                                      "fswstoreget 1\nget no-such-key 1\n");
  ASSERT_EQ(::send(fd, bad.data(), bad.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bad.size()));
  const std::string good =
      encodeFrame(FrameType::StoreGet, encodeStoreGet("no-such-key"));
  ASSERT_EQ(::send(fd, good.data(), good.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(good.size()));
  ::shutdown(fd, SHUT_WR);
  std::string replies;
  char buf[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    if (got <= 0) break;
    replies.append(buf, static_cast<std::size_t>(got));
  }
  ::close(fd);
  // Walk the reply frames by their payload lengths.
  std::vector<std::pair<char, std::string>> frames;
  for (std::size_t at = 0; at + 10 <= replies.size();) {
    std::uint32_t len = 0;
    for (std::size_t i = 6; i < 10; ++i) {
      len = (len << 8) | static_cast<std::uint8_t>(replies[at + i]);
    }
    ASSERT_LE(at + 10 + len, replies.size());
    frames.emplace_back(replies[at + 5], replies.substr(at + 10, len));
    at += 10 + len;
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].first, static_cast<char>(FrameType::Error));
  EXPECT_EQ(frames[1].first, static_cast<char>(FrameType::Error));
  EXPECT_NE(frames[1].second.find("missing binary block magic byte"),
            std::string::npos)
      << frames[1].second;
  // The third reply answers the GET on the same connection.
  EXPECT_EQ(frames[2].first, static_cast<char>(FrameType::Result));
  const StoreReply reply = decodeStoreReply(frames[2].second);
  EXPECT_FALSE(reply.found);
  EXPECT_GE(host.stats().errors, 2u);

  // Raw garbage is a frame-level violation: dropped without a reply.
  const int fd2 = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd2, 0);
  ASSERT_EQ(::connect(fd2, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string garbage = "definitely not a frame header...........";
  ASSERT_EQ(::send(fd2, garbage.data(), garbage.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(garbage.size()));
  char drain[64];
  EXPECT_LE(::recv(fd2, drain, sizeof(drain), 0), 0);
  ::close(fd2);
}

TEST(ResultStore, ByteLedgersAgreeAcrossTheStack) {
  ResultStoreHost storeHost{ResultStoreConfig{}};
  const PlanRequest req = smallRequest();

  // Engine A's cold solve probes the store (a miss) and publishes its
  // winner: both legs carry bytes, stamped on the solve's own stats.
  RemoteResultStore storeA("127.0.0.1", storeHost.port());
  EngineConfig cfgA;
  cfgA.resultStore = &storeA;
  PlanEngine engineA{cfgA};
  const OptimizedPlan first = engineA.optimize(req);
  EXPECT_GT(first.stats.storeBytesSent, 0u);
  EXPECT_GT(first.stats.storeBytesReceived, 0u);

  // The per-request stamps ARE the client's whole ledger so far (one GET,
  // one PUT, nothing else has crossed this socket).
  const auto csA = storeA.stats();
  EXPECT_EQ(csA.bytesSent, first.stats.storeBytesSent);
  EXPECT_EQ(csA.bytesReceived, first.stats.storeBytesReceived);

  // A cold engine B is served wholesale: its hit pays a small GET frame
  // out and a winner-carrying reply in (so received dwarfs sent).
  RemoteResultStore storeB("127.0.0.1", storeHost.port());
  EngineConfig cfgB;
  cfgB.resultStore = &storeB;
  PlanEngine engineB{cfgB};
  const OptimizedPlan repeat = engineB.optimize(req);
  EXPECT_EQ(repeat.stats.resultCacheHits, 1u);
  EXPECT_GT(repeat.stats.storeBytesSent, 0u);
  EXPECT_GT(repeat.stats.storeBytesReceived, repeat.stats.storeBytesSent);

  // The host's ledger mirrors both clients' combined traffic exactly.
  const auto csB = storeB.stats();
  const auto hs = storeHost.stats();
  EXPECT_EQ(hs.bytesIn, csA.bytesSent + csB.bytesSent);
  EXPECT_EQ(hs.bytesOut, csA.bytesReceived + csB.bytesReceived);
  EXPECT_GT(hs.framesIn, 0u);
  EXPECT_EQ(hs.framesIn, hs.framesOut);  // every verb is answered

  // The STATS verb reports the same four counters remotely; its own
  // request frame is part of the traffic it measures, so >= host snapshot.
  const StoreStatsWire wire = storeA.remoteStats();
  EXPECT_GT(wire.bytesIn, hs.bytesIn);
  EXPECT_GE(wire.bytesOut, hs.bytesOut);
  EXPECT_GT(wire.framesIn, 0u);

  // The transport ledger (wire v3) travels too: both clients' connections
  // were accepted, nothing was refused or reaped on this quiet host.
  EXPECT_GE(wire.accepted, 2u);
  EXPECT_EQ(wire.refusedOverLimit, 0u);
  EXPECT_EQ(wire.idleClosed, 0u);
}

}  // namespace
}  // namespace fsw
