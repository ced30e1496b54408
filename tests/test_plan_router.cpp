// Multi-host routing: a PlanRouter over 1 and 3 PlanServiceHosts keeps
// winners bit-identical to serial optimizePlan through every routing path
// — including a host killed mid-stream (failover to the next-ranked host)
// and a host restarted and re-admitted — while remote solve errors are
// never retried and routing stays a pure function of the request key (the
// rendezvous ranking: deterministic, spread, minimal remapping).
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/opt/optimizer.hpp"
#include "src/serve/plan_engine.hpp"
#include "src/serve/plan_router.hpp"
#include "src/serve/plan_service.hpp"
#include "src/serve/rendezvous.hpp"
#include "src/workload/generator.hpp"

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

std::vector<PlanRequest> smallWorkload() {
  std::vector<PlanRequest> reqs;
  Prng rng(4242);
  for (const std::size_t n : {4u, 5u}) {
    WorkloadSpec spec;
    spec.n = n;
    const auto app = randomApplication(spec, rng);
    for (const CommModel m : kAllModels) {
      for (const Objective obj : {Objective::Period, Objective::Latency}) {
        reqs.push_back({app, m, obj, fastOptions()});
      }
    }
  }
  return reqs;
}

std::vector<OptimizedPlan> serialReference(
    const std::vector<PlanRequest>& reqs) {
  std::vector<OptimizedPlan> refs;
  refs.reserve(reqs.size());
  for (const auto& r : reqs) {
    OptimizerOptions serial = r.options;
    serial.threads = 1;
    refs.push_back(optimizePlan(r.app, r.model, r.objective, serial));
  }
  return refs;
}

void expectIdentical(const OptimizedPlan& got, const OptimizedPlan& want,
                     const std::string& where) {
  EXPECT_EQ(got.value, want.value) << where;
  EXPECT_EQ(got.strategy, want.strategy) << where;
  EXPECT_EQ(got.surrogate, want.surrogate) << where;
  EXPECT_EQ(graphSignature(got.plan.graph), graphSignature(want.plan.graph))
      << where;
}

struct Fleet {
  std::vector<std::unique_ptr<PlanServiceHost>> hosts;
  RouterConfig router;

  explicit Fleet(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      ServiceHostConfig hc;
      hc.serverConfig.maxBatch = 4;
      hosts.push_back(std::make_unique<PlanServiceHost>(hc));
      router.hosts.push_back(RouterHost{"127.0.0.1", hosts.back()->port()});
    }
  }
};

TEST(PlanRouter, RendezvousRoutingIsDeterministicSpreadAndRemapsMinimally) {
  const auto reqs = smallWorkload();
  std::set<std::size_t> used;
  std::size_t moved = 0;
  for (const auto& r : reqs) {
    const std::string key = PlanEngine::requestKey(r);
    const std::size_t s4 = rendezvousPick(key, 4);
    EXPECT_EQ(rendezvousPick(key, 4), s4);  // deterministic
    EXPECT_LT(s4, 4u);
    used.insert(s4);
    // The failover ranking is a permutation of the slots led by the pick.
    const std::vector<std::size_t> rank = rendezvousRank(key, 4);
    ASSERT_EQ(rank.size(), 4u);
    EXPECT_EQ(rank[0], s4);
    EXPECT_EQ(std::set<std::size_t>(rank.begin(), rank.end()).size(), 4u);
    // Rendezvous property: going 4 -> 5 hosts either keeps a key in place
    // or moves it to the NEW host — never reshuffles between survivors.
    const std::size_t s5 = rendezvousPick(key, 5);
    if (s5 != s4) {
      EXPECT_EQ(s5, 4u) << "key moved between surviving hosts";
      ++moved;
    }
  }
  EXPECT_GT(used.size(), 1u);     // the workload actually spreads
  EXPECT_LT(moved, reqs.size());  // and most keys stay put
  EXPECT_EQ(rendezvousPick("anything", 1), 0u);
}

TEST(PlanRouter, OneHostWinnersMatchSerialAndRepeatsHitTheFarCache) {
  const auto reqs = smallWorkload();
  const auto refs = serialReference(reqs);
  Fleet fleet(1);
  PlanRouter router{fleet.router};

  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const OptimizedPlan plan = router.optimize(reqs[i]);
    expectIdentical(plan, refs[i], "request " + std::to_string(i));
    EXPECT_EQ(plan.stats.resultCacheHits, 0u);
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const OptimizedPlan warm = router.optimize(reqs[i]);
    expectIdentical(warm, refs[i], "warm request " + std::to_string(i));
    EXPECT_EQ(warm.stats.resultCacheHits, 1u);
    EXPECT_EQ(warm.stats.orchestrated, 0u);
  }
  const auto stats = router.stats();
  EXPECT_EQ(stats.submitted, 2 * reqs.size());
  EXPECT_EQ(stats.served, 2 * reqs.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.failovers, 0u);
}

TEST(PlanRouter, ThreeHostsStayBitIdenticalAndRouteByKey) {
  const auto reqs = smallWorkload();
  const auto refs = serialReference(reqs);
  Fleet fleet(3);
  PlanRouter router{fleet.router};

  // Routing is the shared rendezvous function of the canonical key.
  for (const auto& r : reqs) {
    EXPECT_EQ(router.hostOf(r),
              rendezvousPick(PlanEngine::requestKey(r), 3));
  }

  std::vector<std::future<OptimizedPlan>> futures;
  futures.reserve(reqs.size());
  for (const auto& r : reqs) futures.push_back(router.submit(r));
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    expectIdentical(futures[i].get(), refs[i],
                    "request " + std::to_string(i));
  }

  const auto stats = router.stats();
  EXPECT_EQ(stats.served, reqs.size());
  EXPECT_EQ(stats.failovers, 0u);
  ASSERT_EQ(stats.perHost.size(), 3u);
  std::size_t sum = 0;
  std::size_t active = 0;
  for (const auto& host : stats.perHost) {
    sum += host.served;
    active += host.served > 0 ? 1 : 0;
    EXPECT_TRUE(host.up);
  }
  EXPECT_EQ(sum, reqs.size());
  EXPECT_GE(active, 2u);  // the key space spreads across the fleet
}

TEST(PlanRouter, KilledHostFailsOverMidStreamThenReadmitsOnReconnect) {
  const auto reqs = smallWorkload();
  const auto refs = serialReference(reqs);
  Fleet fleet(3);
  PlanRouter router{fleet.router};

  // Pick a victim that actually owns traffic, so its death must be
  // noticed; remember its port to restart a fresh host there later.
  const std::size_t victim = router.hostOf(reqs[0]);
  const std::uint16_t victimPort = fleet.hosts[victim]->port();
  std::size_t victimTraffic = 0;
  for (const auto& r : reqs) {
    victimTraffic += router.hostOf(r) == victim ? 1 : 0;
  }
  ASSERT_GT(victimTraffic, 0u);

  // Wave 1: submit everything, then kill the victim while the wave is in
  // flight. Every future must still deliver the serial winner — requests
  // the victim never answered retry on their next-ranked host.
  std::vector<std::future<OptimizedPlan>> wave1;
  wave1.reserve(reqs.size());
  for (const auto& r : reqs) wave1.push_back(router.submit(r));
  fleet.hosts[victim].reset();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    expectIdentical(wave1[i].get(), refs[i],
                    "wave-1 request " + std::to_string(i));
  }

  // Wave 2: the victim is gone for sure now, so its keys *must* fail over
  // (and the router must mark it down).
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    expectIdentical(router.optimize(reqs[i]), refs[i],
                    "wave-2 request " + std::to_string(i));
  }
  EXPECT_FALSE(router.hostUp(victim));
  const auto down = router.stats();
  EXPECT_GT(down.failovers, 0u);
  EXPECT_EQ(down.failed, 0u);

  // Restart a cold host on the victim's port; reconnect() re-admits it
  // and its keys route home again — still bit-identical (the fresh host
  // re-solves from scratch).
  ServiceHostConfig hc;
  hc.serverConfig.maxBatch = 4;
  hc.port = victimPort;
  fleet.hosts[victim] = std::make_unique<PlanServiceHost>(hc);
  EXPECT_EQ(router.reconnect(), 1u);
  EXPECT_TRUE(router.hostUp(victim));

  const auto beforeServed = router.stats().perHost[victim].served;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    expectIdentical(router.optimize(reqs[i]), refs[i],
                    "wave-3 request " + std::to_string(i));
  }
  EXPECT_GT(router.stats().perHost[victim].served, beforeServed);
}

TEST(PlanRouter, RemoteSolveErrorsAreNotRetried) {
  Fleet fleet(2);
  PlanRouter router{fleet.router};

  PlanRequest req;
  req.app.addService(2.0, 0.5);
  req.app.addService(1.0, 0.8);
  req.options = fastOptions();

  // A portfolio no host registered: the far side answers an error frame —
  // a deterministic answer, not a transport failure, so the router must
  // deliver it without failing over or marking the host down.
  CandidateRegistry unknown = CandidateRegistry::makeBuiltin();
  unknown.setName("nobody-registered-this");
  req.options.registry = &unknown;
  bool threw = false;
  try {
    (void)router.optimize(req);
  } catch (const RemotePlanError& e) {
    threw = true;
    EXPECT_FALSE(e.transport());
  }
  EXPECT_TRUE(threw);
  const auto stats = router.stats();
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_TRUE(router.hostUp(0));
  EXPECT_TRUE(router.hostUp(1));

  // An unnamed portfolio cannot travel: rejected synchronously.
  CandidateRegistry anonymous;
  req.options.registry = &anonymous;
  EXPECT_THROW((void)router.submit(req), std::invalid_argument);
}

TEST(PlanRouter, CloseFailsQueuedWorkAndRejectsNewSubmits) {
  Fleet fleet(1);
  auto router = std::make_unique<PlanRouter>(fleet.router);
  router->close();

  PlanRequest req;
  req.app.addService(1.0, 0.5);
  req.options = fastOptions();
  auto future = router->submit(req);
  bool threw = false;
  try {
    (void)future.get();
  } catch (const RemotePlanError& e) {
    threw = true;
    EXPECT_TRUE(e.transport());
  }
  EXPECT_TRUE(threw);
}

TEST(PlanRouter, PerHostByteLedgersMatchTheHostsOwnCounters) {
  const auto reqs = smallWorkload();
  Fleet fleet(2);
  PlanRouter router{fleet.router};
  for (const auto& req : reqs) (void)router.optimize(req);

  const auto stats = router.stats();
  ASSERT_EQ(stats.perHost.size(), 2u);
  std::size_t sent = 0;
  std::size_t received = 0;
  for (const auto& hs : stats.perHost) {
    sent += hs.bytesSent;
    received += hs.bytesReceived;
  }
  EXPECT_GT(sent, 0u);
  EXPECT_GT(received, 0u);

  // Every byte the router sent arrived at some host, and vice versa —
  // and per slot, the router's ledger is the host's mirror image.
  std::size_t hostIn = 0;
  std::size_t hostOut = 0;
  for (std::size_t s = 0; s < fleet.hosts.size(); ++s) {
    const auto hs = fleet.hosts[s]->stats();
    hostIn += hs.bytesIn;
    hostOut += hs.bytesOut;
    EXPECT_EQ(stats.perHost[s].bytesSent, hs.bytesIn) << "slot " << s;
    EXPECT_EQ(stats.perHost[s].bytesReceived, hs.bytesOut) << "slot " << s;
  }
  EXPECT_EQ(sent, hostIn);
  EXPECT_EQ(received, hostOut);
}

TEST(PlanRouter, BlackHoledHostTimesOutAndFailsOverByTheClock) {
  // A host that accepts into the kernel backlog but never replies (the
  // SIGSTOP/partition shape): without RouterConfig::ioTimeoutMs the
  // routed request would hang its future forever; with it, the recv
  // times out, the slot is marked down, and the request fails over to
  // the next-ranked host — same winner, bounded wall clock.
  const frameio::Listener blackhole =
      frameio::listenLoopback(0, "blackhole-test");
  PlanServiceHost live{ServiceHostConfig{}};

  RouterConfig rc;
  rc.hosts = {{"127.0.0.1", blackhole.port}, {"127.0.0.1", live.port()}};
  rc.ioTimeoutMs = 300;
  PlanRouter router{rc};

  // Pick a request whose key ranks the black-holed slot first, so the
  // timeout path actually runs before the failover.
  const auto reqs = smallWorkload();
  const PlanRequest* victim = nullptr;
  for (const auto& r : reqs) {
    if (router.hostOf(r) == 0) {
      victim = &r;
      break;
    }
  }
  ASSERT_NE(victim, nullptr) << "no request ranked the black-holed slot";

  OptimizerOptions serial = victim->options;
  serial.threads = 1;
  const OptimizedPlan expected =
      optimizePlan(victim->app, victim->model, victim->objective, serial);
  const auto start = std::chrono::steady_clock::now();
  const OptimizedPlan got = router.optimize(*victim);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_EQ(got.value, expected.value);
  EXPECT_EQ(got.strategy, expected.strategy);
  EXPECT_LT(elapsed.count(), 30000) << "timeout never fired";

  const auto stats = router.stats();
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_GE(stats.perHost[0].transportFailures, 1u);
  EXPECT_FALSE(stats.perHost[0].up);
  EXPECT_EQ(stats.perHost[1].served, 1u);
  router.close();
  frameio::closeFd(blackhole.fd);
}

}  // namespace
}  // namespace fsw
