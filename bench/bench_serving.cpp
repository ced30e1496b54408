// E8 — batched serving: one long-lived PlanEngine vs a naive per-request
// loop on a mixed (app, model, objective) workload with duplicate traffic.
//
// The table times three ways of serving the same >= 32-request workload:
//
//   loop[ms]   — the naive baseline: a fresh engine per request (PR 1's
//                per-call wiring), requests solved one after another;
//   batch[ms]  — PlanEngine::optimizeBatch on one long-lived engine:
//                cross-request dedup, shared score cache, incumbent-bounded
//                orchestration, requests fanned out over the pool;
//   and a winner-identity check against per-request *serial* optimizePlan —
//   the determinism contract across serial / pooled / batched execution.
//
// E9 adds the async front end: the same 72-request mixed workload pushed
// through PlanServer::submit one request at a time, reporting throughput
// and the p50/p95 submit-to-result latency per drain configuration next
// to the one-shot optimizeBatch reference — plus the same winner-identity
// gate across the sync and async paths.
//
// E11 adds multi-host routing: the same 18-unique-request workload (two
// waves — cold, then warm repeats) pushed through a PlanRouter over 1 vs 3
// PlanServiceHosts on loopback TCP, reporting throughput and p50/p95
// submit-to-result latency per fleet size. Wave 2 is served from the far
// side's full-result caches (warmhits counts the resultCacheHits that
// crossed back), and the identity gate checks every request of every wave
// against the serial reference — the bit-identity contract through the
// whole wire path.
//
// E12 adds the wire/artifact size trajectory: the paper instances encoded
// by the wire codec (result-cache and score-cache artifacts, plan
// request/response payloads, store PUT/reply payloads), plus the measured
// store bytes-per-request on cold and warm traffic. Its gate: winners stay
// bit-identical across a warm start from the result-cache artifact and
// across the store and multi-host paths. `--wire_json <path>` dumps the
// deterministic size rows for the bench-trajectory baseline check
// (bench/check_wire_sizes.py vs bench/baselines/BENCH_wire.json).
//
// E13 adds the transport scaling table: 16/64/256/1024 concurrent clients
// hammering a warm ResultStoreHost's epoll reactor with GET round trips —
// throughput, p50/p95 op latency, the host's transport thread count, and
// connections-per-thread. The client side is one poll()-driven thread
// over raw nonblocking sockets, so the sweep measures the host, not
// client scheduling. Each point reports its best-of-3 trial by p95 (the
// minimum strips scheduler noise; identity must hold in every trial). Its
// gate is twofold: every reply decodes to the bit-identical stored winner
// at every client count, and the host's thread count stays fixed across
// the sweep (O(1) in connections). `--transport_json <path>` dumps
// throughput and latency rows for the bench-trajectory regression check
// (bench/check_transport.py vs bench/baselines/BENCH_transport.json).
//
// Exits nonzero when any batched, async *or multi-host* winner diverges
// from the serial reference — or when an E13 transport gate fails — so CI
// gates on it (`--serial` forces the engines fully serial; the identity
// checks still run).
#include <benchmark/benchmark.h>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/common/util.hpp"
#include "src/io/serialize.hpp"
#include "src/opt/optimizer.hpp"
#include "src/sched/overlap.hpp"
#include "src/serve/bound_board.hpp"
#include "src/serve/plan_engine.hpp"
#include "src/serve/plan_router.hpp"
#include "src/serve/plan_server.hpp"
#include "src/serve/plan_service.hpp"
#include "src/serve/result_cache.hpp"
#include "src/serve/result_store.hpp"
#include "src/sim/scenario_driver.hpp"
#include "src/workload/generator.hpp"
#include "src/workload/paper_instances.hpp"
#include "src/workload/trace.hpp"

namespace {

using namespace fsw;

bool g_serial = false;  ///< --serial: force the engine serial

OptimizerOptions servingOptions() {
  OptimizerOptions opt;
  opt.exactForestMaxN = 5;
  opt.heuristics.iterations = 400;
  opt.heuristics.restarts = 2;
  opt.orchestrator.order.exactCap = 120;
  opt.orchestrator.order.localSearchIters = 80;
  opt.orchestrator.outorder.restarts = 6;
  opt.orchestrator.outorder.bisectSteps = 5;
  return opt;
}

/// A mixed serving workload: `apps` distinct applications x three models x
/// two objectives, cycled until `total` requests — so with total >
/// 6 * apps the tail repeats earlier traffic (the serving-cache case).
std::vector<PlanRequest> mixedWorkload(std::size_t apps, std::size_t total) {
  std::vector<PlanRequest> base;
  Prng rng(8100);
  for (std::size_t a = 0; a < apps; ++a) {
    WorkloadSpec spec;
    spec.n = 5 + a % 3;
    spec.precedenceDensity = a % 2 == 0 ? 0.0 : 0.2;
    const auto app = randomApplication(spec, rng);
    for (const CommModel m : kAllModels) {
      for (const Objective obj : {Objective::Period, Objective::Latency}) {
        base.push_back({app, m, obj, servingOptions()});
      }
    }
  }
  std::vector<PlanRequest> reqs;
  reqs.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    reqs.push_back(base[i % base.size()]);
  }
  return reqs;
}

/// E8: batch-vs-loop wall clock plus the winner-identity gate. Returns
/// false when any batch winner diverges from the serial reference.
[[nodiscard]] bool printServingTable() {
  std::printf("E8: batched serving, %s engine (%u hardware threads)\n",
              g_serial ? "serial" : "pooled",
              std::thread::hardware_concurrency());
  std::printf("%-9s %-7s %-10s %-10s %-9s %-9s %-8s %-7s %-9s\n", "requests",
              "unique", "loop[ms]", "batch[ms]", "speedup", "xreqhits",
              "shared", "aborts", "identical");

  bool allIdentical = true;
  const EngineConfig cfg{.threads = g_serial ? std::size_t{1} : 0};
  for (const std::size_t total : {36u, 72u}) {
    const auto reqs = mixedWorkload(/*apps=*/3, total);

    // Naive loop: per-request engine, nothing amortized (PR 1 behavior).
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<OptimizedPlan> loop;
    loop.reserve(reqs.size());
    for (const auto& r : reqs) {
      PlanEngine fresh{cfg};
      loop.push_back(fresh.optimize(r));
    }
    const auto t1 = std::chrono::steady_clock::now();

    // Batched: one engine, one optimizeBatch call.
    PlanEngine engine{cfg};
    const auto batch = engine.optimizeBatch(reqs);
    const auto t2 = std::chrono::steady_clock::now();

    std::size_t unique = 0;
    std::size_t crossHits = 0;
    std::size_t shared = 0;
    std::size_t aborts = 0;
    bool identical = true;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      unique += batch[i].stats.crossRequestHits == 0 ? 1 : 0;
      crossHits += batch[i].stats.crossRequestHits;
      shared += batch[i].stats.sharedHits;
      aborts += batch[i].stats.seedBoundAborts +
                batch[i].stats.repairBoundAborts;
      identical = identical && batch[i].value == loop[i].value &&
                  batch[i].strategy == loop[i].strategy;
    }
    // The loop reference above is pooled-per-request; the contract is
    // against *serial* per-request optimizePlan, so spot-check that too.
    for (std::size_t i = 0; i < reqs.size(); i += 7) {
      OptimizerOptions serial = reqs[i].options;
      serial.threads = 1;
      const auto r = optimizePlan(reqs[i].app, reqs[i].model,
                                  reqs[i].objective, serial);
      identical = identical && batch[i].value == r.value &&
                  batch[i].strategy == r.strategy;
    }
    allIdentical = allIdentical && identical;

    const double loopMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double batchMs =
        std::chrono::duration<double, std::milli>(t2 - t1).count();
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx", loopMs / batchMs);
    std::printf("%-9zu %-7zu %-10.1f %-10.1f %-9s %-9zu %-8zu %-7zu %-9s\n",
                reqs.size(), unique, loopMs, batchMs, speedup, crossHits,
                shared, aborts, identical ? "yes" : "NO!");
  }
  std::printf("\n");
  return allIdentical;
}

/// E9: the async front end vs the one-shot batch on the 72-request mixed
/// workload — throughput plus p50/p95 submit-to-result latency — with the
/// winner-identity gate across sync and async. Returns false on any
/// divergence from the serial reference.
[[nodiscard]] bool printAsyncServingTable() {
  const auto reqs = mixedWorkload(/*apps=*/3, /*total=*/72);
  std::printf("E9: async serving (PlanServer), %s engine\n",
              g_serial ? "serial" : "pooled");
  std::printf("%-14s %-9s %-10s %-12s %-9s %-9s %-10s %-9s\n", "mode",
              "requests", "total[ms]", "thruput[r/s]", "p50[ms]", "p95[ms]",
              "coalesced", "identical");

  // Serial per-request reference for the identity gate (spot-checked, as
  // in E8 — the full check would dominate the bench's runtime).
  std::vector<std::size_t> spots;
  std::vector<OptimizedPlan> refs;
  for (std::size_t i = 0; i < reqs.size(); i += 7) {
    OptimizerOptions serial = reqs[i].options;
    serial.threads = 1;
    spots.push_back(i);
    refs.push_back(
        optimizePlan(reqs[i].app, reqs[i].model, reqs[i].objective, serial));
  }
  const auto checkIdentity = [&](const auto& valueAt, const auto& strategyAt) {
    bool identical = true;
    for (std::size_t s = 0; s < spots.size(); ++s) {
      identical = identical && valueAt(spots[s]) == refs[s].value &&
                  strategyAt(spots[s]) == refs[s].strategy;
    }
    return identical;
  };

  bool allIdentical = true;
  const EngineConfig cfg{.threads = g_serial ? std::size_t{1} : 0};

  // Reference row: one blocking optimizeBatch — every request's
  // submit-to-result latency is the batch's total wall clock.
  {
    PlanEngine engine{cfg};
    const auto t0 = std::chrono::steady_clock::now();
    const auto batch = engine.optimizeBatch(reqs);
    const auto t1 = std::chrono::steady_clock::now();
    const double totalMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const bool identical =
        checkIdentity([&](std::size_t i) { return batch[i].value; },
                      [&](std::size_t i) { return batch[i].strategy; });
    allIdentical = allIdentical && identical;
    std::printf("%-14s %-9zu %-10.1f %-12.1f %-9.1f %-9.1f %-10s %-9s\n",
                "batch", reqs.size(), totalMs,
                1000.0 * static_cast<double>(reqs.size()) / totalMs, totalMs,
                totalMs, "-", identical ? "yes" : "NO!");
  }

  // Async rows: submit one request at a time; waiter threads stamp each
  // future the moment it becomes ready, so the latency columns measure
  // submit-to-result per request, coalescing included.
  for (const std::size_t maxBatch : {std::size_t{8}, std::size_t{1}}) {
    PlanEngine engine{cfg};
    ServerConfig sc;
    sc.engine = &engine;
    sc.maxBatch = maxBatch;
    sc.drainThreads = g_serial ? 1 : 2;
    PlanServer server{sc};

    const std::size_t n = reqs.size();
    std::vector<std::future<OptimizedPlan>> futures(n);
    std::vector<std::chrono::steady_clock::time_point> submitted(n), done(n);
    std::vector<std::thread> waiters;
    waiters.reserve(n);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      submitted[i] = std::chrono::steady_clock::now();
      futures[i] = server.submit(reqs[i]);
      waiters.emplace_back([&, i] {
        futures[i].wait();
        done[i] = std::chrono::steady_clock::now();
      });
    }
    server.drain();
    for (auto& w : waiters) w.join();
    const auto t1 = std::chrono::steady_clock::now();

    std::vector<OptimizedPlan> results;
    results.reserve(n);
    for (auto& f : futures) results.push_back(f.get());
    std::vector<double> latencies(n);
    for (std::size_t i = 0; i < n; ++i) {
      latencies[i] =
          std::chrono::duration<double, std::milli>(done[i] - submitted[i])
              .count();
    }
    const double totalMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const bool identical =
        checkIdentity([&](std::size_t i) { return results[i].value; },
                      [&](std::size_t i) { return results[i].strategy; });
    allIdentical = allIdentical && identical;

    char mode[32];
    std::snprintf(mode, sizeof(mode), "async b=%zu", maxBatch);
    std::printf("%-14s %-9zu %-10.1f %-12.1f %-9.1f %-9.1f %-10zu %-9s\n",
                mode, n, totalMs,
                1000.0 * static_cast<double>(n) / totalMs,
                percentile(latencies, 0.50), percentile(latencies, 0.95),
                server.stats().coalesced, identical ? "yes" : "NO!");
  }
  std::printf("\n");
  return allIdentical;
}

/// E11: multi-host routing — two waves (cold, then warm repeats) of the
/// 18-unique-request workload through a PlanRouter over 1 vs 3
/// PlanServiceHosts, each a full socket host over its own engine. The
/// warmhits column counts wave-2 requests served wholesale by the far
/// side's full-result caches (resultCacheHits crossing the wire back).
/// Returns false on any divergence from the serial reference.
[[nodiscard]] bool printMultiHostTable(
    const std::vector<PlanRequest>& unique,
    const std::vector<OptimizedPlan>& refs) {
  constexpr std::size_t kWaves = 2;
  std::printf("E11: multi-host routing (PlanRouter), %s engines\n",
              g_serial ? "serial" : "pooled");
  std::printf("%-10s %-9s %-10s %-12s %-9s %-9s %-9s %-10s %-9s\n", "mode",
              "requests", "total[ms]", "thruput[r/s]", "p50[ms]", "p95[ms]",
              "warmhits", "failovers", "identical");

  bool allIdentical = true;
  for (const std::size_t hostCount : {std::size_t{1}, std::size_t{3}}) {
    std::vector<std::unique_ptr<PlanServiceHost>> hosts;
    RouterConfig rc;
    for (std::size_t h = 0; h < hostCount; ++h) {
      ServiceHostConfig hc;
      hc.serverConfig.engineConfig.threads = g_serial ? std::size_t{1} : 0;
      hc.serverConfig.maxBatch = 8;
      hc.serverConfig.drainThreads = g_serial ? 1 : 2;
      hosts.push_back(std::make_unique<PlanServiceHost>(hc));
      rc.hosts.push_back(RouterHost{"127.0.0.1", hosts.back()->port()});
    }
    PlanRouter router{rc};

    const std::size_t n = unique.size() * kWaves;
    std::vector<double> latencies;
    latencies.reserve(n);
    std::size_t warmHits = 0;
    bool identical = true;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t wave = 0; wave < kWaves; ++wave) {
      std::vector<std::future<OptimizedPlan>> futures;
      std::vector<std::chrono::steady_clock::time_point> submitted;
      futures.reserve(unique.size());
      submitted.reserve(unique.size());
      for (const auto& r : unique) {
        submitted.push_back(std::chrono::steady_clock::now());
        futures.push_back(router.submit(r));
      }
      for (std::size_t i = 0; i < futures.size(); ++i) {
        const auto plan = futures[i].get();
        latencies.push_back(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() -
                                submitted[i])
                                .count());
        warmHits += plan.stats.resultCacheHits;
        identical = identical && plan.value == refs[i].value &&
                    plan.strategy == refs[i].strategy;
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    allIdentical = allIdentical && identical;

    const double totalMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    char mode[32];
    std::snprintf(mode, sizeof(mode), "hosts=%zu", hostCount);
    std::printf("%-10s %-9zu %-10.1f %-12.1f %-9.1f %-9.1f %-9zu %-10zu "
                "%-9s\n",
                mode, n, totalMs,
                1000.0 * static_cast<double>(n) / totalMs,
                percentile(latencies, 0.50), percentile(latencies, 0.95),
                warmHits, router.stats().failovers,
                identical ? "yes" : "NO!");
  }
  std::printf("\n");
  return allIdentical;
}

/// True when the doubles carry the identical bit pattern (the identity
/// contract is bit-exact, and == would blur -0.0 vs 0.0 and reject NaN).
bool bitsEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/// E12's solve options: light enough that 18 serial reference solves stay
/// in the tens of milliseconds, heavy enough that every engine layer
/// (heuristics, order search, outorder repair) contributes to the winner.
OptimizerOptions wireOptions() {
  OptimizerOptions opt;
  opt.exactForestMaxN = 5;
  opt.heuristics.iterations = 200;
  opt.heuristics.restarts = 2;
  opt.orchestrator.order.exactCap = 120;
  opt.orchestrator.order.localSearchIters = 80;
  opt.orchestrator.outorder.restarts = 4;
  opt.orchestrator.outorder.bisectSteps = 4;
  return opt;
}

/// One E12 size row.
struct SizeRow {
  const char* name;
  std::size_t bytes = 0;
  const char* jsonKey = nullptr;  ///< null = unstable across runs, not dumped
};

/// E12: wire codec sizes on the paper instances — artifact and payload
/// bytes, store bytes-per-request, and the identity gate across a warm
/// start from the result-cache artifact and every serving path. Returns
/// false on any winner divergence from the serial reference.
[[nodiscard]] bool printWireTable(const char* jsonPath) {
  std::printf("E12: wire codec sizes (paper instances), %s engine\n",
              g_serial ? "serial" : "pooled");

  // The solve grid: the three small paper instances x three models x two
  // objectives. B.1 (202 services) is too heavy to replay through every
  // path, so it joins the *size* rows below via its known comm-aware
  // optimum schedule instead of an optimizer run.
  std::vector<PlanRequest> reqs;
  for (const PaperInstance& pi :
       {sec23Example(), counterexampleB2(), counterexampleB3()}) {
    for (const CommModel m : kAllModels) {
      for (const Objective obj : {Objective::Period, Objective::Latency}) {
        reqs.push_back({pi.app, m, obj, wireOptions()});
      }
    }
  }
  std::vector<OptimizedPlan> refs;
  refs.reserve(reqs.size());
  for (const auto& r : reqs) {
    OptimizerOptions serial = r.options;
    serial.threads = 1;
    refs.push_back(optimizePlan(r.app, r.model, r.objective, serial));
  }

  // B.1's artifact entry: the paper's two-star optimum (period 100 under
  // OVERLAP), packaged as the winner its request would cache.
  const PaperInstance b1 = counterexampleB1();
  OptimizedPlan b1Plan;
  b1Plan.plan.graph = b1.graph;
  b1Plan.plan.ol = overlapPeriodSchedule(b1.app, b1.graph);
  b1Plan.value = b1Plan.plan.ol.period();
  b1Plan.surrogate = b1Plan.value;
  b1Plan.strategy = "paper/b1-two-star";
  const std::string b1Key = PlanEngine::requestKey(
      {b1.app, CommModel::Overlap, Objective::Period, wireOptions()});

  // The result-cache artifact every warm start below loads: the 18 grid
  // winners plus B.1, inserted in fixed order so the JSON sizes are
  // deterministic.
  ResultCache artifact{0};
  std::vector<std::string> keys;
  keys.reserve(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    keys.push_back(PlanEngine::requestKey(reqs[i]));
    (void)artifact.insert(keys.back(), refs[i]);
  }
  (void)artifact.insert(b1Key, b1Plan);

  std::ostringstream resultBin;
  writeResultCache(resultBin, artifact);

  // The score-cache artifact from a warm engine. Its entry *set* is
  // deterministic, but the LRU order (and so the front-coded size) can
  // wobble under a pool — displayed, never dumped to the JSON.
  const EngineConfig cfg{.threads = g_serial ? std::size_t{1} : 0};
  std::ostringstream scoreBin;
  std::size_t scoreEntries = 0;
  {
    PlanEngine warm{cfg};
    (void)warm.optimizeBatch(reqs);
    warm.saveCache(scoreBin);
    scoreEntries = warm.cacheSize();
  }

  // Per-request wire payloads, summed over the grid (PUT includes B.1 —
  // exactly the payload a host publishing its solve would send).
  std::size_t reqBytes = 0, respBytes = 0, putBytes = 0, replyBytes = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqBytes += encodePlanRequest(reqs[i]).size();
    respBytes += encodeOptimizedPlan(refs[i]).size();
    putBytes += encodeStorePut(keys[i], refs[i]).size();
    replyBytes += encodeStoreReply(&refs[i], refs[i].value).size();
  }
  putBytes += encodeStorePut(b1Key, b1Plan).size();

  const SizeRow rows[] = {
      {"result-cache artifact (19 entries)", resultBin.str().size(),
       "result_cache_bytes"},
      {"score-cache artifact", scoreBin.str().size(), nullptr},
      {"plan requests (x18)", reqBytes, "plan_request_bytes"},
      {"plan responses (x18)", respBytes, "plan_response_bytes"},
      {"store PUT (x19)", putBytes, "store_put_bytes"},
      {"store GET replies (x18)", replyBytes, "store_reply_bytes"},
  };
  std::printf("%-36s %-10s\n", "payload", "bytes");
  for (const SizeRow& row : rows) {
    std::printf("%-36s %-10zu\n", row.name, row.bytes);
  }
  std::printf("(score-cache artifact: %zu entries; size excluded from the "
              "JSON baseline — LRU order is pool-dependent)\n",
              scoreEntries);

  const auto identical = [&](const OptimizedPlan& got, std::size_t i) {
    return bitsEqual(got.value, refs[i].value) &&
           got.strategy == refs[i].strategy &&
           graphSignature(got.plan.graph) ==
               graphSignature(refs[i].plan.graph) &&
           toString(got.plan.ol) == toString(refs[i].plan.ol);
  };

  // Warm start: an engine that loads the artifact serves every grid
  // request wholesale with the bit-identical winner.
  bool warmOk = true;
  {
    PlanEngine engine{cfg};
    std::istringstream in(resultBin.str());
    engine.loadResults(in);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const OptimizedPlan got = engine.optimize(reqs[i]);
      warmOk = warmOk && identical(got, i) && got.stats.resultCacheHits == 1;
    }
  }

  // The store round trip: engine A solves cold and publishes every winner
  // (PUTs on the wire); a fresh engine B serves the whole grid wholesale
  // from the store (GET replies). The measured per-request wire bytes are
  // the before/after story on live traffic.
  bool storeOk = true;
  double coldBytesPerReq = 0;
  double warmBytesPerReq = 0;
  {
    ResultStoreHost store{{}};
    RemoteResultStore clientA{"127.0.0.1", store.port()};
    RemoteResultStore clientB{"127.0.0.1", store.port()};
    EngineConfig storeCfg = cfg;
    storeCfg.resultStore = &clientA;
    PlanEngine engineA{storeCfg};
    const auto cold = engineA.optimizeBatch(reqs);
    storeCfg.resultStore = &clientB;
    PlanEngine engineB{storeCfg};
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const OptimizedPlan got = engineB.optimize(reqs[i]);
      storeOk = storeOk && identical(got, i) &&
                got.stats.resultCacheHits == 1 &&
                got.stats.storeBytesReceived > 0;
    }
    for (const auto& p : cold) {
      storeOk = storeOk && p.stats.crossRequestHits == 0;
    }
    const auto sa = clientA.stats();
    const auto sb = clientB.stats();
    coldBytesPerReq =
        static_cast<double>(sa.bytesSent + sa.bytesReceived) /
        static_cast<double>(reqs.size());
    warmBytesPerReq =
        static_cast<double>(sb.bytesSent + sb.bytesReceived) /
        static_cast<double>(reqs.size());
  }

  // Multi-host: the same grid through a 2-host router fleet (cold wave,
  // then a warm wave served from the far side's result caches).
  bool routerOk = true;
  {
    std::vector<std::unique_ptr<PlanServiceHost>> hosts;
    RouterConfig rc;
    for (std::size_t h = 0; h < 2; ++h) {
      ServiceHostConfig hc;
      hc.serverConfig.engineConfig = cfg;
      hc.serverConfig.maxBatch = 8;
      hc.serverConfig.drainThreads = g_serial ? 1 : 2;
      hosts.push_back(std::make_unique<PlanServiceHost>(hc));
      rc.hosts.push_back(RouterHost{"127.0.0.1", hosts.back()->port()});
    }
    PlanRouter router{rc};
    for (std::size_t wave = 0; wave < 2; ++wave) {
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        const OptimizedPlan got = router.optimize(reqs[i]);
        routerOk = routerOk && identical(got, i) &&
                   got.stats.resultCacheHits == wave;
      }
    }
  }

  std::printf("store traffic: cold %.0f B/req, warm %.0f B/req (frame "
              "headers included)\n",
              coldBytesPerReq, warmBytesPerReq);
  std::printf("identity: warm %s | store %s | router %s\n\n",
              warmOk ? "yes" : "NO!", storeOk ? "yes" : "NO!",
              routerOk ? "yes" : "NO!");

  if (jsonPath != nullptr) {
    std::ofstream out(jsonPath);
    out << "{\n  \"schema\": \"fsw-bench-wire\",\n  \"bench_version\": 1";
    for (const SizeRow& row : rows) {
      if (row.jsonKey == nullptr) continue;
      out << ",\n  \"" << row.jsonKey << "_bin\": " << row.bytes;
    }
    out << "\n}\n";
  }

  return warmOk && storeOk && routerOk;
}

/// Same structure, drifted parameters: the near-key scenario. Service names
/// are dropped — they never affect plan values or request keys.
Application mutateParams(const Application& app, double costScale,
                         double selScale) {
  Application out;
  for (const Service& s : app.services()) {
    out.addService(s.cost * costScale, s.selectivity * selScale);
  }
  for (const Precedence& p : app.precedences()) {
    out.addPrecedence(p.from, p.to);
  }
  return out;
}

/// E14: near-key warm starts — a mutated re-solve (same graph shape and
/// precedences, drifted costs/selectivities) fetches the nearest prior
/// winner by structural prefix, re-evaluates its orders under the NEW
/// parameters, and runs under that certified incumbent. Three paths:
///
///   board      — one engine with a BoundBoard: base solves publish, the
///                mutated re-solves warm-start off the board's near table
///                (cold[ms] is the same engine shape without a board, so
///                the delta is the near bound's effect, score caches warm
///                in both);
///   store      — engine A publishes to a ResultStoreHost, a fresh engine
///                B warm-starts its mutated solves through near GETs;
///   store-dead — the host is stopped first: near consults degrade to
///                misses and the solves proceed unwarmed.
///
/// Gates (exit code): every mutated re-solve returns the bit-identical
/// fresh serial reference with resultCacheHits == 0 (a neighbor's plan
/// must never be served, only its re-validated value used as a bound);
/// the board and store paths each record a near hit; and the warm bounds
/// actually pruned (seed + repair bound aborts > 0 across the warm
/// re-solves).
[[nodiscard]] bool printWarmStartTable() {
  std::printf("E14: near-key warm starts (mutated re-solves), %s engine\n",
              g_serial ? "serial" : "pooled");
  std::printf("%-11s %-9s %-10s %-10s %-9s %-8s %-9s\n", "path", "requests",
              "cold[ms]", "warm[ms]", "nearhits", "aborts", "identical");

  Prng rng(8400);
  WorkloadSpec spec;
  spec.n = 8;
  spec.precedenceDensity = 0.2;
  const auto app = randomApplication(spec, rng);
  OptimizerOptions opt = servingOptions();
  opt.orchestrator.outorder.restarts = 8;
  opt.orchestrator.outorder.repairIters = 160;
  std::vector<PlanRequest> base;
  for (const CommModel m : {CommModel::InOrder, CommModel::OutOrder}) {
    for (const Objective obj : {Objective::Period, Objective::Latency}) {
      base.push_back({app, m, obj, opt});
    }
  }
  const auto mutated = [&](double costScale, double selScale) {
    const Application drift = mutateParams(app, costScale, selScale);
    std::vector<PlanRequest> reqs = base;
    for (auto& r : reqs) r.app = drift;
    return reqs;
  };
  const auto serialRefs = [](const std::vector<PlanRequest>& reqs) {
    std::vector<OptimizedPlan> refs;
    refs.reserve(reqs.size());
    for (const auto& r : reqs) {
      OptimizerOptions serial = r.options;
      serial.threads = 1;
      refs.push_back(optimizePlan(r.app, r.model, r.objective, serial));
    }
    return refs;
  };
  const auto identical = [](const OptimizedPlan& got,
                            const OptimizedPlan& ref) {
    return bitsEqual(got.value, ref.value) && got.strategy == ref.strategy &&
           graphSignature(got.plan.graph) == graphSignature(ref.plan.graph) &&
           toString(got.plan.ol) == toString(ref.plan.ol) &&
           got.stats.resultCacheHits == 0;
  };
  const EngineConfig cfg{.threads = g_serial ? std::size_t{1} : 0};

  const auto drifted = mutated(1.15, 0.95);
  const auto refs = serialRefs(drifted);

  bool allOk = true;
  std::size_t warmAborts = 0;

  // Board path (and its no-board cold reference: same base warm-up, same
  // score-cache state, the near bound is the only difference).
  {
    PlanEngine cold{cfg};
    for (const auto& r : base) (void)cold.optimize(r);
    const auto c0 = std::chrono::steady_clock::now();
    std::vector<OptimizedPlan> coldOut;
    for (const auto& r : drifted) coldOut.push_back(cold.optimize(r));
    const auto c1 = std::chrono::steady_clock::now();

    BoundBoard board{256};
    EngineConfig boardCfg = cfg;
    boardCfg.boundBoard = &board;
    PlanEngine warm{boardCfg};
    for (const auto& r : base) (void)warm.optimize(r);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<OptimizedPlan> warmOut;
    for (const auto& r : drifted) warmOut.push_back(warm.optimize(r));
    const auto t1 = std::chrono::steady_clock::now();

    bool ok = true;
    std::size_t aborts = 0;
    for (std::size_t i = 0; i < drifted.size(); ++i) {
      ok = ok && identical(coldOut[i], refs[i]) &&
           identical(warmOut[i], refs[i]);
      aborts += warmOut[i].stats.seedBoundAborts +
                warmOut[i].stats.repairBoundAborts;
    }
    const std::size_t nearHits = board.stats().nearHits;
    ok = ok && nearHits > 0;
    allOk = allOk && ok;
    warmAborts += aborts;
    std::printf("%-11s %-9zu %-10.1f %-10.1f %-9zu %-8zu %-9s\n", "board",
                drifted.size(),
                std::chrono::duration<double, std::milli>(c1 - c0).count(),
                std::chrono::duration<double, std::milli>(t1 - t0).count(),
                nearHits, aborts, ok ? "yes" : "NO!");
  }

  // Store path, then store death: engine B keeps its degraded client.
  {
    ResultStoreHost store{{}};
    RemoteResultStore clientA{"127.0.0.1", store.port()};
    RemoteResultStore clientB{"127.0.0.1", store.port()};
    EngineConfig aCfg = cfg;
    aCfg.resultStore = &clientA;
    PlanEngine engineA{aCfg};
    for (const auto& r : base) (void)engineA.optimize(r);

    EngineConfig bCfg = cfg;
    bCfg.resultStore = &clientB;
    PlanEngine engineB{bCfg};
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<OptimizedPlan> out;
    for (const auto& r : drifted) out.push_back(engineB.optimize(r));
    const auto t1 = std::chrono::steady_clock::now();

    bool ok = true;
    std::size_t aborts = 0;
    for (std::size_t i = 0; i < drifted.size(); ++i) {
      ok = ok && identical(out[i], refs[i]);
      aborts += out[i].stats.seedBoundAborts + out[i].stats.repairBoundAborts;
    }
    const std::size_t nearHits = clientB.stats().nearHits;
    ok = ok && nearHits > 0 && store.stats().nearGets > 0;
    allOk = allOk && ok;
    warmAborts += aborts;
    std::printf("%-11s %-9zu %-10s %-10.1f %-9zu %-8zu %-9s\n", "store",
                drifted.size(), "-",
                std::chrono::duration<double, std::milli>(t1 - t0).count(),
                nearHits, aborts, ok ? "yes" : "NO!");

    // Store death: a further drift (new keys) against the stopped host —
    // near consults degrade to misses, the solves must stay identical.
    store.stop();
    const auto dead = mutated(1.3, 1.0);
    const auto deadRefs = serialRefs(dead);
    const auto d0 = std::chrono::steady_clock::now();
    bool deadOk = true;
    for (std::size_t i = 0; i < dead.size(); ++i) {
      deadOk = deadOk && identical(engineB.optimize(dead[i]), deadRefs[i]);
    }
    const auto d1 = std::chrono::steady_clock::now();
    allOk = allOk && deadOk;
    std::printf("%-11s %-9zu %-10s %-10.1f %-9d %-8d %-9s\n", "store-dead",
                dead.size(), "-",
                std::chrono::duration<double, std::milli>(d1 - d0).count(), 0,
                0, deadOk ? "yes" : "NO!");
  }

  if (warmAborts == 0) {
    std::printf("E14 FAILURE: no incumbent aborts on the warm re-solves — "
                "the near-key bound never pruned\n");
  }
  std::printf("\n");
  return allOk && warmAborts > 0;
}

// ---- E15: dynamic trace replay --------------------------------------------

/// Lighter per-solve knobs than servingOptions(): the replay certifies
/// ~500 mutated applications against cold serial references, so each
/// solve must stay in the low-millisecond band to keep the table quick.
OptimizerOptions replayOptions() {
  OptimizerOptions opt;
  opt.exactForestMaxN = 5;
  opt.heuristics.iterations = 200;
  opt.heuristics.restarts = 2;
  opt.orchestrator.order.exactCap = 120;
  opt.orchestrator.outorder.restarts = 4;
  opt.orchestrator.outorder.bisectSteps = 4;
  return opt;
}

/// E15: the serving stack under *evolving* load — a generated 520-event
/// trace (bursty heavy-tailed arrivals, hot-stream drift/add/remove
/// mutations, one mid-trace host kill + revive) replayed through a
/// PlanRouter over two PlanServiceHosts sharing a BoundBoard and a
/// ResultStoreHost. Every mutation derives the successor request and
/// re-solves it through the fleet; the PR 9 near-key machinery warm-starts
/// the drifted re-solves.
///
/// Gates (exit code): the trace codec round trip is byte-identical; every
/// re-solved winner is bit-identical to a cold one-shot serial
/// optimizePlan of the mutated application (ScenarioDriver certification);
/// the replay recorded at least one near hit (the warm-start path actually
/// fired) and exactly the scheduled host kill/revive pair. Tail latency
/// and hit-rate trajectories are exported via --replay_json for
/// check_replay.py to gate against the checked-in baseline.
[[nodiscard]] bool printReplayTable(const char* jsonPath) {
  TraceSpec spec;
  spec.events = 520;
  spec.streams = 6;
  spec.hosts = 2;
  spec.hostKills = 1;
  spec.workload.n = 5;
  spec.workload.precedenceDensity = 0.15;
  const Trace trace = generateTrace(spec, 8500);
  const std::string blob = encodeTrace(trace);
  const bool codecOk = encodeTrace(decodeTrace(blob)) == blob;

  std::printf("E15: dynamic trace replay, %zu events / %zu streams through a "
              "2-host fleet, %s engine\n",
              trace.events.size(), spec.streams,
              g_serial ? "serial" : "pooled");
  std::printf("(trace: %zu wire bytes, codec round-trip %s)\n", blob.size(),
              codecOk ? "byte-identical" : "DIVERGED");

  BoundBoard board{1 << 12};
  ResultStoreHost store{{}};
  std::vector<std::unique_ptr<RemoteResultStore>> clients;
  std::vector<std::unique_ptr<PlanServiceHost>> hosts;
  std::vector<std::uint16_t> ports;
  RouterConfig rc;
  const auto hostConfig = [&](std::size_t h) {
    ServiceHostConfig hc;
    hc.serverConfig.maxBatch = 8;
    hc.serverConfig.drainThreads = g_serial ? 1 : 2;
    hc.serverConfig.engineConfig.threads = g_serial ? std::size_t{1} : 0;
    hc.serverConfig.engineConfig.boundBoard = &board;
    hc.serverConfig.engineConfig.resultStore = clients[h].get();
    return hc;
  };
  for (std::size_t h = 0; h < 2; ++h) {
    clients.push_back(
        std::make_unique<RemoteResultStore>("127.0.0.1", store.port()));
    hosts.push_back(std::make_unique<PlanServiceHost>(hostConfig(h)));
    ports.push_back(hosts.back()->port());
    rc.hosts.push_back(RouterHost{"127.0.0.1", ports.back()});
  }
  PlanRouter router{rc};

  ScenarioConfig sc;
  sc.maxInFlight = 8;
  sc.options = replayOptions();
  sc.board = &board;
  sc.store = &store;
  sc.router = &router;
  ScenarioDriver driver{
      sc, [&](const PlanRequest& r) { return router.submit(r); },
      [&](std::uint32_t h) { hosts[h].reset(); },
      [&](std::uint32_t h) {
        ServiceHostConfig hc = hostConfig(h);
        hc.port = ports[h];
        hosts[h] = std::make_unique<PlanServiceHost>(hc);
        (void)router.reconnect();
      }};

  const auto t0 = std::chrono::steady_clock::now();
  const ScenarioReport report = driver.replay(trace);
  const auto t1 = std::chrono::steady_clock::now();
  const double wallMs =
      std::chrono::duration<double, std::milli>(t1 - t0).count();

  std::printf("%-7s %-7s %-9s %-9s %-9s %-9s %-7s %-10s %-10s %-9s\n",
              "events", "solves", "p50[ms]", "p95[ms]", "p99[ms]", "nearhits",
              "aborts", "cachehits", "failovers", "identical");
  std::printf("%-7zu %-7zu %-9.2f %-9.2f %-9.2f %-9zu %-7zu %-10zu %-10zu "
              "%-9s\n",
              report.events, report.solves, report.p50Ms, report.p95Ms,
              report.p99Ms, report.nearHits(),
              report.seedBoundAborts + report.repairBoundAborts,
              report.resultCacheHits, report.routerFailovers,
              report.allIdentical() ? "yes" : "NO!");
  std::printf("warm starts: board near hits %zu, store near hits %zu (of "
              "%zu near GETs); store exact hits %zu, %zu store wire bytes; "
              "%zu cold refs certified %zu solves in %.0f ms\n",
              report.boardNearHits, report.storeNearHits, report.storeNearGets,
              report.storeExactHits, report.storeBytes, report.coldRefSolves,
              report.solves, wallMs);

  for (const std::string& note : report.mismatchNotes) {
    std::printf("E15 MISMATCH: %s\n", note.c_str());
  }
  const bool fleetOk = report.hostKills == 1 && report.hostRevives == 1 &&
                       router.hostUp(0) && router.hostUp(1);
  const bool nearOk = report.nearHits() > 0;
  if (!fleetOk) {
    std::printf("E15 FAILURE: the host kill/revive pair did not replay "
                "(kills %zu, revives %zu)\n",
                report.hostKills, report.hostRevives);
  }
  if (!nearOk) {
    std::printf("E15 FAILURE: no near hits — the warm-start path never "
                "fired across %zu re-solves\n", report.solves);
  }
  std::printf("\n");

  if (jsonPath != nullptr) {
    std::ofstream out(jsonPath);
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\n"
                  "  \"schema\": \"fsw-bench-replay\",\n"
                  "  \"bench_version\": 1,\n"
                  "  \"replay_events\": %zu,\n"
                  "  \"replay_solves\": %zu,\n"
                  "  \"replay_identical\": %d,\n"
                  "  \"replay_mismatches\": %zu,\n"
                  "  \"replay_host_kills\": %zu,\n"
                  "  \"replay_near_hits\": %zu,\n"
                  "  \"replay_board_near_hits\": %zu,\n"
                  "  \"replay_store_near_hits\": %zu,\n",
                  report.events, report.solves,
                  report.allIdentical() ? 1 : 0, report.mismatches,
                  report.hostKills, report.nearHits(), report.boardNearHits,
                  report.storeNearHits);
    out << buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"replay_store_exact_hits\": %zu,\n"
                  "  \"replay_bound_aborts\": %zu,\n"
                  "  \"replay_result_cache_hits\": %zu,\n"
                  "  \"replay_failovers\": %zu,\n"
                  "  \"replay_reconnects\": %zu,\n"
                  "  \"replay_codec_bytes\": %zu,\n"
                  "  \"replay_codec_roundtrip\": %d,\n"
                  "  \"replay_p50_ms\": %.3f,\n"
                  "  \"replay_p95_ms\": %.3f,\n"
                  "  \"replay_p99_ms\": %.3f\n"
                  "}\n",
                  report.storeExactHits,
                  report.seedBoundAborts + report.repairBoundAborts,
                  report.resultCacheHits, report.routerFailovers,
                  report.routerReconnects, blob.size(), codecOk ? 1 : 0,
                  report.p50Ms, report.p95Ms, report.p99Ms);
    out << buf;
  }

  return codecOk && report.allIdentical() && fleetOk && nearOk;
}

// ---- E13: transport scaling -----------------------------------------------

/// Best-effort RLIMIT_NOFILE raise; returns the soft limit afterwards.
/// The 1024-client row needs ~2x that many fds in one process (each
/// loopback connection is a client fd here and a host fd there).
std::size_t raiseFdLimit(rlim_t want) {
  struct rlimit rl{};
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) return 256;
  if (rl.rlim_cur < want) {
    struct rlimit bump = rl;
    bump.rlim_cur = rl.rlim_max == RLIM_INFINITY
                        ? want
                        : (want < rl.rlim_max ? want : rl.rlim_max);
    if (setrlimit(RLIMIT_NOFILE, &bump) == 0) rl = bump;
  }
  return rl.rlim_cur == RLIM_INFINITY ? (1u << 20)
                                      : static_cast<std::size_t>(rl.rlim_cur);
}

/// One client's in-flight state in the poll() loop: a pending GET being
/// written, a reply being assembled across partial reads, and the op
/// clock for the latency columns.
struct RawStoreClient {
  int fd = -1;
  std::size_t outPos = 0;
  std::string in;
  std::size_t opsDone = 0;
  std::chrono::steady_clock::time_point opStart;
  bool done = false;
};

/// Runs `clients` concurrent connections through `ops` GET round trips
/// each against a fresh warm store, multiplexed by one poll() loop. Fills
/// the latency samples (one per op), the wall clock of the whole burst,
/// and the host's transport thread count sampled at full load. False on
/// any stall, dropped connection, frame corruption, or reply that is not
/// the bit-identical stored winner.
[[nodiscard]] bool runTransportRow(std::size_t clients, std::size_t ops,
                                   const OptimizedPlan& plan,
                                   std::vector<double>& latencies,
                                   double& totalMs,
                                   std::size_t& hostThreads) {
  ResultStoreHost store{ResultStoreConfig{}};
  const PlanRequest keyReq{sec23Example().app, CommModel::Overlap,
                           Objective::Period, wireOptions()};
  const std::string key = PlanEngine::requestKey(keyReq);
  store.results().insert(key, plan);
  const std::string getFrame =
      encodeFrame(FrameType::StoreGet, encodeStoreGet(key));
  const std::string signature = graphSignature(plan.plan.graph);

  std::vector<RawStoreClient> conns(clients);
  bool ok = true;
  for (auto& c : conns) {
    c.fd = frameio::connectTcp("127.0.0.1", store.port(), "E13", 10000);
    const int flags = fcntl(c.fd, F_GETFL, 0);
    ok = ok && flags >= 0 && fcntl(c.fd, F_SETFL, flags | O_NONBLOCK) == 0;
  }
  // The accept side is asynchronous: wait (bounded) until the host has
  // accepted every connection so the thread-count sample sees full load.
  const auto acceptDeadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (store.stats().connections < clients &&
         std::chrono::steady_clock::now() < acceptDeadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  hostThreads = store.stats().transportThreads;

  // Every client fires its first GET in one burst, then the loop drives
  // each connection's send -> assemble-reply -> next-op machine.
  const auto t0 = std::chrono::steady_clock::now();
  for (auto& c : conns) c.opStart = t0;
  std::size_t live = clients;
  std::vector<struct pollfd> fds;
  std::vector<std::size_t> slot;
  while (live > 0 && ok) {
    fds.clear();
    slot.clear();
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (conns[i].done) continue;
      struct pollfd p{};
      p.fd = conns[i].fd;
      p.events = static_cast<short>(
          conns[i].outPos < getFrame.size() ? POLLOUT | POLLIN : POLLIN);
      fds.push_back(p);
      slot.push_back(i);
    }
    const int ready = ::poll(fds.data(), fds.size(), 30000);
    if (ready <= 0) {
      std::printf("E13: poll %s with %zu clients still live\n",
                  ready == 0 ? "stalled" : "failed", live);
      ok = false;
      break;
    }
    for (std::size_t f = 0; f < fds.size() && ok; ++f) {
      if (fds[f].revents == 0) continue;
      RawStoreClient& c = conns[slot[f]];
      if ((fds[f].revents & (POLLERR | POLLNVAL)) != 0) {
        ok = false;
        break;
      }
      if ((fds[f].revents & POLLOUT) != 0 && c.outPos < getFrame.size()) {
        const ssize_t sent =
            ::send(c.fd, getFrame.data() + c.outPos,
                   getFrame.size() - c.outPos, MSG_NOSIGNAL);
        if (sent > 0) {
          c.outPos += static_cast<std::size_t>(sent);
        } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
          ok = false;
          break;
        }
      }
      if ((fds[f].revents & (POLLIN | POLLHUP)) != 0) {
        char buf[65536];
        const ssize_t got = ::recv(c.fd, buf, sizeof(buf), 0);
        if (got > 0) {
          c.in.append(buf, static_cast<std::size_t>(got));
        } else if (got == 0 ||
                   (errno != EAGAIN && errno != EWOULDBLOCK)) {
          ok = false;  // the host must outlive the whole burst
          break;
        }
        // Consume every complete reply frame the read completed.
        while (c.in.size() >= frameio::kFrameHeaderSize) {
          std::uint32_t len = 0;
          for (int b = 0; b < 4; ++b) {
            len = (len << 8) | static_cast<std::uint8_t>(c.in[6 + b]);
          }
          if (std::memcmp(c.in.data(), kFrameMagic, 4) != 0 ||
              c.in[5] != static_cast<char>(FrameType::Result)) {
            ok = false;
            break;
          }
          if (c.in.size() < frameio::kFrameHeaderSize + len) break;
          const auto now = std::chrono::steady_clock::now();
          latencies.push_back(
              std::chrono::duration<double, std::milli>(now - c.opStart)
                  .count());
          const StoreReply reply = decodeStoreReply(std::string_view(
              c.in.data() + frameio::kFrameHeaderSize, len));
          ok = ok && reply.found && bitsEqual(reply.plan.value, plan.value) &&
               graphSignature(reply.plan.plan.graph) == signature;
          c.in.erase(0, frameio::kFrameHeaderSize + len);
          ++c.opsDone;
          if (c.opsDone >= ops) {
            c.done = true;
            --live;
            break;
          }
          c.outPos = 0;  // next op: re-send the GET frame
          c.opStart = now;
        }
      }
    }
  }
  totalMs = std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
  for (auto& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
  return ok;
}

/// E13: the concurrent-client sweep against the epoll reactor. Returns
/// false on any identity/stall failure or a host thread count that scales
/// with clients.
[[nodiscard]] bool printTransportTable(const char* jsonPath) {
  std::printf("E13: serving transport scaling (warm store GETs, one "
              "poll()-driven client thread)\n");
  std::printf("%-8s %-10s %-14s %-9s %-9s %-12s %-13s %-9s\n", "clients",
              "total[ms]", "thruput[op/s]", "p50[ms]", "p95[ms]",
              "hostthreads", "conns/thread", "identical");

  // The stored winner every GET fetches: one real solve of the paper's
  // Section 2.3 instance, so replies carry a genuine plan payload.
  const PlanRequest req{sec23Example().app, CommModel::Overlap,
                        Objective::Period, wireOptions()};
  OptimizerOptions serial = req.options;
  serial.threads = 1;
  const OptimizedPlan plan =
      optimizePlan(req.app, req.model, req.objective, serial);

  constexpr std::size_t kOps = 8;
  const std::size_t fdLimit = raiseFdLimit(4096);
  std::vector<std::size_t> counts;
  for (const std::size_t c : {16u, 64u, 256u, 1024u}) {
    // Both endpoints of every loopback connection live in this process,
    // plus listener/epoll/eventfd/handler plumbing and whatever is
    // already open: keep a generous margin under the fd ceiling.
    if (2 * c + 128 <= fdLimit) {
      counts.push_back(c);
    } else {
      std::printf("(skipping %zu clients: RLIMIT_NOFILE=%zu is too low)\n", c,
                  fdLimit);
    }
  }

  struct Row {
    std::size_t clients = 0;
    double totalMs = 0;
    double opsPerSec = 0;
    double p50 = 0, p95 = 0;
    std::size_t hostThreads = 0;
    bool ok = false;
  };
  std::vector<Row> rows;
  for (const std::size_t clients : counts) {
    Row row;
    row.clients = clients;
    // Best-of-N trials, keyed on p95: wall-clock latency at the
    // oversubscribed end of the sweep is dominated by scheduler noise
    // (run-to-run p95 swings far beyond any sane gate tolerance on a
    // loaded box), and the minimum across trials is the standard denoiser
    // — it approaches the machine's true cost while the mean measures the
    // neighbours. Identity must hold in EVERY trial.
    constexpr int kTrials = 3;
    row.ok = true;
    for (int trial = 0; trial < kTrials; ++trial) {
      std::vector<double> latencies;
      latencies.reserve(clients * kOps);
      double totalMs = 0;
      std::size_t hostThreads = 0;
      row.ok = runTransportRow(clients, kOps, plan, latencies, totalMs,
                               hostThreads) &&
               row.ok;
      if (latencies.empty()) continue;
      const double p95 = percentile(latencies, 0.95);
      if (trial == 0 || p95 < row.p95) {
        row.p50 = percentile(latencies, 0.50);
        row.p95 = p95;
        row.totalMs = totalMs;
        row.hostThreads = hostThreads;
      }
    }
    row.opsPerSec = 1000.0 * static_cast<double>(clients * kOps) /
                    (row.totalMs > 0 ? row.totalMs : 1.0);
    const double ratio =
        static_cast<double>(clients) /
        static_cast<double>(row.hostThreads > 0 ? row.hostThreads : 1);
    std::printf("%-8zu %-10.1f %-14.0f %-9.2f %-9.2f %-12zu %-13.1f %-9s\n",
                clients, row.totalMs, row.opsPerSec, row.p50, row.p95,
                row.hostThreads, ratio, row.ok ? "yes" : "NO!");
    rows.push_back(row);
  }

  bool allOk = true;
  std::size_t hostThreads = 0;
  bool threadsFixed = true;
  for (const Row& row : rows) {
    allOk = allOk && row.ok;
    if (hostThreads == 0) hostThreads = row.hostThreads;
    threadsFixed = threadsFixed && row.hostThreads == hostThreads;
  }
  std::printf("transport gates: identity %s | host threads fixed (%zu) %s\n\n",
              allOk ? "yes" : "NO!", hostThreads,
              threadsFixed ? "yes" : "NO!");

  if (jsonPath != nullptr) {
    std::ofstream out(jsonPath);
    out << "{\n  \"schema\": \"fsw-bench-transport\",\n"
           "  \"bench_version\": 1";
    for (const Row& row : rows) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    ",\n"
                    "  \"reactor_c%zu_p50_ms\": %.3f,\n"
                    "  \"reactor_c%zu_p95_ms\": %.3f,\n"
                    "  \"reactor_c%zu_ops_per_s\": %.0f",
                    row.clients, row.p50, row.clients, row.p95, row.clients,
                    row.opsPerSec);
      out << buf;
    }
    out << "\n}\n";
  }
  return allOk && threadsFixed;
}

void BM_OptimizeBatch(benchmark::State& state) {
  const auto total = static_cast<std::size_t>(state.range(0));
  const auto reqs = mixedWorkload(/*apps=*/2, total);
  const EngineConfig cfg{.threads = g_serial ? std::size_t{1} : 0};
  for (auto _ : state) {
    PlanEngine engine{cfg};
    auto out = engine.optimizeBatch(reqs);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total));
}
BENCHMARK(BM_OptimizeBatch)->Arg(12)->Arg(36)->Unit(benchmark::kMillisecond);

void BM_WarmCacheOptimize(benchmark::State& state) {
  // Steady-state serving: the same request against a warm long-lived
  // engine — since PR 3 that is a wholesale full-result-cache hit.
  const auto reqs = mixedWorkload(/*apps=*/1, 6);
  const EngineConfig cfg{.threads = g_serial ? std::size_t{1} : 0};
  PlanEngine engine{cfg};
  (void)engine.optimizeBatch(reqs);
  std::size_t i = 0;
  for (auto _ : state) {
    auto r = engine.optimize(reqs[i++ % reqs.size()]);
    benchmark::DoNotOptimize(r.value);
  }
}
BENCHMARK(BM_WarmCacheOptimize)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  g_serial = fswbench::stripFlag(argc, argv, "--serial");
  const char* wireJson = fswbench::stripValueFlag(argc, argv, "--wire_json");
  const char* transportJson =
      fswbench::stripValueFlag(argc, argv, "--transport_json");
  const char* replayJson =
      fswbench::stripValueFlag(argc, argv, "--replay_json");
  const bool batchIdentical = printServingTable();
  const bool asyncIdentical = printAsyncServingTable();

  // E11 gates every wave against one full serial reference of the
  // 18-unique-request workload.
  const auto unique18 = mixedWorkload(/*apps=*/3, /*total=*/18);
  std::vector<OptimizedPlan> refs18;
  refs18.reserve(unique18.size());
  for (const auto& r : unique18) {
    OptimizerOptions serial = r.options;
    serial.threads = 1;
    refs18.push_back(optimizePlan(r.app, r.model, r.objective, serial));
  }
  const bool multiHostIdentical = printMultiHostTable(unique18, refs18);
  const bool wireOk = printWireTable(wireJson);
  const bool warmStartOk = printWarmStartTable();
  const bool replayOk = printReplayTable(replayJson);
  const bool transportOk = printTransportTable(transportJson);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return batchIdentical && asyncIdentical && multiHostIdentical && wireOk &&
                 warmStartOk && replayOk && transportOk
             ? 0
             : 1;
}
