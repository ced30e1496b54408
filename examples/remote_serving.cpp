// Remote serving: a real client/host pair over loopback TCP in one
// process. The host wraps a PlanServer over one PlanEngine (its pool spans
// the cores) behind a listening socket; two RemotePlanClient threads
// connect and submit mixed traffic through the wire codec. Winners are
// bit-identical to a local serial optimizePlan, repeats are served from
// the far side's full-result cache with zero new orchestrations, and the
// clients see those cache hits in the EngineStats that crossed the wire
// back.
//
//   $ ./remote_serving
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "src/core/application.hpp"
#include "src/opt/optimizer.hpp"
#include "src/serve/plan_engine.hpp"
#include "src/serve/plan_service.hpp"

int main() {
  using namespace fsw;

  Application pipeline;
  pipeline.addService(2.0, 0.5, "decode");
  pipeline.addService(6.0, 0.3, "detect");
  pipeline.addService(1.5, 1.0, "caption");
  pipeline.addService(3.0, 1.8, "upscale");

  Application query;
  query.addService(1.0, 0.6, "parse");
  query.addService(5.0, 0.4, "match");
  query.addService(2.5, 0.9, "rank");
  query.addPrecedence(0, 1);

  // Host side: one engine, served asynchronously, listening on an
  // ephemeral loopback port.
  PlanEngine engine;
  ServiceHostConfig hc;
  hc.serverConfig.solver = &engine;
  hc.serverConfig.maxBatch = 4;
  // The epoll reactor is the default transport; give it the admission
  // gate and idle reaper a production front door would run with.
  hc.transport.maxConnections = 32;
  hc.transport.idleTimeoutMs = 5000;
  PlanServiceHost host{hc};
  std::printf("host: one engine behind 127.0.0.1:%u\n\n", host.port());

  // Client side: two clients (the reactor multiplexes both connections
  // onto its fixed event-loop pool) submitting every (app, model,
  // objective) pair — twice, so the second pass is warm-cache repeats.
  std::vector<PlanRequest> requests;
  for (const auto* app : {&pipeline, &query}) {
    for (const CommModel m : kAllModels) {
      for (const Objective obj : {Objective::Period, Objective::Latency}) {
        requests.push_back({*app, m, obj});
      }
    }
  }

  const auto runClient = [&](const char* tag) {
    RemotePlanClient client("127.0.0.1", host.port());
    for (int pass = 0; pass < 2; ++pass) {
      double total = 0.0;
      std::size_t warm = 0;
      std::size_t aborts = 0;
      for (const PlanRequest& request : requests) {
        const OptimizedPlan plan = client.optimize(request);
        total += plan.value;
        warm += plan.stats.resultCacheHits;
        aborts += plan.stats.seedBoundAborts + plan.stats.repairBoundAborts;
      }
      std::printf(
          "  client %s pass %d: %zu plans, checksum %.4f, "
          "%zu served from the remote result cache, %zu bound aborts\n",
          tag, pass + 1, requests.size(), total, warm, aborts);
    }
  };
  std::thread a(runClient, "A");
  std::thread b(runClient, "B");
  a.join();
  b.join();

  const auto hs = host.stats();
  std::printf("\nhost: %zu connections, %zu requests, %zu errors; "
              "result-cache hits %zu\n",
              hs.connections, hs.requests, hs.errors,
              engine.resultCacheStats().hits);
  return 0;
}
