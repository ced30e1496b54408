// Trace replay: a dynamic workload driven through a two-host fleet.
//
// The static examples hand the serving stack one application at a time.
// Real deployments evolve: operators drift their costs, pipelines gain and
// lose stages, hosts die mid-stream. This demo generates a small bursty
// trace (src/workload/trace.hpp), replays it through a PlanRouter fleet
// with the ScenarioDriver (src/sim/scenario_driver.hpp), and prints what
// the driver measures: submit-to-settle tail latency, warm-start hits,
// and — the contract everything else rests on — that every re-solved
// winner is bit-identical to a cold serial solve of the same mutated
// application, through drift, structural edits, and a host kill.
//
//   $ ./trace_replay
#include <cstdio>
#include <memory>
#include <vector>

#include "src/serve/bound_board.hpp"
#include "src/serve/plan_router.hpp"
#include "src/serve/plan_service.hpp"
#include "src/serve/result_store.hpp"
#include "src/sim/scenario_driver.hpp"
#include "src/workload/trace.hpp"

int main() {
  using namespace fsw;

  // A small bursty trace: 3 streams, ~80 events, one mid-trace host kill.
  TraceSpec spec;
  spec.events = 80;
  spec.streams = 3;
  spec.hosts = 2;
  spec.hostKills = 1;
  spec.burstProb = 0.35;
  spec.workload.n = 4;
  const Trace trace = generateTrace(spec, /*seed=*/42);

  std::size_t arrivals = 0, drifts = 0, edits = 0, hostEvents = 0;
  for (const TraceEvent& e : trace.events) {
    switch (e.kind) {
      case TraceEventKind::Arrival: ++arrivals; break;
      case TraceEventKind::ParamDrift: ++drifts; break;
      case TraceEventKind::OperatorAdd:
      case TraceEventKind::OperatorRemove: ++edits; break;
      default: ++hostEvents; break;
    }
  }
  std::printf("trace: %zu events (%zu arrivals, %zu drifts, %zu edits, "
              "%zu host events), %zu wire bytes\n\n",
              trace.events.size(), arrivals, drifts, edits, hostEvents,
              encodeTrace(trace).size());

  // The fleet: two hosts behind a router, sharing a result store (warm
  // winners travel between hosts) and a bound board (near-key incumbents
  // seed re-solves after drift).
  BoundBoard board{1 << 10};
  ResultStoreHost store{ResultStoreConfig{}};
  std::vector<std::unique_ptr<RemoteResultStore>> storeClients;
  std::vector<std::unique_ptr<PlanServiceHost>> hosts;
  std::vector<std::uint16_t> ports;
  RouterConfig rc;
  const auto hostConfig = [&](std::size_t h) {
    ServiceHostConfig hc;
    hc.serverConfig.engineConfig.boundBoard = &board;
    hc.serverConfig.engineConfig.resultStore = storeClients[h].get();
    return hc;
  };
  for (std::size_t h = 0; h < 2; ++h) {
    storeClients.push_back(
        std::make_unique<RemoteResultStore>("127.0.0.1", store.port()));
    hosts.push_back(std::make_unique<PlanServiceHost>(hostConfig(h)));
    ports.push_back(hosts.back()->port());
    rc.hosts.push_back(RouterHost{"127.0.0.1", ports.back()});
  }
  PlanRouter router{rc};

  // The driver submits each derived request through the router, kills and
  // revives fleet slots on host events, and certifies every winner against
  // a memoized cold serial solve.
  ScenarioConfig sc;
  sc.maxInFlight = 4;
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
  const ScenarioReport report = driver.replay(trace);

  std::printf("replayed %zu solves (%zu distinct keys cold-certified)\n",
              report.solves, report.coldRefSolves);
  std::printf("latency: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, max %.2f ms\n",
              report.p50Ms, report.p95Ms, report.p99Ms, report.maxMs);
  std::printf("warmth:  %zu exact store hits, %zu near hits "
              "(%zu board + %zu store), %zu bound aborts\n",
              report.storeExactHits, report.nearHits(), report.boardNearHits,
              report.storeNearHits,
              report.seedBoundAborts + report.repairBoundAborts);
  std::printf("fleet:   %zu kill(s), %zu revive(s), %zu failover(s)\n",
              report.hostKills, report.hostRevives, report.routerFailovers);
  std::printf("winners: %zu/%zu bit-identical to the cold serial solve — %s\n",
              report.certified, report.solves,
              report.allIdentical() ? "identical" : "DIVERGED");
  for (const std::string& note : report.mismatchNotes) {
    std::printf("  MISMATCH: %s\n", note.c_str());
  }
  return report.allIdentical() ? 0 : 1;
}
