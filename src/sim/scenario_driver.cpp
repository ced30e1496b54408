#include "src/sim/scenario_driver.hpp"

#include <chrono>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/common/util.hpp"
#include "src/io/serialize.hpp"
#include "src/opt/candidate.hpp"
#include "src/serve/bound_board.hpp"
#include "src/serve/plan_engine.hpp"
#include "src/serve/plan_router.hpp"
#include "src/serve/result_store.hpp"

namespace fsw {

namespace {

/// memcmp equality: NaN-safe, -0.0-strict — the identity the serving
/// stack's bit-identical contract is stated in.
bool bitsEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The E14 identity predicate over whole winners. resultCacheHits is NOT
/// part of it here: a trace may legitimately revisit a key (a drift cycle
/// returning to prior parameters), and a wholesale cache answer for a key
/// is the bit-identical winner by the cache's own contract.
bool identicalWinner(const OptimizedPlan& got, const OptimizedPlan& ref) {
  return bitsEqual(got.value, ref.value) && got.strategy == ref.strategy &&
         graphSignature(got.plan.graph) == graphSignature(ref.plan.graph) &&
         toString(got.plan.ol) == toString(ref.plan.ol);
}

struct InFlight {
  std::future<OptimizedPlan> future;
  std::chrono::steady_clock::time_point submitted;
  PlanRequest request;
};

}  // namespace

ScenarioDriver::ScenarioDriver(ScenarioConfig config, Submit submit,
                               HostHook killHost, HostHook reviveHost)
    : config_(std::move(config)),
      submit_(std::move(submit)),
      killHost_(std::move(killHost)),
      reviveHost_(std::move(reviveHost)) {
  if (!submit_) {
    throw std::invalid_argument("ScenarioDriver: submit hook is required");
  }
}

ScenarioReport ScenarioDriver::replay(const Trace& trace) {
  ScenarioReport report;
  report.events = trace.events.size();

  const BoundBoard::Stats board0 =
      config_.board != nullptr ? config_.board->stats() : BoundBoard::Stats{};
  const ResultStoreHost::Stats store0 = config_.store != nullptr
                                            ? config_.store->stats()
                                            : ResultStoreHost::Stats{};
  const std::size_t failovers0 =
      config_.router != nullptr ? config_.router->stats().failovers : 0;
  const std::size_t reconnects0 =
      config_.router != nullptr ? config_.router->stats().reconnects : 0;

  // Cold serial references, memoized per request key: a solve is a pure
  // function of its key, so one reference certifies every revisit.
  std::unordered_map<std::string, OptimizedPlan> refs;
  const auto coldReference = [&](const PlanRequest& request)
      -> const OptimizedPlan& {
    const std::string key = PlanEngine::requestKey(request);
    auto it = refs.find(key);
    if (it == refs.end()) {
      OptimizerOptions serial = request.options;
      serial.threads = 1;
      serial.pool = nullptr;
      it = refs.emplace(key, optimizePlan(request.app, request.model,
                                          request.objective, serial))
               .first;
      ++report.coldRefSolves;
    }
    return it->second;
  };

  std::deque<InFlight> window;
  const std::size_t maxInFlight = std::max<std::size_t>(1, config_.maxInFlight);

  const auto settle = [&](InFlight job) {
    const OptimizedPlan got = job.future.get();
    const auto done = std::chrono::steady_clock::now();
    report.latenciesMs.push_back(
        std::chrono::duration<double, std::milli>(done - job.submitted)
            .count());
    ++report.solves;
    report.seedBoundAborts += got.stats.seedBoundAborts;
    report.repairBoundAborts += got.stats.repairBoundAborts;
    report.resultCacheHits += got.stats.resultCacheHits;
    report.storeBytes +=
        got.stats.storeBytesSent + got.stats.storeBytesReceived;
    if (config_.certify) {
      const OptimizedPlan& ref = coldReference(job.request);
      if (identicalWinner(got, ref)) {
        ++report.certified;
      } else {
        ++report.mismatches;
        if (report.mismatchNotes.size() < 8) {
          std::string note = "key=" + PlanEngine::requestKey(job.request);
          if (!bitsEqual(got.value, ref.value)) {
            note += " value " + std::to_string(got.value) + " vs " +
                    std::to_string(ref.value);
          }
          if (got.strategy != ref.strategy) {
            note += " strategy '" + got.strategy + "' vs '" + ref.strategy +
                    "'";
          }
          if (graphSignature(got.plan.graph) !=
              graphSignature(ref.plan.graph)) {
            note += " graph " + graphSignature(got.plan.graph) + " vs " +
                    graphSignature(ref.plan.graph);
          }
          if (toString(got.plan.ol) != toString(ref.plan.ol)) {
            note += " ol " + toString(got.plan.ol) + " vs " +
                    toString(ref.plan.ol);
          }
          report.mismatchNotes.push_back(std::move(note));
        }
      }
    }
  };
  const auto drain = [&] {
    while (!window.empty()) {
      InFlight job = std::move(window.front());
      window.pop_front();
      settle(std::move(job));
    }
  };

  std::vector<StreamState> streams;
  for (const TraceEvent& event : trace.events) {
    if (!isSolveEvent(event.kind)) {
      // Membership changes only at quiescent points: every submitted
      // solve completes (and certifies) before the fleet shrinks or
      // grows, so a kill can fail over queued-later work but never
      // strand an already-measured future.
      drain();
      if (event.kind == TraceEventKind::HostKill) {
        ++report.hostKills;
        if (killHost_) killHost_(event.host);
      } else {
        ++report.hostRevives;
        if (reviveHost_) reviveHost_(event.host);
      }
      continue;
    }
    if (event.stream >= streams.size()) streams.resize(event.stream + 1);
    applyTraceEvent(streams[event.stream], event);
    const StreamState& st = streams[event.stream];
    PlanRequest request{st.app, st.model, st.objective, config_.options};
    InFlight job;
    job.request = request;
    job.submitted = std::chrono::steady_clock::now();
    job.future = submit_(request);
    window.push_back(std::move(job));
    if (window.size() > maxInFlight) {
      InFlight oldest = std::move(window.front());
      window.pop_front();
      settle(std::move(oldest));
    }
  }
  drain();

  if (config_.board != nullptr) {
    report.boardNearHits = config_.board->stats().nearHits - board0.nearHits;
  }
  if (config_.store != nullptr) {
    const ResultStoreHost::Stats s = config_.store->stats();
    report.storeNearGets = s.nearGets - store0.nearGets;
    report.storeNearHits = s.nearHits - store0.nearHits;
    report.storeExactHits = s.hits - store0.hits;
  }
  if (config_.router != nullptr) {
    const PlanRouter::Stats s = config_.router->stats();
    report.routerFailovers = s.failovers - failovers0;
    report.routerReconnects = s.reconnects - reconnects0;
  }

  report.p50Ms = percentile(report.latenciesMs, 0.50);
  report.p95Ms = percentile(report.latenciesMs, 0.95);
  report.p99Ms = percentile(report.latenciesMs, 0.99);
  for (const double ms : report.latenciesMs) {
    report.maxMs = std::max(report.maxMs, ms);
  }
  return report;
}

}  // namespace fsw
