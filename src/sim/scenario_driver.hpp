// Scenario driver: replays a dynamic workload trace (src/workload/trace.hpp)
// against a live serving stack and measures what the static benches cannot —
// behavior under *evolving* load.
//
// The driver owns the stream states: each solve event (arrival, drift,
// operator add/remove) derives the successor application via applyTraceEvent
// and submits the successor PlanRequest through a caller-supplied hook —
// a PlanRouter fleet, a PlanServer, a bare engine; the driver is
// transport-agnostic, exactly like the front ends it drives. Host events
// invoke kill/revive hooks after draining every in-flight solve, so fleet
// membership only changes at quiescent points (the router's failover path
// is exercised by the kill itself: subsequent requests ranked to the dead
// slot re-route, and the revive hook re-admits it).
//
// Submission is closed-loop: events are submitted back to back in trace
// order (TraceEvent::atUs is not read), through a bounded in-flight window
// (ScenarioConfig::maxInFlight). Once the window is full, the driver
// settles the oldest outstanding future before it submits the next event.
//
// Reported latency is submit-to-settle: from the moment the driver submits
// a request to the moment it settles that request's future. Futures settle
// in FIFO order, so a fast solve queued behind a slow one inherits the
// slow one's wait. The submit stamp is taken after the window wait, so
// time an event spent waiting for window space is NOT counted, and the
// trace's arrival gaps never shape the load.
//
// Certification: with certify on (the default), every completed solve is
// compared bit-identical — value bits, winning strategy, graph signature,
// operation list — against a cold one-shot serial optimizePlan of the same
// mutated application. A solve is a pure function of its request key, so
// cold references are memoized per key; re-solves that repeat a key cost
// one reference, not two. This is the E14 identity contract extended to
// whole traces: warm starts, caches, failover and membership changes may
// change *when* an answer arrives, never *what* it is.
//
// Observability: the report carries submit-to-settle percentiles and the
// engine counters summed over the replay (bound aborts, cache hits); wire
// the optional board/store/router pointers to also capture near-hit,
// store-traffic and failover deltas across the replay window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "src/opt/optimizer.hpp"
#include "src/workload/trace.hpp"

namespace fsw {

class BoundBoard;
class ResultStoreHost;
class PlanRouter;

struct ScenarioConfig {
  /// Outstanding solves the driver keeps in flight; once full, the driver
  /// settles the oldest future before submitting the next event (that
  /// wait is not part of the next event's measured latency). Floored to 1.
  std::size_t maxInFlight = 8;
  /// Re-certify every winner against a memoized cold serial solve.
  bool certify = true;
  /// Per-request solve knobs stamped onto every derived PlanRequest.
  OptimizerOptions options{};

  // Optional observability taps (not owned; stats snapshotted around the
  // replay so the report shows the deltas this trace caused).
  const BoundBoard* board = nullptr;
  const ResultStoreHost* store = nullptr;
  const PlanRouter* router = nullptr;
};

struct ScenarioReport {
  std::size_t events = 0;       ///< trace events replayed
  std::size_t solves = 0;       ///< solve events completed
  std::size_t hostKills = 0;
  std::size_t hostRevives = 0;

  std::size_t certified = 0;    ///< winners bit-identical to the cold ref
  std::size_t mismatches = 0;   ///< winners that differed (must stay 0)
  std::size_t coldRefSolves = 0;  ///< distinct keys solved for references
  /// One line per mismatch (which field diverged, got vs ref) — empty on a
  /// clean replay. Capped at 8 so a systemic divergence cannot balloon the
  /// report.
  std::vector<std::string> mismatchNotes;

  // Engine counters summed over every completed solve.
  std::size_t seedBoundAborts = 0;
  std::size_t repairBoundAborts = 0;
  std::size_t resultCacheHits = 0;
  std::size_t storeBytes = 0;   ///< store wire bytes, both directions

  // Deltas from the optional taps (0 when the tap is unset).
  std::size_t boardNearHits = 0;
  std::size_t storeNearGets = 0;
  std::size_t storeNearHits = 0;
  std::size_t storeExactHits = 0;
  std::size_t routerFailovers = 0;
  std::size_t routerReconnects = 0;

  // Submit-to-settle latency over the completed solves.
  double p50Ms = 0.0;
  double p95Ms = 0.0;
  double p99Ms = 0.0;
  double maxMs = 0.0;
  std::vector<double> latenciesMs;

  [[nodiscard]] bool allIdentical() const noexcept {
    return mismatches == 0 && certified == solves;
  }
  [[nodiscard]] std::size_t nearHits() const noexcept {
    return boardNearHits + storeNearHits;
  }
};

class ScenarioDriver {
 public:
  /// Submits one derived request to the system under test and returns its
  /// future (PlanRouter::submit, PlanServer::submit, or a lambda over a
  /// bare engine — anything with the serving stack's future surface).
  using Submit = std::function<std::future<OptimizedPlan>(const PlanRequest&)>;
  /// Fleet membership hooks for HostKill/HostRevive events (host = the
  /// event's fleet slot). Either may be empty: the event still drains
  /// in-flight work and is counted, but no hook fires.
  using HostHook = std::function<void(std::uint32_t host)>;

  ScenarioDriver(ScenarioConfig config, Submit submit,
                 HostHook killHost = {}, HostHook reviveHost = {});

  /// Replays the trace start to finish and returns the report. Throws
  /// std::runtime_error on an inconsistent trace (applyTraceEvent's
  /// checks) and propagates solve failures from the submit hook's future.
  [[nodiscard]] ScenarioReport replay(const Trace& trace);

 private:
  ScenarioConfig config_;
  Submit submit_;
  HostHook killHost_;
  HostHook reviveHost_;
};

}  // namespace fsw
