// Dynamic workload traces: the paper's setting is a streaming system whose
// applications *evolve*, but until PR 10 every request the serving stack saw
// was a one-shot static application. A Trace is the missing workload form —
// a timestamped event stream over logical application *streams*:
//
//   Arrival        — a new application arrives on a stream (replacing
//                    whatever the stream ran before);
//   ParamDrift     — costs/selectivities drift (one service or all), the
//                    near-key warm-start shape: the successor request shares
//                    its structural prefix with the previous one, so a
//                    BoundBoard / result-store near consult can seed the
//                    re-solve with a certified incumbent (PR 9);
//   OperatorAdd    — a service is appended (optionally wired under a
//                    precedence), changing the structure: a cold re-solve;
//   OperatorRemove — a service is removed (precedences re-indexed);
//   HostKill /     — fleet membership churn: a serving host dies or
//   HostRevive       returns, exercising PlanRouter failover/re-admission.
//
// Traces are values: generateTrace derives one deterministically from a
// seed (bursty heavy-tailed arrival gaps, hot-stream skew for mutations,
// kill/revive pairs spread mid-trace), and the binio codec
// (writeTrace/readTrace, block kind 'T') records and replays them
// byte-exactly — decode(encode(t)) re-encodes to the identical bytes, the
// same contract as every other binary artifact in src/io/serialize.hpp.
//
// Replaying a trace against a live fleet is src/sim/scenario_driver.hpp's
// job; deriving each event's successor application is applyTraceEvent here,
// so the driver, tests and tooling share one mutation semantics.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/application.hpp"
#include "src/core/model.hpp"
#include "src/workload/generator.hpp"

namespace fsw {

enum class TraceEventKind : std::uint8_t {
  Arrival = 0,
  ParamDrift = 1,
  OperatorAdd = 2,
  OperatorRemove = 3,
  HostKill = 4,
  HostRevive = 5,
};

[[nodiscard]] const char* name(TraceEventKind kind) noexcept;

/// One timestamped event. Only the fields its kind names are meaningful;
/// the codec encodes exactly those, so unused fields never cost wire bytes.
struct TraceEvent {
  /// Microseconds since trace start; nondecreasing across the trace (the
  /// codec stores gaps as varints, so this is structural, not a contract
  /// the reader must re-check).
  std::uint64_t atUs = 0;
  TraceEventKind kind = TraceEventKind::Arrival;
  /// The logical application stream the event addresses (solve events
  /// only; host events carry `host` instead).
  std::uint32_t stream = 0;

  // Arrival:
  Application app;
  CommModel model = CommModel::Overlap;
  Objective objective = Objective::Period;

  // ParamDrift: multiplicative scales, applied to `service` (kNoNode =
  // every service). Results are clamped to sane ranges (see
  // applyTraceEvent) so a long trace cannot drift into degenerate numerics.
  NodeId service = kNoNode;  ///< also OperatorRemove's target
  double costScale = 1.0;
  double selScale = 1.0;

  // OperatorAdd: the new service, optionally preceded by `predecessor`
  // (kNoNode = unconstrained).
  double cost = 1.0;
  double selectivity = 1.0;
  NodeId predecessor = kNoNode;

  // HostKill / HostRevive: the fleet slot.
  std::uint32_t host = 0;
};

struct Trace {
  std::vector<TraceEvent> events;
};

/// True for the kinds that derive a successor application and trigger a
/// re-solve (everything except the host-membership events).
[[nodiscard]] bool isSolveEvent(TraceEventKind kind) noexcept;

/// The evolving state of one application stream between events.
struct StreamState {
  Application app;
  CommModel model = CommModel::Overlap;
  Objective objective = Objective::Period;
  bool live = false;  ///< an Arrival has been seen for this stream
};

/// Derives the successor state for a solve event: Arrival replaces the
/// stream wholesale; ParamDrift scales costs/selectivities in place
/// (clamped to [1e-3, 1e3] to keep long traces numerically sane);
/// OperatorAdd appends a service (and its optional precedence);
/// OperatorRemove drops a service and re-indexes the surviving
/// precedences. Throws std::runtime_error on an inconsistent event — a
/// mutation of a stream with no prior Arrival, an out-of-range
/// service/predecessor, removing the last service — so a corrupted or
/// hand-edited trace fails loudly instead of replaying garbage.
void applyTraceEvent(StreamState& state, const TraceEvent& event);

/// Generator knobs. Everything is derived from the seed passed to
/// generateTrace — two calls with equal (spec, seed) produce
/// byte-identical traces.
struct TraceSpec {
  std::size_t events = 500;   ///< total events (arrivals + mutations + host)
  std::size_t streams = 6;    ///< logical application streams
  std::size_t hosts = 2;      ///< fleet size addressed by kill/revive
  /// Kill/revive pairs injected mid-trace (each kill is revived after
  /// ~1/5 of the trace; 0 = static fleet). Capped so every kill leaves at
  /// least one host up.
  std::size_t hostKills = 1;
  /// Arrival process: heavy-tailed (bounded Pareto, shape `gapAlpha`)
  /// inter-event gaps with mean ~meanGapUs, plus bursts — with probability
  /// `burstProb` an event lands back-to-back with its predecessor (gap 0).
  double meanGapUs = 1000.0;
  double gapAlpha = 1.3;
  double burstProb = 0.25;
  /// Hot-stream skew: mutation targets are drawn Zipf-like with this
  /// exponent (0 = uniform; 1+ concentrates traffic on low streams —
  /// the hot-key case the warm-start machinery exists for).
  double skew = 1.1;
  /// Mutation mix among the non-arrival solve events (normalized).
  double driftWeight = 0.70;
  double addWeight = 0.12;
  double removeWeight = 0.08;
  double rearrivalWeight = 0.10;
  /// Shape of arriving applications (size is clamped to >= 2 so
  /// OperatorRemove always stays legal).
  WorkloadSpec workload{.n = 5};
  /// Services per application never exceed workload.n + growthCap under
  /// OperatorAdd (an add drawn beyond the cap becomes a drift instead).
  std::size_t growthCap = 3;
};

/// A deterministic trace matching the spec: the first `streams` events are
/// Arrivals (every stream exists before it mutates), host kill/revive
/// pairs are spread across the middle of the trace, and every other event
/// is drawn from the mutation mix with hot-stream skew. Timestamps are
/// nondecreasing by construction.
[[nodiscard]] Trace generateTrace(const TraceSpec& spec, std::uint64_t seed);

/// Binio codec (block kind 'T', version 1): delta-coded varint
/// timestamps, per-kind bodies, applications via the shared binary
/// application body (src/io/serialize.hpp). Byte-exact:
/// encodeTrace(decodeTrace(b)) == b. readTrace/decodeTrace throw
/// std::runtime_error on a bad magic/kind/version, truncation at any cut,
/// counts beyond the bytes present, unknown event kinds, or trailing
/// bytes — hostile inputs fail before they allocate (binio discipline).
void writeTrace(std::ostream& os, const Trace& trace);
[[nodiscard]] Trace readTrace(std::istream& is);
[[nodiscard]] std::string encodeTrace(const Trace& trace);
[[nodiscard]] Trace decodeTrace(std::string_view payload);

}  // namespace fsw
