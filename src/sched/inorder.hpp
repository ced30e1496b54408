// INORDER orchestration: given an execution graph, find the operation list
// minimizing the period (NP-hard, Theorem 1/Prop 3) or the latency.
//
// For *fixed* port orders the problem is polynomial: the INORDER rules become
// a periodic difference-constraint system (see periodic_cg.hpp) whose minimal
// feasible lambda is the optimal period for those orders. The hardness lives
// in choosing the orders, so this module offers exhaustive order enumeration
// (exact, small graphs) and heuristic orders + local search (large graphs).
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

#include "src/common/thread_pool.hpp"
#include "src/core/application.hpp"
#include "src/core/execution_graph.hpp"
#include "src/oplist/operation_list.hpp"
#include "src/sched/port_orders.hpp"

namespace fsw {

struct OrchestrationResult {
  double value = 0.0;  ///< achieved period (or latency, per the call)
  OperationList ol;
  PortOrders orders;
};

/// Incumbent dominance against an ANALYTIC floor (busy time, the period
/// lower bound), with cross-expression rounding slack. The floor and the
/// search's achieved value compute the same mathematical quantity through
/// different floating-point expressions, so they can disagree by a few ulp
/// in either direction — a plain `floor > incumbent` prune firing inside
/// that disagreement drops a candidate that would have TIED the incumbent
/// bit-exactly, and the deterministic tie-break (step-4 rank) silently
/// follows execution order instead. Only floors strictly beyond the slack
/// are dominated: 1e-12 relative is ~4 decimal orders above double ulp at
/// any magnitude and far below the 1e-6 resolution the searches certify,
/// so no candidate that matters survives spuriously. Prunes that compare
/// the incumbent against the SAME evaluator that produced it (the
/// feasibleInto probes) stay exact — they are bit-consistent by
/// construction and need no slack.
[[nodiscard]] inline bool analyticallyDominated(double floor,
                                                double incumbent) {
  return floor >
         incumbent + 1e-12 * std::max(1.0, std::abs(incumbent));
}

/// Smallest exact order enumeration that fans out over a pool. Below it the
/// search runs on the calling thread even when OrchestrationOptions::pool
/// is set: the pool's fork-join costs more than it saves. Measured on the
/// orchestrate_dag catalogue (4 vCPUs, a pool of 3 plus the caller, after
/// the bracketed period search): period searches ran 0.5-0.8x as fast
/// pooled at 4-8 orders and 1.2-3.7x from 16; the cheaper latency probes
/// ran 0.6-0.98x up to 64 orders and 1.04-1.8x from 128. The OUTORDER
/// repair waves keep the pool: their cost scales with operations and
/// restarts, not with the order count, and no break-even was measured.
inline constexpr std::size_t kPooledPeriodMinOrders = 16;
inline constexpr std::size_t kPooledLatencyMinOrders = 128;

struct OrchestrationOptions {
  /// Enumerate all port orders exactly when their count is at most this.
  std::size_t exactCap = 20000;
  /// Local-search random adjacent swaps tried per restart when not exact.
  std::size_t localSearchIters = 300;
  /// Independent local-search restarts; restart r derives its own PRNG from
  /// `seed` + r, so pooled and serial runs visit identical search chains and
  /// the deterministic reduce (lowest value, then lowest restart index)
  /// returns bit-identical winners.
  std::size_t localSearchRestarts = 4;
  std::uint64_t seed = 1;
  /// Evaluations fan out over this pool; nullptr means fully serial. Exact
  /// enumerations below kPooledPeriodMinOrders / kPooledLatencyMinOrders
  /// run on the caller regardless.
  ThreadPool* pool = nullptr;
  /// Incumbent upper bound (Bounded-Dijkstra-style pruning): an evaluation
  /// whose value provably cannot be strictly below this aborts without
  /// running the full solve. The PlanEngine threads the value achieved by a
  /// request's best-ranked candidate into the remaining orchestrations.
  /// Infinity disables pruning. Only *independently reduced* evaluations
  /// are pruned — the exhaustive order enumeration and the standalone
  /// list-scheduling probe — where a dominated order can never be the
  /// returned winner; the heuristic local search always runs unbounded
  /// because it may descend through dominated intermediate orders to a
  /// winner below the incumbent.
  double upperBound = std::numeric_limits<double>::infinity();
  /// When non-null, every aborted solve increments this counter (shared
  /// across pool workers; the engine surfaces it as
  /// EngineStats.seedBoundAborts).
  std::atomic<std::size_t>* boundAborts = nullptr;
  /// Memory-discipline observability (EngineStats.evalProbes /
  /// .scratchHeapAllocs / .arenaBytesHighWater). A search aggregates its
  /// per-worker scratch counters into these once, after the parallel
  /// sections complete: probes = hot-loop candidate evaluations,
  /// scratchHeapAllocs = buffer-growth events observed by the reusable
  /// scratch (constraint storage, solve vectors, arena blocks — ~0 in
  /// steady state), arenaBytesHighWater = max bytes live in any search
  /// arena (accumulated by max, not sum).
  std::atomic<std::size_t>* evalProbes = nullptr;
  std::atomic<std::size_t>* scratchHeapAllocs = nullptr;
  std::atomic<std::size_t>* arenaBytesHighWater = nullptr;
};

/// Minimal INORDER period achievable with the given port orders, or nullopt
/// if the orders are inconsistent (cyclic sequencing requirements) — or if
/// `upperBound` is finite and the minimal period provably cannot be strictly
/// below it (per-node busy time exceeds the bound, or the system is already
/// infeasible at the bound), in which case the solve aborts early and
/// `boundAborts` (when non-null) is incremented.
[[nodiscard]] std::optional<OrchestrationResult> inorderPeriodForOrders(
    const Application& app, const ExecutionGraph& graph,
    const PortOrders& orders,
    double upperBound = std::numeric_limits<double>::infinity(),
    std::atomic<std::size_t>* boundAborts = nullptr);

/// The minimal-begin-times INORDER schedule with the given orders at a
/// *fixed* period lambda, or nullopt if infeasible. Because the solution is
/// componentwise minimal, its latency is the smallest achievable for these
/// orders at this lambda — the primitive behind the bi-criteria front.
[[nodiscard]] std::optional<OperationList> inorderScheduleAtLambda(
    const Application& app, const ExecutionGraph& graph,
    const PortOrders& orders, double lambda);

/// Minimal one-port latency (single data set, valid for both INORDER and
/// OUTORDER) with the given port orders, or nullopt if inconsistent. The
/// returned OL serializes data sets: lambda = latency (Section 2.2,
/// "Latency"). A finite `upperBound` aborts (and counts) solves whose
/// per-node busy time already exceeds the bound.
[[nodiscard]] std::optional<OrchestrationResult> oneportLatencyForOrders(
    const Application& app, const ExecutionGraph& graph,
    const PortOrders& orders,
    double upperBound = std::numeric_limits<double>::infinity(),
    std::atomic<std::size_t>* boundAborts = nullptr);

/// Best INORDER period over port orders (exact below exactCap, otherwise
/// heuristic + local search).
[[nodiscard]] OrchestrationResult inorderOrchestratePeriod(
    const Application& app, const ExecutionGraph& graph,
    const OrchestrationOptions& opt = {});

/// Best one-port latency over port orders (exact below exactCap, otherwise
/// heuristic + local search).
[[nodiscard]] OrchestrationResult oneportOrchestrateLatency(
    const Application& app, const ExecutionGraph& graph,
    const OrchestrationOptions& opt = {});

}  // namespace fsw
