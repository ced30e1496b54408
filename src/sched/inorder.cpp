#include "src/sched/inorder.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "src/common/arena.hpp"
#include "src/common/prng.hpp"
#include "src/sched/eval_scratch.hpp"
#include "src/sched/periodic_cg.hpp"

namespace fsw {
namespace {

constexpr double kUnbounded = std::numeric_limits<double>::infinity();

/// Value-only evaluation of one candidate: build the constraint system into
/// the worker's scratch, solve, and return only the objective. The winner
/// is re-evaluated in full exactly once at the end of a search — solves are
/// pure, so the deferred extraction is bit-identical and the hot loop never
/// materializes an OperationList.
using ValueFn = std::optional<double> (*)(const EvalContext&, EvalScratch&,
                                          PortOrdersView, double,
                                          std::atomic<std::size_t>*);

/// Full evaluation (value + operation list) of one candidate — the cold
/// path behind the public *ForOrders entry points.
using ForOrdersFn = std::optional<OrchestrationResult> (*)(
    const Application&, const ExecutionGraph&, const PortOrders&, double,
    std::atomic<std::size_t>*);

std::optional<double> periodValue(const EvalContext& ctx, EvalScratch& s,
                                  PortOrdersView orders, double upperBound,
                                  std::atomic<std::size_t>* boundAborts) {
  const std::size_t cCap = s.pcg.constraintCapacity();
  const std::size_t xCap = s.x.capacity();
  ++s.probes;
  const double lo = ctx.busyLowerBound();
  const double hi = 2.0 * ctx.totalDuration() + 1.0;
  std::optional<double> value;
  if (upperBound < hi && analyticallyDominated(lo, upperBound)) {
    // Incumbent pruning: the minimal period is >= the busy lower bound, so
    // this solve cannot strictly beat (or tie) the incumbent.
    if (boundAborts != nullptr) {
      boundAborts->fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    ctx.buildSystem(orders, s);
    if (upperBound < hi && !s.pcg.feasibleInto(upperBound, s.x)) {
      // By monotone feasibility the minimal period is > upperBound.
      if (boundAborts != nullptr) {
        boundAborts->fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      value = s.pcg.minLambdaValue(lo, hi, s.arena);
    }
  }
  if (s.pcg.constraintCapacity() != cCap) ++s.heapAllocs;
  if (s.x.capacity() != xCap) ++s.heapAllocs;
  return value;
}

std::optional<double> latencyValue(const EvalContext& ctx, EvalScratch& s,
                                   PortOrdersView orders, double upperBound,
                                   std::atomic<std::size_t>* boundAborts) {
  const std::size_t cCap = s.pcg.constraintCapacity();
  const std::size_t xCap = s.x.capacity();
  ++s.probes;
  std::optional<double> value;
  if (std::isfinite(upperBound) &&
      analyticallyDominated(ctx.busyLowerBound(), upperBound)) {
    // Every operation of a node is serialized on its one port within the
    // single data set's span, so the busy time lower bounds the latency.
    if (boundAborts != nullptr) {
      boundAborts->fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    ctx.buildSystem(orders, s);
    if (s.pcg.solveInto(/*lambda=*/0.0, s.x)) {  // lambda unused when acyclic
      value = ctx.latencyOf(s.x);
    }
  }
  if (s.pcg.constraintCapacity() != cCap) ++s.heapAllocs;
  if (s.x.capacity() != xCap) ++s.heapAllocs;
  return value;
}

OrchestrationResult betterOf(OrchestrationResult a, OrchestrationResult b) {
  return (b.value < a.value) ? std::move(b) : std::move(a);
}

/// Winner of a value-only search: objective plus a snapshot of the orders
/// that achieved it (three flat vectors — cheap to copy on improvement).
struct ValueWinner {
  double value = std::numeric_limits<double>::infinity();
  PortOrders orders;

  void offer(double v, PortOrdersView po) {
    if (v < value) {
      value = v;
      orders = PortOrders(po);
    }
  }
};

/// One seeded hill-climbing chain of random adjacent swaps in one node's
/// receive or send order. Pure function of (start, seed), so restarts can
/// run on any thread and still reproduce. Runs entirely on the calling
/// thread over one scratch.
ValueWinner localSearchChain(const EvalContext& ctx, EvalScratch& s,
                             ValueFn evalValue, const ValueWinner& start,
                             std::size_t iters, std::uint64_t seed) {
  ValueWinner best = start;
  Prng rng(seed);
  PortOrders current = start.orders;
  double currentValue = start.value;
  const std::size_t n = ctx.nodeCount();
  for (std::size_t it = 0; it < iters; ++it) {
    const NodeId i = static_cast<NodeId>(
        rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    const bool inSide = rng.bernoulli(0.5);
    auto seq = inSide ? current.in(i) : current.out(i);
    if (seq.size() < 2) continue;
    const auto pos = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(seq.size()) - 2));
    std::swap(seq[pos], seq[pos + 1]);
    const auto v = evalValue(ctx, s, current, kUnbounded, nullptr);
    if (v && *v < currentValue - 1e-12) {
      currentValue = *v;
      best.offer(*v, current);
    } else {
      std::swap(seq[pos], seq[pos + 1]);  // revert
    }
  }
  return best;
}

/// Shared order-search driver for period and latency objectives. All
/// parallel reduces are index-ordered with strict-less acceptance, so the
/// winner (value, then earliest enumeration index / restart) is identical
/// with and without a pool. The inner loop is value-only over per-worker
/// scratch; the winning orders are re-evaluated in full exactly once.
OrchestrationResult searchOrders(const Application& app,
                                 const ExecutionGraph& graph,
                                 const OrchestrationOptions& opt, bool cyclic,
                                 ValueFn evalValue, ForOrdersFn evalFull) {
  const EvalContext ctx(app, graph, cyclic);
  const std::size_t combos = countPortOrders(graph, opt.exactCap);
  const bool exact = combos < opt.exactCap;
  // A small exact enumeration runs on the caller (see kPooled*MinOrders).
  ThreadPool* const pool =
      exact && combos < (cyclic ? kPooledPeriodMinOrders
                                : kPooledLatencyMinOrders)
          ? nullptr
          : opt.pool;
  WorkerScratchPool<EvalScratch> scratch(pool);
  ValueWinner best;

  // Aggregates the per-worker counters into the engine-facing atomics once,
  // after all evaluations completed.
  MonotonicArena blockArena;
  auto publishStats = [&] {
    std::size_t probes = 0;
    std::size_t allocs = blockArena.heapAllocs();
    std::size_t highWater = blockArena.highWater();
    scratch.forEach([&](EvalScratch& s) {
      probes += s.probes;
      allocs += s.heapAllocs + s.arena.heapAllocs();
      highWater = std::max(highWater, s.arena.highWater());
    });
    if (opt.evalProbes != nullptr) {
      opt.evalProbes->fetch_add(probes, std::memory_order_relaxed);
    }
    if (opt.scratchHeapAllocs != nullptr) {
      opt.scratchHeapAllocs->fetch_add(allocs, std::memory_order_relaxed);
    }
    if (opt.arenaBytesHighWater != nullptr) {
      atomicMaxRelaxed(*opt.arenaBytesHighWater, highWater);
    }
  };
  auto finish = [&]() -> OrchestrationResult {
    publishStats();
    if (!std::isfinite(best.value)) {
      OrchestrationResult none;
      none.value = std::numeric_limits<double>::infinity();
      return none;
    }
    // Single full re-evaluation of the winner; solves are pure, so the
    // value matches the probe bit-for-bit.
    auto full = evalFull(app, graph, best.orders, kUnbounded, nullptr);
    if (!full) {  // unreachable: the winner solved feasibly when probed
      OrchestrationResult none;
      none.value = std::numeric_limits<double>::infinity();
      return none;
    }
    return std::move(*full);
  };

  if (exact) {
    // Materialize the enumeration in flat chunks (one shared offset table,
    // one arena-backed data buffer recycled across flushes) and fan the
    // constraint-system solves out over the pool.
    const PortOrders proto = PortOrders::canonical(graph);
    const std::size_t stride = proto.flatSize();
    const std::size_t blockCap = std::min<std::size_t>(combos, 1024);
    ArenaVector<NodeId> blockData(&blockArena);
    blockData.reserve(blockCap * stride);
    std::size_t count = 0;
    auto viewOf = [&](std::size_t i) {
      return PortOrdersView(proto.size(), proto.inOffsets(),
                            proto.outOffsets(), blockData.data() + i * stride);
    };
    auto flush = [&] {
      auto results = parallelMap<std::optional<double>>(
          pool, count, [&](std::size_t i) {
            auto s = scratch.lease();
            return evalValue(ctx, *s, viewOf(i), opt.upperBound,
                             opt.boundAborts);
          });
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i]) best.offer(*results[i], viewOf(i));
      }
      blockData.clear();  // keeps the buffer
      count = 0;
    };
    forEachPortOrders(graph, opt.exactCap, [&](const PortOrders& po) {
      blockData.append(po.flatData(), stride);
      ++count;
      if (count >= 1024) flush();
      return true;
    });
    flush();
    return finish();
  }

  // The heuristic path runs unbounded on purpose: local search can descend
  // *through* values above the incumbent to a winner below it, so pruning
  // its starts or steps could degrade the returned plan. The incumbent
  // bound only prunes the exhaustive path above, where every order is
  // evaluated independently and a pruned (dominated) order can never be
  // the returned winner.
  for (const PortOrders& start :
       {PortOrders::heuristic(app, graph), PortOrders::canonical(graph)}) {
    auto s = scratch.lease();
    if (auto v = evalValue(ctx, *s, start, kUnbounded, nullptr)) {
      best.offer(*v, start);
    }
  }
  if (!std::isfinite(best.value)) return finish();

  // Independent seeded restarts from the common start, fanned over the pool.
  const ValueWinner start = best;
  const std::size_t restarts = std::max<std::size_t>(1, opt.localSearchRestarts);
  auto chains = parallelMap<ValueWinner>(
      pool, restarts, [&](std::size_t r) {
        auto s = scratch.lease();
        return localSearchChain(ctx, *s, evalValue, start,
                                opt.localSearchIters, opt.seed + r);
      });
  for (auto& r : chains) best.offer(r.value, r.orders);
  return finish();
}

}  // namespace

std::optional<OrchestrationResult> inorderPeriodForOrders(
    const Application& app, const ExecutionGraph& graph,
    const PortOrders& orders, double upperBound,
    std::atomic<std::size_t>* boundAborts) {
  const EvalContext ctx(app, graph, /*cyclic=*/true);
  EvalScratch s;
  const double lo = ctx.busyLowerBound();
  const double hi = 2.0 * ctx.totalDuration() + 1.0;
  if (upperBound < hi && analyticallyDominated(lo, upperBound)) {
    // Incumbent pruning: the minimal period is >= the busy lower bound, and
    // by monotone feasibility it is > upperBound whenever the system is
    // infeasible at upperBound. Either way this solve cannot strictly beat
    // (or tie) the incumbent, so skip the binary search entirely. Survivors
    // run the untouched [lo, hi] search and return bit-identical values.
    if (boundAborts != nullptr) {
      boundAborts->fetch_add(1, std::memory_order_relaxed);
    }
    return std::nullopt;
  }
  ctx.buildSystem(orders, s);
  if (upperBound < hi && !s.pcg.feasibleInto(upperBound, s.x)) {
    if (boundAborts != nullptr) {
      boundAborts->fetch_add(1, std::memory_order_relaxed);
    }
    return std::nullopt;
  }
  const auto lambda = s.pcg.minLambdaInto(lo, hi, s.x, s.arena);
  if (!lambda) return std::nullopt;
  OrchestrationResult out;
  out.value = *lambda;
  out.ol = ctx.extract(s.x, *lambda);
  out.orders = orders;
  return out;
}

std::optional<OperationList> inorderScheduleAtLambda(const Application& app,
                                                     const ExecutionGraph& graph,
                                                     const PortOrders& orders,
                                                     double lambda) {
  const EvalContext ctx(app, graph, /*cyclic=*/true);
  EvalScratch s;
  ctx.buildSystem(orders, s);
  if (!s.pcg.solveInto(lambda, s.x)) return std::nullopt;
  return ctx.extract(s.x, lambda);
}

std::optional<OrchestrationResult> oneportLatencyForOrders(
    const Application& app, const ExecutionGraph& graph,
    const PortOrders& orders, double upperBound,
    std::atomic<std::size_t>* boundAborts) {
  const EvalContext ctx(app, graph, /*cyclic=*/false);
  EvalScratch s;
  // Incumbent pruning: every operation of a node is serialized on its one
  // port within the single data set's span, so the per-node busy time lower
  // bounds the latency for any orders. The finiteness guard keeps the
  // busy-time comparison off unbounded searches.
  if (std::isfinite(upperBound) &&
      analyticallyDominated(ctx.busyLowerBound(), upperBound)) {
    if (boundAborts != nullptr) {
      boundAborts->fetch_add(1, std::memory_order_relaxed);
    }
    return std::nullopt;
  }
  ctx.buildSystem(orders, s);
  if (!s.pcg.solveInto(/*lambda=*/0.0, s.x)) return std::nullopt;
  OrchestrationResult out;
  out.ol = ctx.extract(s.x, /*lambda=*/1.0);
  out.value = out.ol.latency();
  // Serialize consecutive data sets: P = L (Section 2.2, "Latency").
  out.ol.setLambda(out.value);
  out.orders = orders;
  return out;
}

OrchestrationResult inorderOrchestratePeriod(const Application& app,
                                             const ExecutionGraph& graph,
                                             const OrchestrationOptions& opt) {
  return searchOrders(app, graph, opt, /*cyclic=*/true, &periodValue,
                      &inorderPeriodForOrders);
}

OrchestrationResult oneportOrchestrateLatency(
    const Application& app, const ExecutionGraph& graph,
    const OrchestrationOptions& opt) {
  OrchestrationResult best = searchOrders(app, graph, opt, /*cyclic=*/false,
                                          &latencyValue,
                                          &oneportLatencyForOrders);
  // The list-scheduling packing is often much stronger than order search on
  // communication-bound graphs (e.g. counter-example B.2).
  if (auto r =
          oneportLatencyForOrders(app, graph, PortOrders::listLatency(app, graph),
                                  opt.upperBound, opt.boundAborts)) {
    best = betterOf(std::move(best), std::move(*r));
  }
  return best;
}

}  // namespace fsw
