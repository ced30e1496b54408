#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "src/common/prng.hpp"
#include "src/sched/eval_scratch.hpp"
#include "src/sched/periodic_cg.hpp"
#include "src/sched/port_orders.hpp"
#include "src/workload/generator.hpp"
#include "src/workload/paper_instances.hpp"
#include "tests/build_config.hpp"

namespace fsw {
namespace {

/// Optimized unsanitized builds check every system; others a subsample.
constexpr std::size_t kStride = (kOptimized && !kSanitized) ? 1 : 23;

/// The reference: the plain bisection minLambdaInto ran before it was
/// bracketed with the critical cycle ratio — one Bellman-Ford solve per
/// probe, hi first, a final solve at the returned lambda.
std::optional<double> legacyMinLambda(const PeriodicConstraintGraph& pcg,
                                      double lo, double hi,
                                      std::vector<double>& x,
                                      double tol = 1e-9) {
  if (!pcg.solveInto(hi, x)) return std::nullopt;
  if (pcg.solveInto(lo, x)) return lo;
  while (hi - lo > tol * std::max(1.0, hi)) {
    const double mid = 0.5 * (lo + hi);
    if (pcg.solveInto(mid, x)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  (void)pcg.solveInto(hi, x);
  return hi;
}

bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Empty when the bracketed search (with and without the final solve, on a
/// reused arena) returns the reference's optional, value bits and solution
/// bits; otherwise what differs.
std::string compareWithLegacy(const PeriodicConstraintGraph& pcg, double lo,
                              double hi, MonotonicArena& arena) {
  std::vector<double> xRef;
  std::vector<double> x;
  const auto ref = legacyMinLambda(pcg, lo, hi, xRef);
  const auto got = pcg.minLambdaInto(lo, hi, x, arena);
  const auto valueOnly = pcg.minLambdaValue(lo, hi, arena);
  const auto show = [](const std::optional<double>& v) {
    return v ? std::to_string(*v) : std::string("none");
  };
  if (ref.has_value() != got.has_value() ||
      ref.has_value() != valueOnly.has_value()) {
    return "optional differs: legacy " + show(ref) + ", bracketed " +
           show(got) + ", value-only " + show(valueOnly);
  }
  if (!ref) return {};
  if (!sameBits(*ref, *got) || !sameBits(*ref, *valueOnly)) {
    return "value bits differ: legacy " + show(ref) + ", bracketed " +
           show(got) + ", value-only " + show(valueOnly);
  }
  if (x.size() != xRef.size() ||
      std::memcmp(x.data(), xRef.data(), x.size() * sizeof(double)) != 0) {
    return "solution bits differ at lambda " + show(ref);
  }
  return {};
}

/// A random system: `vars` variables, weights drawn at `scale`, k in
/// {0, 1, 2}. Kinds: 0 general, 1 acyclic, 2 with a zero-weight k = 0
/// cycle, 3 with a positive k = 0 cycle, 4 integer weights (exact ties).
PeriodicConstraintGraph randomSystem(Prng& rng, std::size_t vars,
                                     double scale, int kind) {
  PeriodicConstraintGraph pcg;
  pcg.addVariables(vars);
  const auto pick = [&] {
    return static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(vars) - 1));
  };
  const std::size_t edges = vars + static_cast<std::size_t>(
                                       rng.uniformInt(0, 2 * vars));
  for (std::size_t e = 0; e < edges; ++e) {
    std::size_t u = pick();
    std::size_t v = pick();
    double w = kind == 4 ? scale * static_cast<double>(rng.uniformInt(0, 9))
                         : scale * rng.uniform(0.0, 1.0);
    if (rng.bernoulli(0.1)) w = 0.0;
    if (rng.bernoulli(0.1)) w = -w;
    int k = static_cast<int>(rng.uniformInt(0, 2));
    if (kind == 1) {
      if (u == v) continue;
      if (u > v) std::swap(u, v);
    } else if (k == 0 && v <= u) {
      // Backward constraints carry k >= 1 unless the kind plants a k = 0
      // cycle, so most systems have a finite critical ratio.
      k = 1;
    }
    pcg.addConstraint(u, v, w, k);
  }
  if ((kind == 2 || kind == 3) && vars >= 2) {
    const std::size_t a = pick();
    std::size_t b = pick();
    if (b == a) b = (a + 1) % vars;
    const double w = kind == 2 ? 0.0 : scale * rng.uniform(0.01, 1.0);
    pcg.addConstraint(a, b, w, 0);
    pcg.addConstraint(b, a, kind == 2 ? 0.0 : w, 0);
  }
  return pcg;
}

TEST(PeriodicCg, EmptySystemFeasible) {
  PeriodicConstraintGraph pcg;
  pcg.addVariable();
  EXPECT_TRUE(pcg.feasible(1.0));
  EXPECT_DOUBLE_EQ((*pcg.solve(1.0))[0], 0.0);
}

TEST(PeriodicCg, SimpleChain) {
  PeriodicConstraintGraph pcg;
  const auto a = pcg.addVariable();
  const auto b = pcg.addVariable();
  const auto c = pcg.addVariable();
  pcg.addConstraint(a, b, 2.0);
  pcg.addConstraint(b, c, 3.0);
  const auto x = pcg.solve(1.0);
  ASSERT_TRUE(x);
  EXPECT_DOUBLE_EQ((*x)[a], 0.0);
  EXPECT_DOUBLE_EQ((*x)[b], 2.0);
  EXPECT_DOUBLE_EQ((*x)[c], 5.0);
}

TEST(PeriodicCg, PositiveCycleInfeasibleAtAnyLambdaWithoutK) {
  PeriodicConstraintGraph pcg;
  const auto a = pcg.addVariable();
  const auto b = pcg.addVariable();
  pcg.addConstraint(a, b, 1.0);
  pcg.addConstraint(b, a, 1.0);
  EXPECT_FALSE(pcg.feasible(100.0));
  EXPECT_FALSE(pcg.minLambda(0.0, 100.0).has_value());
}

TEST(PeriodicCg, CycleWithKFeasibleAboveThreshold) {
  // x_b >= x_a + 3 and x_a >= x_b + 4 - lambda: feasible iff lambda >= 7.
  PeriodicConstraintGraph pcg;
  const auto a = pcg.addVariable();
  const auto b = pcg.addVariable();
  pcg.addConstraint(a, b, 3.0);
  pcg.addConstraint(b, a, 4.0, 1);
  EXPECT_FALSE(pcg.feasible(6.9));
  EXPECT_TRUE(pcg.feasible(7.0));
  const auto r = pcg.minLambda(0.0, 100.0);
  ASSERT_TRUE(r);
  EXPECT_NEAR(r->lambda, 7.0, 1e-6);
}

TEST(PeriodicCg, MinLambdaTakesMaxOverCycles) {
  // Two cycles with ratios 5 and 23/3: min lambda = 23/3.
  PeriodicConstraintGraph pcg;
  const auto a = pcg.addVariable();
  const auto b = pcg.addVariable();
  const auto c = pcg.addVariable();
  pcg.addConstraint(a, b, 2.0);
  pcg.addConstraint(b, a, 3.0, 1);
  pcg.addConstraint(a, c, 20.0 / 3.0);
  pcg.addConstraint(c, a, 1.0, 1);
  const auto r = pcg.minLambda(0.0, 100.0);
  ASSERT_TRUE(r);
  EXPECT_NEAR(r->lambda, 23.0 / 3.0, 1e-6);
}

TEST(PeriodicCg, MultiPeriodCycle) {
  // x_b >= x_a + 10 and x_a >= x_b + 10 - 2*lambda: lambda >= 10.
  PeriodicConstraintGraph pcg;
  const auto a = pcg.addVariable();
  const auto b = pcg.addVariable();
  pcg.addConstraint(a, b, 10.0);
  pcg.addConstraint(b, a, 10.0, 2);
  const auto r = pcg.minLambda(0.0, 100.0);
  ASSERT_TRUE(r);
  EXPECT_NEAR(r->lambda, 10.0, 1e-6);
}

TEST(PeriodicCg, SolutionSatisfiesAllConstraints) {
  PeriodicConstraintGraph pcg;
  std::vector<PeriodicConstraintGraph::Var> v;
  for (int i = 0; i < 6; ++i) v.push_back(pcg.addVariable());
  pcg.addConstraint(v[0], v[1], 1.5);
  pcg.addConstraint(v[1], v[2], 2.5);
  pcg.addConstraint(v[2], v[3], 0.5);
  pcg.addConstraint(v[3], v[0], 1.0, 1);
  pcg.addConstraint(v[4], v[5], 3.0);
  pcg.addConstraint(v[5], v[4], 3.0, 1);
  const auto r = pcg.minLambda(0.0, 50.0);
  ASSERT_TRUE(r);
  EXPECT_NEAR(r->lambda, 6.0, 1e-6);
  const auto& x = r->potentials;
  EXPECT_GE(x[v[1]] - x[v[0]], 1.5 - 1e-9);
  EXPECT_GE(x[v[2]] - x[v[1]], 2.5 - 1e-9);
  EXPECT_GE(x[v[0]] - x[v[3]], 1.0 - r->lambda - 1e-9);
}

TEST(PeriodicCg, NegativeKRejected) {
  PeriodicConstraintGraph pcg;
  const auto a = pcg.addVariable();
  const auto b = pcg.addVariable();
  EXPECT_THROW(pcg.addConstraint(a, b, 1.0, -1), std::invalid_argument);
}

TEST(PeriodicCg, OutOfRangeVariableRejected) {
  PeriodicConstraintGraph pcg;
  const auto a = pcg.addVariable();
  EXPECT_THROW(pcg.addConstraint(a, 5, 1.0), std::out_of_range);
}

TEST(PeriodicCg, MinLambdaAtLowerBound) {
  PeriodicConstraintGraph pcg;
  const auto a = pcg.addVariable();
  const auto b = pcg.addVariable();
  pcg.addConstraint(a, b, 1.0);
  const auto r = pcg.minLambda(5.0, 100.0);
  ASSERT_TRUE(r);
  EXPECT_DOUBLE_EQ(r->lambda, 5.0);  // already feasible at lo
}

TEST(PeriodicCg, BracketedSearchMatchesLegacyBisection) {
  // Every port-order system the paper instances enumerate (up to the exact
  // search's default cap), plus those of a few random layered DAGs: the
  // bracketed search must return the plain bisection's optional, period
  // bits and solution bits.
  std::vector<std::pair<std::string, PaperInstance>> shapes;
  shapes.emplace_back("sec23", sec23Example());
  shapes.emplace_back("B2", counterexampleB2());
  shapes.emplace_back("B3", counterexampleB3());
  Prng shapeRng(2009);
  for (int k = 0; k < 4; ++k) {
    WorkloadSpec spec;
    spec.n = 7 + static_cast<std::size_t>(k);
    PaperInstance dag{randomApplication(spec, shapeRng), ExecutionGraph(0)};
    dag.graph = randomLayeredDag(dag.app, 3, 2, shapeRng);
    shapes.emplace_back("dag" + std::to_string(k), std::move(dag));
  }
  MonotonicArena arena;
  for (const auto& [label, inst] : shapes) {
    const EvalContext ctx(inst.app, inst.graph, /*cyclic=*/true);
    EvalScratch s;
    const double lo = ctx.busyLowerBound();
    const double hi = 2.0 * ctx.totalDuration() + 1.0;
    std::size_t index = 0;
    std::size_t checked = 0;
    forEachPortOrders(inst.graph, 20000, [&](const PortOrders& po) {
      if (index++ % kStride != 0) return true;
      ctx.buildSystem(po, s);
      const std::string diff = compareWithLegacy(s.pcg, lo, hi, arena);
      EXPECT_TRUE(diff.empty()) << label << " orders #" << index - 1 << ": "
                                << diff;
      ++checked;
      return diff.empty();
    });
    EXPECT_GT(checked, 0u) << label;
  }

  // Random systems at magnitudes 1e-3 .. 1e6, with acyclic ones, zero and
  // positive k = 0 cycles and integer (tie-heavy) weights. The bracket is
  // also checked where lambda* sits exactly at lo and where hi is
  // infeasible.
  Prng rng(14);
  const std::size_t systems = kOptimized && !kSanitized ? 3000 : 300;
  for (std::size_t t = 0; t < systems; ++t) {
    const double scale =
        std::pow(10.0, static_cast<double>(rng.uniformInt(-3, 6)));
    const auto vars = static_cast<std::size_t>(rng.uniformInt(1, 12));
    const int kind = static_cast<int>(rng.uniformInt(0, 4));
    const PeriodicConstraintGraph pcg = randomSystem(rng, vars, scale, kind);
    double lo = rng.bernoulli(0.5) ? 0.0 : scale * rng.uniform(0.0, 2.0);
    double hi = lo + scale * rng.uniform(0.5, 40.0);
    std::vector<double> x;
    if (const auto star = legacyMinLambda(pcg, lo, hi, x)) {
      const std::string atLo = compareWithLegacy(pcg, *star, hi, arena);
      EXPECT_TRUE(atLo.empty()) << "system " << t << " at lo = lambda*: "
                                << atLo;
      if (*star > lo) {
        const double below = lo + 0.5 * (*star - lo);
        const std::string hiInfeasible =
            compareWithLegacy(pcg, lo, below, arena);
        EXPECT_TRUE(hiInfeasible.empty())
            << "system " << t << " with hi infeasible: " << hiInfeasible;
      }
    }
    const std::string diff = compareWithLegacy(pcg, lo, hi, arena);
    EXPECT_TRUE(diff.empty()) << "system " << t << " (kind " << kind
                              << ", scale " << scale << "): " << diff;
  }
}

TEST(PeriodicCg, BracketFallsBackOnZeroTransitCycles) {
  // A zero-weight k = 0 cycle leaves Howard's ratio undefined on its policy
  // cycle; the search falls back to the plain bisection and still returns
  // its bits. The critical ratio of the rest is 7.
  PeriodicConstraintGraph pcg;
  const auto a = pcg.addVariable();
  const auto b = pcg.addVariable();
  const auto c = pcg.addVariable();
  pcg.addConstraint(a, b, 0.0);
  pcg.addConstraint(b, a, 0.0);
  pcg.addConstraint(a, c, 3.0);
  pcg.addConstraint(c, a, 4.0, 1);
  MonotonicArena arena;
  EXPECT_EQ(compareWithLegacy(pcg, 0.0, 100.0, arena), "");
  std::vector<double> x;
  const auto lambda = pcg.minLambdaInto(0.0, 100.0, x, arena);
  ASSERT_TRUE(lambda);
  EXPECT_NEAR(*lambda, 7.0, 1e-6);

  // A positive k = 0 cycle makes every lambda infeasible.
  PeriodicConstraintGraph stuck;
  stuck.addVariables(2);
  stuck.addConstraint(0, 1, 1.0);
  stuck.addConstraint(1, 0, 0.5);
  EXPECT_EQ(compareWithLegacy(stuck, 0.0, 100.0, arena), "");
  EXPECT_FALSE(stuck.minLambdaInto(0.0, 100.0, x, arena).has_value());
}

TEST(PeriodicCg, PositiveZeroTransitCycleIsInfeasibleAtOnce) {
  // Port orders whose rules deadlock: a k = 0 cycle 1 -> 2 -> 1 of weight
  // w beside a ratio-7 cycle 0 -> 1 -> 0. Its gain does not depend on
  // lambda, so no lambda is feasible. Howard's iteration stops on it; a w
  // of at least twice the rounding margin returns nullopt without the
  // plain search's solves, a smaller one falls back to them. A 40-variable
  // tail makes the lo solve pause after 16 rounds, as large systems do.
  MonotonicArena arena;
  std::vector<double> x;
  for (const std::size_t tail : {0u, 40u}) {
    for (const double w : {1e-11, 1e-9, 0.5, 1.0, 1e6}) {
      PeriodicConstraintGraph pcg;
      pcg.addVariables(3 + tail);
      pcg.addConstraint(0, 1, 3.0);
      pcg.addConstraint(1, 0, 4.0, 1);
      pcg.addConstraint(1, 2, w);
      pcg.addConstraint(2, 1, 0.0);
      for (std::size_t i = 0; i < tail; ++i) pcg.addConstraint(2 + i, 3 + i, 1.0);
      EXPECT_EQ(compareWithLegacy(pcg, 0.0, 100.0, arena), "")
          << "w = " << w << " tail = " << tail;
      EXPECT_FALSE(pcg.minLambdaInto(0.0, 100.0, x, arena).has_value());
      EXPECT_FALSE(pcg.minLambdaValue(0.0, 100.0, arena).has_value());
    }
    // Below the solver's 1e-12 slack the cycle never relaxes: lambda 7.
    PeriodicConstraintGraph slack;
    slack.addVariables(3 + tail);
    slack.addConstraint(0, 1, 3.0);
    slack.addConstraint(1, 0, 4.0, 1);
    slack.addConstraint(1, 2, 1e-13);
    slack.addConstraint(2, 1, 0.0);
    for (std::size_t i = 0; i < tail; ++i) slack.addConstraint(2 + i, 3 + i, 1.0);
    EXPECT_EQ(compareWithLegacy(slack, 0.0, 100.0, arena), "");
    const auto lambda = slack.minLambdaInto(0.0, 100.0, x, arena);
    ASSERT_TRUE(lambda);
    EXPECT_NEAR(*lambda, 7.0, 1e-6);
  }
}

TEST(PeriodicCg, BracketFallsBackOnNonFiniteInput) {
  // Non-finite weights and bounds skip Howard entirely; the plain bisection
  // decides, as it always did.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  MonotonicArena arena;
  for (const double w : {inf, -inf, nan}) {
    PeriodicConstraintGraph pcg;
    pcg.addVariables(3);
    pcg.addConstraint(0, 1, 3.0);
    pcg.addConstraint(1, 0, 4.0, 1);
    pcg.addConstraint(1, 2, w);
    pcg.addConstraint(2, 1, 1.0, 1);
    EXPECT_EQ(compareWithLegacy(pcg, 0.0, 100.0, arena), "") << "w = " << w;
  }
  PeriodicConstraintGraph pcg;
  pcg.addVariables(2);
  pcg.addConstraint(0, 1, 3.0);
  pcg.addConstraint(1, 0, 4.0, 1);
  EXPECT_EQ(compareWithLegacy(pcg, 0.0, inf, arena), "");
  EXPECT_EQ(compareWithLegacy(pcg, nan, 100.0, arena), "");
}

TEST(PeriodicCg, WarmArenaStopsAllocating) {
  PeriodicConstraintGraph pcg;
  pcg.addVariables(4);
  pcg.addConstraint(0, 1, 2.0);
  pcg.addConstraint(1, 2, 2.5);
  pcg.addConstraint(2, 0, 1.0, 1);
  pcg.addConstraint(2, 3, 0.5);
  pcg.addConstraint(3, 1, 0.25, 1);
  MonotonicArena arena;
  std::vector<double> x;
  ASSERT_TRUE(pcg.minLambdaInto(0.0, 100.0, x, arena));
  const std::size_t allocs = arena.heapAllocs();
  const std::size_t capacity = x.capacity();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pcg.minLambdaInto(0.0, 100.0, x, arena));
    ASSERT_TRUE(pcg.minLambdaValue(0.0, 100.0, arena));
  }
  EXPECT_EQ(arena.heapAllocs(), allocs);
  EXPECT_EQ(x.capacity(), capacity);
}

}  // namespace
}  // namespace fsw
