#include "src/sched/periodic_cg.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fsw {
namespace {

/// Relaxation slack of the Bellman-Ford solver: a constraint relaxes only
/// when it raises its target by more than this.
constexpr double kSlack = 1e-12;
/// Unit roundoff of double.
constexpr double kUnit = std::numeric_limits<double>::epsilon() / 2;
constexpr std::uint32_t kNoPolicy = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint8_t kUnvisited = 0;
constexpr std::uint8_t kOnWalk = 1;
constexpr std::uint8_t kDone = 2;
/// Howard iterations before the search gives up and falls back to the plain
/// bisection (constraint systems of the order search converge in a few).
constexpr std::size_t kHowardMaxIterations = 64;
/// Bellman-Ford rounds at lo before Howard's iteration is asked whether lo
/// is certifiably infeasible. Feasible solves of the order search mostly
/// settle sooner; an infeasible one would otherwise run all nVars + 2.
constexpr std::size_t kLoRounds = 16;

/// The plain bisection loop: lo infeasible, hi feasible; returns the final
/// hi. Every caller runs this exact lo/hi/mid arithmetic, whatever
/// `feasible` decides with.
template <typename Feasible>
double bisect(double lo, double hi, double tol, Feasible&& feasible) {
  while (hi - lo > tol * std::max(1.0, hi)) {
    const double mid = 0.5 * (lo + hi);
    if (feasible(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace

PeriodicConstraintGraph::Var PeriodicConstraintGraph::addVariable() {
  return nVars_++;
}

void PeriodicConstraintGraph::addConstraint(Var u, Var v, double w, int k) {
  if (u >= nVars_ || v >= nVars_) {
    throw std::out_of_range("PeriodicConstraintGraph: variable out of range");
  }
  if (k < 0) {
    throw std::invalid_argument(
        "PeriodicConstraintGraph: k must be >= 0 (monotone feasibility)");
  }
  constraints_.push_back({u, v, w, k});
}

bool PeriodicConstraintGraph::relax(double lambda, double* x) const {
  std::fill_n(x, nVars_, 0.0);
  std::size_t round = 0;
  return relaxRounds(lambda, x, round, nVars_ + 2);
}

bool PeriodicConstraintGraph::relaxRounds(double lambda, double* x,
                                          std::size_t& round,
                                          std::size_t untilRound) const {
  // Longest-path relaxation (Bellman-Ford) from an implicit source giving
  // every variable a floor of 0. The minimal solution is the vector of
  // longest-path distances; a positive cycle means infeasibility.
  bool changed = true;
  for (; round < untilRound && changed; ++round) {
    changed = false;
    for (const auto& c : constraints_) {
      const double bound = x[c.u] + c.w - c.k * lambda;
      if (bound > x[c.v] + kSlack) {
        x[c.v] = bound;
        changed = true;
      }
    }
  }
  return !changed;  // still relaxing after nVars_ + 2 rounds: positive cycle
}

bool PeriodicConstraintGraph::solveInto(double lambda,
                                        std::vector<double>& x) const {
  x.resize(nVars_);
  return relax(lambda, x.data());
}

std::optional<std::vector<double>> PeriodicConstraintGraph::solve(
    double lambda) const {
  std::vector<double> x;
  if (!solveInto(lambda, x)) return std::nullopt;
  return x;
}

bool PeriodicConstraintGraph::criticalCycle(double guess,
                                            MonotonicArena& arena,
                                            CriticalCycle& out) const {
  // Howard's policy iteration for the maximum cycle ratio (Cochet-Terrasson
  // et al.), run on the whole graph: each variable's policy is one of its
  // out-constraints, each policy walk ends in a cycle (ratio W/K) or at a
  // variable without out-constraints (ratio -inf), and improvement first
  // raises ratios, then relative values within a ratio class.
  const std::size_t n = nVars_;
  auto* policy = arena.allocateArray<std::uint32_t>(n);
  auto* walk = arena.allocateArray<std::uint32_t>(n);
  auto* state = arena.allocateArray<std::uint8_t>(n);
  auto* ratio = arena.allocateArray<double>(n);
  auto* value = arena.allocateArray<double>(n);
  auto* best = arena.allocateArray<double>(n);
  constexpr double kMinusInf = -std::numeric_limits<double>::infinity();

  double scale = 1.0;
  std::fill_n(policy, n, kNoPolicy);
  std::fill_n(best, n, kMinusInf);
  for (std::uint32_t e = 0; e < constraints_.size(); ++e) {
    const C& c = constraints_[e];
    if (!std::isfinite(c.w)) return false;
    scale += std::abs(c.w) + c.k * std::abs(guess);
    const double gain = c.w - c.k * guess;
    if (gain > best[c.u]) {
      best[c.u] = gain;
      policy[c.u] = e;
    }
  }
  // Relative values are sums along policy paths; improvements below their
  // rounding noise are not improvements.
  const double eps = 4.0 * static_cast<double>(n + 1) * kUnit * scale;

  for (std::size_t iter = 0; iter < kHowardMaxIterations; ++iter) {
    // Value determination.
    std::fill_n(state, n, kUnvisited);
    out = CriticalCycle{};
    for (std::size_t s = 0; s < n; ++s) {
      std::size_t top = 0;
      std::size_t u = s;
      while (state[u] != kDone) {
        if (state[u] == kOnWalk) {  // the walk closed a new policy cycle
          double w = 0.0;
          double absW = 0.0;
          long long k = 0;
          std::size_t len = 0;
          std::size_t v = u;
          do {
            const C& c = constraints_[policy[v]];
            w += c.w;
            absW += std::abs(c.w);
            k += c.k;
            ++len;
            v = c.v;
          } while (v != u);
          if (k == 0) return false;  // ratio undefined: fall back
          ratio[u] = w / static_cast<double>(k);
          value[u] = 0.0;
          state[u] = kDone;
          if (ratio[u] > out.ratio) {
            out.ratio = ratio[u];
            out.absWeight = absW;
            out.transit = static_cast<double>(k);
            out.length = static_cast<double>(len);
          }
          break;
        }
        state[u] = kOnWalk;
        if (policy[u] == kNoPolicy) {  // reaches no cycle
          ratio[u] = kMinusInf;
          value[u] = 0.0;
          state[u] = kDone;
          break;
        }
        walk[top++] = static_cast<std::uint32_t>(u);
        u = constraints_[policy[u]].v;
      }
      while (top > 0) {
        const std::size_t v = walk[--top];
        if (state[v] == kDone) continue;
        const C& c = constraints_[policy[v]];
        ratio[v] = ratio[c.v];
        value[v] = ratio[v] == kMinusInf
                       ? 0.0
                       : c.w - ratio[v] * c.k + value[c.v];
        state[v] = kDone;
      }
    }

    // Improvement: a successor on a higher-ratio walk first.
    bool changed = false;
    std::copy_n(ratio, n, best);
    for (std::uint32_t e = 0; e < constraints_.size(); ++e) {
      const C& c = constraints_[e];
      if (ratio[c.v] > best[c.u]) {
        best[c.u] = ratio[c.v];
        policy[c.u] = e;
        changed = true;
      }
    }
    if (changed) continue;
    // Otherwise a larger relative value within the same ratio class.
    for (std::size_t v = 0; v < n; ++v) best[v] = value[v] + eps;
    for (std::uint32_t e = 0; e < constraints_.size(); ++e) {
      const C& c = constraints_[e];
      if (ratio[c.u] == kMinusInf || ratio[c.v] != ratio[c.u]) continue;
      const double candidate = c.w - ratio[c.u] * c.k + value[c.v];
      if (candidate > best[c.u]) {
        best[c.u] = candidate;
        policy[c.u] = e;
        changed = true;
      }
    }
    if (!changed) return std::isfinite(out.ratio);
  }
  return false;  // no convergence within the cap
}

double PeriodicConstraintGraph::certifiedGap(const CriticalCycle& cycle,
                                             double reach) const {
  // A solver round without change at lambda = mid means, for every cycle
  // edge, x_u + w - k*mid <= x_v + kSlack up to the rounding of those three
  // operations. Summed around the cycle, its exact gain W - K*mid is at most
  // L*kSlack plus the rounding terms, which need a bound X on |x|: every x
  // is a walk sum of at most (rounds * constraints) relaxations, each adding
  // at most maxAbsW + maxK*reach. The cycle's ratio itself carries the
  // summation error of W and the rounding of W/K. The band makes K*d at
  // least twice all of that.
  double maxAbsW = 0.0;
  double maxK = 0.0;
  for (const C& c : constraints_) {
    maxAbsW = std::max(maxAbsW, std::abs(c.w));
    maxK = std::max(maxK, static_cast<double>(c.k));
  }
  const double relaxations = static_cast<double>(nVars_ + 2) *
                             static_cast<double>(constraints_.size());
  const double maxX = 1.01 * relaxations * (maxAbsW + maxK * reach);
  const double len = cycle.length;
  const double gammaL = len * kUnit / (1.0 - len * kUnit);
  const double margin =
      len * kSlack +
      4.0 * kUnit *
          (2.0 * len * maxX + cycle.absWeight + cycle.transit * reach +
           len * kSlack) +
      1.01 * gammaL * cycle.absWeight +
      2.0 * kUnit * cycle.transit * std::abs(cycle.ratio);
  return 2.0 * margin / cycle.transit;
}

std::optional<double> PeriodicConstraintGraph::minLambdaInto(
    double lo, double hi, std::vector<double>& x, MonotonicArena& arena,
    double tol) const {
  arena.reset();
  x.resize(nVars_);
  double* spare = arena.allocateArray<double>(nVars_);
  return bracketedSearch(lo, hi, x.data(), spare, arena, /*solution=*/true,
                         tol);
}

std::optional<double> PeriodicConstraintGraph::minLambdaValue(
    double lo, double hi, MonotonicArena& arena, double tol) const {
  arena.reset();
  // No solution is kept, so one buffer serves every solve.
  double* x = arena.allocateArray<double>(nVars_);
  return bracketedSearch(lo, hi, x, x, arena, /*solution=*/false, tol);
}

std::optional<double> PeriodicConstraintGraph::bracketedSearch(
    double lo, double hi, double* x, double* spare, MonotonicArena& arena,
    bool solution, double tol) const {
  // lo first: most feasible solves settle within a few rounds. A solve
  // still relaxing after kLoRounds pauses while Howard's iteration looks
  // for a cycle that certifies lo infeasible, and resumes where it stopped
  // (so with the plain solve's result) only when none does.
  std::fill_n(x, nVars_, 0.0);
  std::size_t round = 0;
  const std::size_t maxRounds = nVars_ + 2;
  bool loFeasible = relaxRounds(lo, x, round, std::min(kLoRounds, maxRounds));
  CriticalCycle cycle;
  bool bracketed = false;
  double below = 0.0;
  double above = 0.0;
  if (!loFeasible) {
    // The bracket: a probe at or below `below` is infeasible, one at or
    // above `above` feasible.
    const double reach = std::max(std::abs(lo), std::abs(hi));
    bracketed = std::isfinite(reach) && criticalCycle(lo, arena, cycle);
    if (bracketed) {
      const double gap = certifiedGap(cycle, reach);
      below = cycle.ratio - gap;
      above = cycle.ratio +
              std::max(gap, tol * std::max(1.0, std::abs(cycle.ratio)));
      bracketed = std::isfinite(below) && std::isfinite(above);
    }
    if (!(bracketed && lo <= below)) {
      loFeasible = relaxRounds(lo, x, round, maxRounds);
    }
  }
  if (loFeasible) {
    if (!relax(hi, spare)) return std::nullopt;
    return lo;
  }
  // lo is infeasible.
  if (bracketed) {
    if (above <= lo) {
      bracketed = false;
    } else if (above >= hi) {
      // No probe reaches the feasible certificate; hi is solved for real,
      // as the plain bisection does.
      if (!relax(hi, spare)) return std::nullopt;
    } else {
      bracketed = relax(above, x);
    }
  }
  double result = 0.0;
  if (bracketed) {
    result = bisect(lo, hi, tol, [&](double mid) {
      if (mid >= above) return true;
      if (mid <= below) return false;
      return relax(mid, x);
    });
  } else {
    // The plain bisection (lo is already known infeasible).
    if (!relax(hi, x)) return std::nullopt;
    result = bisect(lo, hi, tol, [&](double mid) { return relax(mid, x); });
  }
  if (solution) {
    const bool ok = relax(result, x);
    (void)ok;  // result was feasible above and feasibility is monotone
  }
  return result;
}

std::optional<PeriodicConstraintGraph::MinLambdaResult>
PeriodicConstraintGraph::minLambda(double lo, double hi, double tol) const {
  MinLambdaResult r;
  MonotonicArena arena;
  const auto lambda = minLambdaInto(lo, hi, r.potentials, arena, tol);
  if (!lambda) return std::nullopt;
  r.lambda = *lambda;
  return r;
}

}  // namespace fsw
