// Periodic difference-constraint systems.
//
// All orchestration problems with fixed port orders reduce to systems of
// constraints  x_v - x_u >= w - k*lambda  with k >= 0: intra-cycle
// sequencing (k = 0) and the cyclic wrap-around of Appendix A constraint (1)
// (k = 1). For fixed lambda this is a classical difference-constraint system,
// feasible iff the constraint graph has no positive-weight cycle (longest
// path well-defined); since k >= 0, feasibility is monotone in lambda, and
// the minimal feasible lambda is the graph's maximum cycle ratio
// max_C w(C) / k(C).
//
// minLambdaInto returns what a plain bisection over [lo, hi] with one
// Bellman-Ford solve per probe returns — the same lambda and the same
// solution bits — but brackets the bisection with the critical cycle ratio
// instead of solving every probe (the solver: longest-path relaxation from
// 0 with a 1e-12 slack, infeasible when still relaxing after V + 2 rounds):
//
//   1. lo is solved first. If it is feasible, hi is checked in a spare
//      buffer and lo is returned: the plain bisection's two solves. A lo
//      solve still relaxing after 16 rounds pauses for step 2 and resumes
//      (to the plain solve's result) only if step 2 cannot decide it.
//   2. Howard's policy iteration computes the maximum cycle ratio lc over
//      every strongly connected component at once (vertices that reach no
//      cycle get ratio -inf) and keeps the policy's critical cycle C.
//   3. The plain bisection is replayed with the same lo/hi/mid arithmetic.
//      A lambda at or below lc - g counts as infeasible, lo included: C is
//      a real cycle whose exact gain there, K*g, is at least twice the
//      solver's slack plus a bound on its rounding error, both summed
//      around C. A relaxation round without change would need that gain
//      to be at most the sum, so every round changes and the solver reports
//      infeasible too. A mid at or above lc + max(g, tol * max(1, |lc|))
//      counts as feasible: one real solve there certifies it, since
//      feasibility is monotone in lambda. Only a mid inside the band runs
//      Bellman-Ford, so infeasible solves almost vanish.
//   4. Any doubt falls back to the plain bisection: a cycle with k-sum 0 in
//      Howard's policy, a non-finite weight, bound or ratio, no convergence
//      within the iteration cap, or a failed solve at the upper end.
//
// The returned solution comes from a real solve at the returned lambda, as
// before; value-only callers may skip it.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "src/common/arena.hpp"

namespace fsw {

class PeriodicConstraintGraph {
 public:
  using Var = std::size_t;

  /// Adds a variable; its value will be >= 0 in any produced solution.
  Var addVariable();
  [[nodiscard]] std::size_t variableCount() const noexcept { return nVars_; }

  /// Adds `count` variables at once (bulk form for hot paths).
  Var addVariables(std::size_t count) {
    const Var first = nVars_;
    nVars_ += count;
    return first;
  }

  /// Adds x_v - x_u >= w - k * lambda (k >= 0).
  void addConstraint(Var u, Var v, double w, int k = 0);

  /// Forgets all variables and constraints but keeps the constraint storage,
  /// so a reused instance stops allocating once warmed up (hot-path reuse).
  void clear() noexcept {
    nVars_ = 0;
    constraints_.clear();
  }

  /// Reserves constraint storage (hot-path warm-up aid).
  void reserveConstraints(std::size_t n) { constraints_.reserve(n); }

  /// Capacity of the constraint storage — lets scratch owners detect
  /// buffer-growth events for the allocation counters.
  [[nodiscard]] std::size_t constraintCapacity() const noexcept {
    return constraints_.capacity();
  }

  /// Minimal solution (componentwise) for fixed lambda, or nullopt if the
  /// system is infeasible.
  [[nodiscard]] std::optional<std::vector<double>> solve(double lambda) const;

  /// Allocation-free solve: writes the minimal solution into `x` (resized,
  /// capacity reused). Returns false on infeasibility (x is then garbage).
  bool solveInto(double lambda, std::vector<double>& x) const;

  [[nodiscard]] bool feasible(double lambda) const {
    std::vector<double> x;
    return solveInto(lambda, x);
  }
  /// feasible() with caller-provided scratch, for allocation-free probing.
  bool feasibleInto(double lambda, std::vector<double>& scratch) const {
    return solveInto(lambda, scratch);
  }

  struct MinLambdaResult {
    double lambda = std::numeric_limits<double>::infinity();
    std::vector<double> potentials;  ///< a solution at `lambda`
  };

  /// Smallest lambda in [lo, hi] (within `tol`) for which the system is
  /// feasible, or nullopt if even `hi` is infeasible (inconsistent orders).
  [[nodiscard]] std::optional<MinLambdaResult> minLambda(
      double lo, double hi, double tol = 1e-9) const;

  /// minLambda into caller buffers: `x` receives the solution at the
  /// returned lambda, and Howard's workspace and the spare solve buffer come
  /// from `arena` (reset on entry), so a warm caller allocates nothing.
  /// Returns the minimal feasible lambda, or nullopt if even `hi` is
  /// infeasible; bit-identical to the plain bisection (see above).
  std::optional<double> minLambdaInto(double lo, double hi,
                                      std::vector<double>& x,
                                      MonotonicArena& arena,
                                      double tol = 1e-9) const;

  /// The lambda of minLambdaInto without its solution: value-only probes
  /// skip the final solve, and every buffer comes from `arena`.
  std::optional<double> minLambdaValue(double lo, double hi,
                                       MonotonicArena& arena,
                                       double tol = 1e-9) const;

 private:
  struct C {
    Var u;
    Var v;
    double w;
    int k;
  };
  /// The policy cycle Howard's iteration converged on.
  struct CriticalCycle {
    double ratio = -std::numeric_limits<double>::infinity();
    double absWeight = 0.0;  ///< sum of |w| around the cycle
    double transit = 0.0;    ///< K, the sum of k around the cycle
    double length = 0.0;     ///< number of constraints on the cycle
  };

  /// The search behind minLambdaInto/minLambdaValue: solves run in `x`,
  /// the hi check after a feasible lo in `spare` (may alias `x` when no
  /// solution is wanted), and with `solution` the final solve leaves the
  /// solution at the returned lambda in `x`.
  std::optional<double> bracketedSearch(double lo, double hi, double* x,
                                        double* spare, MonotonicArena& arena,
                                        bool solution, double tol) const;

  /// Bellman-Ford into x[0, nVars_); false when still relaxing after
  /// nVars_ + 2 rounds (a positive cycle).
  bool relax(double lambda, double* x) const;
  /// Resumable form: runs rounds from `round` (advanced) while below
  /// `untilRound` and still relaxing; true when a round made no change.
  bool relaxRounds(double lambda, double* x, std::size_t& round,
                   std::size_t untilRound) const;

  /// Howard's policy iteration for the maximum cycle ratio; false when the
  /// result cannot be trusted (see the header comment, step 4). `guess`
  /// seeds the initial policy. Its workspace comes from `arena`.
  bool criticalCycle(double guess, MonotonicArena& arena,
                     CriticalCycle& out) const;

  /// Distance below `cycle.ratio` at and beyond which the cycle certifies
  /// that a solve at any |lambda| <= `reach` reports infeasible.
  [[nodiscard]] double certifiedGap(const CriticalCycle& cycle,
                                    double reach) const;

  std::size_t nVars_ = 0;
  std::vector<C> constraints_;
};

}  // namespace fsw
