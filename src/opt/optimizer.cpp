#include "src/opt/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/serve/plan_engine.hpp"

namespace fsw {

void checkRequest(const PlanRequest& request) {
  const Application& app = request.app;
  if (app.size() == 0) {
    throw std::invalid_argument(
        "plan request: the application has no services");
  }
  // Every plan cost is a sum of at most (n + 2)^2 terms, each a product of
  // selectivities times at most one cost (or the unit input), so it is
  // bounded by prod max(1, sigma_i) * max(1, max c_i) * (n + 2)^2. Where
  // that bound overflows, a product may reach inf, and inf times a zero
  // cost or selectivity is NaN, which std::max then drops: the plan would
  // score finite while it is not. Without a zero factor an overflowing
  // plan scores inf and simply loses (counter-example B.1 has such plans).
  double bound = 1.0;
  double maxCost = 1.0;
  bool zeroFactor = false;
  for (std::size_t i = 0; i < app.size(); ++i) {
    const Service& s = app.service(i);
    bound *= std::max(1.0, s.selectivity);
    maxCost = std::max(maxCost, s.cost);
    zeroFactor = zeroFactor || s.cost == 0.0 || s.selectivity == 0.0;
  }
  const double terms = static_cast<double>(app.size() + 2);
  bound *= maxCost * terms * terms;
  if (zeroFactor && !std::isfinite(bound)) {
    throw std::invalid_argument(
        "plan request: costs and selectivities can overflow a plan's cost "
        "into inf * 0 = NaN");
  }
}

OptimizedPlan optimizePlan(const Application& app, CommModel m, Objective obj,
                           const OptimizerOptions& opt) {
  // The engine core lives in src/serve/plan_engine.cpp; this facade serves
  // the call as a one-request batch against the process-wide engine, whose
  // shared cache can only memoize pure functions — winners are bit-identical
  // to a fresh-cache run.
  return PlanEngine::shared().optimize(app, m, obj, opt);
}

}  // namespace fsw
