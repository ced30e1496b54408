#include "src/opt/optimizer.hpp"

#include <stdexcept>

#include "src/serve/plan_engine.hpp"

namespace fsw {

void checkRequest(const PlanRequest& request) {
  if (request.app.size() == 0) {
    throw std::invalid_argument(
        "plan request: the application has no services");
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
