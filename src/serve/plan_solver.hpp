// PlanSolver: the blocking batch-solve surface every serving backend
// exposes — the seam that lets one request lifecycle (PlanServer's
// submit/admit/coalesce/batch/stream) run over interchangeable solve
// spines: a PlanEngine, or a wrapper around one (a timing or recording
// shim, a remote fan-out). The contract is the engine's: optimizeBatch
// returns an index-aligned result vector whose winners are bit-identical
// to per-request serial optimizePlan, and dedupKey is the engine-aware
// coalescing key (identical keys may be collapsed onto one solve).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "src/opt/optimizer.hpp"

namespace fsw {

class PlanSolver {
 public:
  virtual ~PlanSolver() = default;

  /// Solves a batch; results are index-aligned with `requests` and every
  /// winner is bit-identical to a per-request serial optimizePlan. Must be
  /// safe to call from any number of threads concurrently.
  [[nodiscard]] virtual std::vector<OptimizedPlan> optimizeBatch(
      std::span<const PlanRequest> requests) = 0;

  /// The dedup/coalescing key: requests with equal keys are
  /// interchangeable — one solve may serve all of them.
  [[nodiscard]] virtual std::string dedupKey(
      const PlanRequest& request) const = 0;
};

}  // namespace fsw
