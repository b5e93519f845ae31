//===- core/ScheduleOptimizer.h - Barrier elision post-pass -----*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A planner post-pass that removes provably redundant team barriers from
/// an ExecutionPlan. The executor historically barriers the island team
/// after *every* stage pass — 17 barriers per (3+1)D block — but a barrier
/// is only needed when some later pass of the same barrier-free run would
/// otherwise touch cells another thread is still producing or consuming.
///
/// The optimizer walks each island's flattened pass sequence in order,
/// greedily growing barrier-free epochs: the barrier after pass i is
/// elided when the next pass has no cross-thread conflict (write-write or
/// window-expanded read-write, under the exact teamSubRegion() split the
/// executor uses) with *any* pass of the current epoch. The dependence
/// query is findPassPairConflict() from exec/ScheduleCheck.h — the same
/// query the race checker uses, so `checkPlanRaces`/`LintSuite` certify
/// every optimized plan by construction (and are run on it in tests as the
/// safety gate). The bit after each island's final pass is always kept;
/// the epoch script (exec/EpochScript.h) crosses no team barrier there,
/// since the next epoch's leading global barrier orders everything it
/// would.
///
/// See DESIGN.md §8 for the soundness argument.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_CORE_SCHEDULEOPTIMIZER_H
#define ICORES_CORE_SCHEDULEOPTIMIZER_H

#include "core/ExecutionPlan.h"
#include "stencil/StencilIR.h"

#include <cstdint>
#include <vector>

namespace icores {

/// Elision outcome for one island.
struct IslandElision {
  int Island = 0;
  int64_t Passes = 0; ///< Non-empty passes (candidate barriers).
  int64_t Elided = 0; ///< Barrier bits cleared on this island.
};

/// What optimizeBarriers() did to a plan.
struct ScheduleOptimizerReport {
  int64_t TotalPasses = 0;    ///< Candidate barriers before optimization.
  int64_t ElidedBarriers = 0; ///< Barrier bits cleared across all islands.
  std::vector<IslandElision> Islands;

  /// Barriers remaining per step after optimization.
  int64_t remainingBarriers() const { return TotalPasses - ElidedBarriers; }
};

/// Clears the BarrierAfter bit of every pass in \p Plan whose barrier is
/// provably redundant for \p Program, in place, and reports what changed.
/// An empty pass runs no kernel, so its barrier bit is always cleared.
/// Idempotent; safe on any plan that verifies.
ScheduleOptimizerReport optimizeBarriers(const StencilProgram &Program,
                                         ExecutionPlan &Plan);

} // namespace icores

#endif // ICORES_CORE_SCHEDULEOPTIMIZER_H
