//===- core/ScheduleOptimizer.cpp - Barrier elision post-pass -------------===//

#include "core/ScheduleOptimizer.h"

#include "exec/ScheduleCheck.h"

#include <algorithm>

using namespace icores;

ScheduleOptimizerReport icores::optimizeBarriers(const StencilProgram &Program,
                                                 ExecutionPlan &Plan) {
  ScheduleOptimizerReport Report;
  for (IslandPlan &Island : Plan.Islands) {
    const int N = std::max(1, Island.NumThreads);
    IslandElision E;
    E.Island = Island.Index;

    // Barrier bits are recomputed from scratch (input bits are ignored),
    // which makes the pass idempotent and repairs over-aggressive
    // hand-elided plans. An empty pass's barrier is always redundant: the
    // pass runs no kernel, so any ordering its barrier provided is either
    // provided by the decision on the previous live pass or not needed.
    std::vector<std::pair<StagePass *, int>> Live; // pass, step-in-epoch
    for (BlockTask &Block : Island.Blocks)
      for (StagePass &Pass : Block.Passes) {
        if (Pass.Region.empty()) {
          Pass.BarrierAfter = false;
          E.Passes += 1;
          E.Elided += 1;
          continue;
        }
        Live.push_back({&Pass, Block.StepInEpoch});
      }

    // Grow barrier-free epochs greedily: the barrier after pass I is
    // elided when pass I+1 has no cross-thread conflict with any pass of
    // the epoch being grown. Each pass is checked against every earlier
    // epoch member when it joins, so the final epochs are pairwise
    // conflict-free — exactly the property checkScheduleRaces() verifies.
    // Elision never crosses a fused-step boundary (TemporalDepth > 1
    // plans): the executor rebinds the feedback buffers there under a
    // structural barrier, so each fused step's final pass keeps its
    // barrier, just like the island's final pass keeps the step-end
    // rendezvous that makes island lockstep independent of the executor's
    // global step barrier.
    size_t EpochBegin = 0;
    for (size_t I = 0; I != Live.size(); ++I) {
      E.Passes += 1;
      if (I + 1 == Live.size() || Live[I + 1].second != Live[I].second) {
        Live[I].first->BarrierAfter = true;
        EpochBegin = I + 1;
        continue;
      }
      // Reduced arrays need no special case: the executor folds each
      // worker's own sub-region right after computing it, so a reduction
      // adds no cross-thread access beyond the pass's own writes.
      ScheduledPass Next{Live[I + 1].first->Stage, Live[I + 1].first->Region,
                         true, Live[I + 1].second};
      bool Conflict = false;
      for (size_t A = EpochBegin; A <= I && !Conflict; ++A) {
        ScheduledPass Prev{Live[A].first->Stage, Live[A].first->Region,
                           false, Live[A].second};
        PassConflict C;
        Conflict = findPassPairConflict(Program, Prev, Next, N, C);
      }
      Live[I].first->BarrierAfter = Conflict;
      if (Conflict) {
        EpochBegin = I + 1;
      } else {
        E.Elided += 1;
      }
    }

    Report.TotalPasses += E.Passes;
    Report.ElidedBarriers += E.Elided;
    Report.Islands.push_back(E);
  }
  return Report;
}
