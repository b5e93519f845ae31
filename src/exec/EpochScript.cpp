//===- exec/EpochScript.cpp - An island's epoch protocol as data ----------===//

#include "exec/EpochScript.h"

#include <algorithm>

using namespace icores;

int64_t EpochScript::count(EpochOp::Kind K) const {
  return std::count_if(Ops.begin(), Ops.end(),
                       [K](const EpochOp &Op) { return Op.K == K; });
}

const char *icores::epochOpName(EpochOp::Kind K) {
  static const char *const Names[] = {
      "global-barrier", "rebase", "combine-and-swap",
      "halo-slab",      "rebind", "import",
      "slide",          "team-barrier", "pass"};
  return Names[static_cast<size_t>(K)];
}

EpochScript icores::buildEpochScript(const StencilProgram &Program,
                                     const ExecutionPlan &Plan,
                                     const IslandPlan &Island,
                                     const IslandWindows &Windows) {
  using K = EpochOp::Kind;
  const int Depth = std::max(1, Plan.TemporalDepth);
  const bool Feedback = !Program.feedbacks().empty();
  EpochScript S;
  auto emit = [&S](K Kind, int Step = 0, int Index = 0,
                   StageId Stage = NoStage) {
    S.Ops.push_back({Kind, /*Steals=*/false, Stage, Step, Index, nullptr});
  };

  // Every worker of the run is quiesced between the first two global
  // barriers: the sliding intermediates move back to their epoch base, and
  // the first island combines the previous epoch's reduction partials and
  // swaps the feedback pairs.
  emit(K::GlobalBarrier);
  if (!Windows.Sliding.empty())
    emit(K::Rebase);
  if (&Island == &Plan.Islands.front() &&
      (Feedback || !Program.reductions().empty()))
    emit(K::CombineAndSwap);
  emit(K::GlobalBarrier);
  // T = 1 reads the shared inputs in place, so the swapped feedback
  // targets' halos are refreshed and published before any pass. Temporal
  // epochs wrap-gather imports from the core cells instead; step 0's
  // rebind and the import touch disjoint state, one barrier publishes both.
  if (Depth == 1 && Feedback) {
    emit(K::HaloSlab);
    emit(K::GlobalBarrier);
  }
  if (Depth > 1) {
    emit(K::Rebind, /*Step=*/0);
    emit(K::Import);
    emit(K::TeamBarrier);
  }

  int PassIndex = 0;
  int CurStep = 0;
  size_t NextSlide = 0;
  // True when a real barrier separates the previous pass (or the epoch
  // prologue) from the next one.
  bool PrevBarrier = true;
  for (size_t B = 0; B != Island.Blocks.size(); ++B) {
    const BlockTask &Block = Island.Blocks[B];
    const bool Slides = NextSlide != Windows.SlideBlocks.size() &&
                        Windows.SlideBlocks[NextSlide] == static_cast<int>(B);
    if (Depth > 1 && Block.StepInEpoch != CurStep) {
      // Structural fused-step boundary: quiesce the team, swap the
      // feedback bindings, and publish them before the next step. A slide
      // here has no live planes to copy (windows never span steps), so it
      // is a rebase that rides on the same barriers.
      CurStep = Block.StepInEpoch;
      emit(K::TeamBarrier);
      emit(K::Rebind, CurStep);
      if (Slides)
        emit(K::Slide, CurStep, static_cast<int>(NextSlide++));
      emit(K::TeamBarrier);
      PrevBarrier = true;
    } else if (Slides) {
      // No pass may still touch the old addresses, and no pass may start
      // before every live plane has moved.
      if (!PrevBarrier)
        emit(K::TeamBarrier);
      emit(K::Slide, CurStep, static_cast<int>(NextSlide++));
      emit(K::TeamBarrier);
      PrevBarrier = true;
    }
    for (const StagePass &Pass : Block.Passes) {
      // A pass may steal only when real barriers bracket it on both
      // sides: the preceding one means no earlier pass of a barrier-free
      // group is still in flight (the barrier-elision proof assumes the
      // static teamSubRegion split within a group), and the trailing one
      // publishes the stolen chunks' writes like the static split's.
      S.Ops.push_back({K::Pass,
                       PrevBarrier && Pass.BarrierAfter && !Pass.Region.empty(),
                       Pass.Stage, CurStep, PassIndex++, &Pass});
      // An empty pass runs no kernel but still crosses its barrier.
      if (Pass.BarrierAfter)
        emit(K::TeamBarrier, CurStep, 0, Pass.Stage);
      PrevBarrier = Pass.BarrierAfter;
    }
  }
  return S;
}

std::vector<EpochScript>
icores::buildEpochScripts(const StencilProgram &Program,
                          const ExecutionPlan &Plan) {
  std::vector<EpochScript> Scripts;
  Scripts.reserve(Plan.Islands.size());
  for (const IslandPlan &Island : Plan.Islands)
    Scripts.push_back(buildEpochScript(Program, Plan, Island,
                                       planIslandWindows(Program, Island)));
  return Scripts;
}
