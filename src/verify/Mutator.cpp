//===- verify/Mutator.cpp - Analysis mutation testing ---------------------===//

#include "verify/Mutator.h"

#include "exec/RegionSplit.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <utility>
#include <vector>

using namespace icores;

const char *icores::mutantClassName(MutantClass Class) {
  switch (Class) {
  case MutantClass::DropBarrier:
    return "drop-barrier";
  case MutantClass::WidenWindow:
    return "widen-window";
  case MutantClass::NarrowWindow:
    return "narrow-window";
  case MutantClass::ReorderEpochStep:
    return "reorder-epoch-step";
  case MutantClass::SkipHaloImport:
    return "skip-halo-import";
  }
  return "?";
}

const char *icores::mutantKillIdPrefix(MutantClass Class) {
  switch (Class) {
  case MutantClass::DropBarrier:
    return "race.intra.";
  case MutantClass::WidenWindow:
    return "plan.pass.exceeds-global";
  case MutantClass::NarrowWindow:
    return "plan.output.coverage";
  case MutantClass::ReorderEpochStep:
    return "plan.temporal.step-order";
  case MutantClass::SkipHaloImport:
    return "plan.pass.read-before-compute";
  }
  return "?";
}

namespace {

/// Picks a random element of \p Cands, or returns false when empty.
template <typename T>
bool pick(const std::vector<T> &Cands, SplitMix64 &Rng, T &Out) {
  if (Cands.empty())
    return false;
  Out = Cands[static_cast<size_t>(Rng.nextBounded(Cands.size()))];
  return true;
}

/// Ground truth for DropBarrier: with P's barrier gone, the executor runs
/// P and the next pass Q in one barrier-free epoch, thread t1 writing its
/// teamSubRegion() share of P while thread t2 reads its window-expanded
/// share of Q — the *same* split the executor uses. When some consumed
/// input of Q overlaps another thread's P write, the mutant races by
/// construction (this re-derives the dependence from the split primitive
/// and the IR windows; the checker under test is never consulted).
bool dropBarrierRaces(const StencilProgram &Program, const IslandPlan &Island,
                      const StagePass &P, const StagePass &Q) {
  const int N = Island.NumThreads;
  if (N < 2 || !P.BarrierAfter || P.Region.empty() || Q.Region.empty())
    return false;
  const StageDef &ProducerStage = Program.stage(P.Stage);
  for (const StageInput &In : Program.stage(Q.Stage).Inputs) {
    bool Produced = false;
    for (ArrayId Out : ProducerStage.Outputs)
      Produced |= Out == In.Array;
    if (!Produced)
      continue;
    for (int T1 = 0; T1 != N; ++T1) {
      Box3 W = teamSubRegion(P.Region, T1, N);
      if (W.empty())
        continue;
      for (int T2 = 0; T2 != N; ++T2) {
        if (T1 == T2)
          continue;
        Box3 R = In.readRegion(teamSubRegion(Q.Region, T2, N));
        if (!W.intersect(R).empty())
          return true;
      }
    }
  }
  return false;
}

struct PassRef {
  size_t Island = 0;
  size_t Block = 0;
  size_t Pass = 0;
};

} // namespace

bool icores::applyMutation(ExecutionPlan &Plan, const StencilProgram &Program,
                           MutantClass Class, SplitMix64 &Rng) {
  switch (Class) {
  case MutantClass::DropBarrier: {
    std::vector<PassRef> Cands;
    for (size_t I = 0; I != Plan.Islands.size(); ++I) {
      const IslandPlan &Island = Plan.Islands[I];
      for (size_t B = 0; B != Island.Blocks.size(); ++B) {
        const std::vector<StagePass> &Passes = Island.Blocks[B].Passes;
        for (size_t P = 0; P + 1 < Passes.size(); ++P)
          if (dropBarrierRaces(Program, Island, Passes[P], Passes[P + 1]))
            Cands.push_back({I, B, P});
      }
    }
    PassRef Ref;
    if (!pick(Cands, Rng, Ref))
      return false;
    Plan.Islands[Ref.Island]
        .Blocks[Ref.Block]
        .Passes[Ref.Pass]
        .BarrierAfter = false;
    return true;
  }

  case MutantClass::WidenWindow: {
    // Growing any non-empty pass by more than the whole domain span pushes
    // every face past the per-step global cone, so the exceeds-global
    // containment check must fire regardless of where the pass sits.
    std::vector<PassRef> Cands;
    for (size_t I = 0; I != Plan.Islands.size(); ++I)
      for (size_t B = 0; B != Plan.Islands[I].Blocks.size(); ++B)
        for (size_t P = 0; P != Plan.Islands[I].Blocks[B].Passes.size(); ++P)
          if (!Plan.Islands[I].Blocks[B].Passes[P].Region.empty())
            Cands.push_back({I, B, P});
    PassRef Ref;
    if (!pick(Cands, Rng, Ref))
      return false;
    StagePass &Pass =
        Plan.Islands[Ref.Island].Blocks[Ref.Block].Passes[Ref.Pass];
    int Span = 1;
    for (int D = 0; D != 3; ++D)
      Span = std::max(Span, Plan.GlobalTarget.extent(D));
    Pass.Region = Pass.Region.grownAll(Span);
    return true;
  }

  case MutantClass::NarrowWindow: {
    // The coverage check sums per-island *bounding boxes* of the
    // final-step output passes, so the clipped face must actually shrink
    // the island hull: the candidate pass has to be the unique maximizer
    // of Hi[Dim] among its island's final-step passes of the output stage.
    // Clipping it then strictly shrinks the island box, the covered-point
    // sum drops below the target, and plan.output.coverage fires.
    struct FaceRef {
      PassRef Ref;
      int Dim = 0;
    };
    std::vector<FaceRef> Cands;
    for (ArrayId Out : Program.stepOutputs()) {
      StageId Producer = Program.producerOf(Out);
      if (Producer == NoStage)
        continue;
      for (size_t I = 0; I != Plan.Islands.size(); ++I) {
        std::vector<PassRef> OutPasses;
        for (size_t B = 0; B != Plan.Islands[I].Blocks.size(); ++B) {
          const BlockTask &Block = Plan.Islands[I].Blocks[B];
          if (Block.StepInEpoch != Plan.TemporalDepth - 1)
            continue;
          for (size_t P = 0; P != Block.Passes.size(); ++P)
            if (Block.Passes[P].Stage == Producer &&
                !Block.Passes[P].Region.empty())
              OutPasses.push_back({I, B, P});
        }
        for (const PassRef &Ref : OutPasses) {
          const Box3 &R =
              Plan.Islands[I].Blocks[Ref.Block].Passes[Ref.Pass].Region;
          for (int D = 0; D != 3; ++D) {
            if (R.extent(D) < 2)
              continue;
            bool UniqueMax = true;
            for (const PassRef &Other : OutPasses) {
              if (Other.Block == Ref.Block && Other.Pass == Ref.Pass)
                continue;
              const Box3 &O =
                  Plan.Islands[I].Blocks[Other.Block].Passes[Other.Pass]
                      .Region;
              UniqueMax &= O.Hi[D] < R.Hi[D];
            }
            if (UniqueMax)
              Cands.push_back({Ref, D});
          }
        }
      }
    }
    FaceRef Face;
    if (!pick(Cands, Rng, Face))
      return false;
    Plan.Islands[Face.Ref.Island]
        .Blocks[Face.Ref.Block]
        .Passes[Face.Ref.Pass]
        .Region.Hi[Face.Dim] -= 1;
    return true;
  }

  case MutantClass::ReorderEpochStep: {
    if (Plan.TemporalDepth < 2)
      return false;
    std::vector<std::pair<size_t, size_t>> Cands; // (island, block b): swap b-1, b
    for (size_t I = 0; I != Plan.Islands.size(); ++I) {
      const std::vector<BlockTask> &Blocks = Plan.Islands[I].Blocks;
      for (size_t B = 1; B < Blocks.size(); ++B)
        if (Blocks[B].StepInEpoch != Blocks[B - 1].StepInEpoch)
          Cands.push_back({I, B});
    }
    std::pair<size_t, size_t> Ref;
    if (!pick(Cands, Rng, Ref))
      return false;
    std::vector<BlockTask> &Blocks = Plan.Islands[Ref.first].Blocks;
    std::swap(Blocks[Ref.second - 1], Blocks[Ref.second]);
    return true;
  }

  case MutantClass::SkipHaloImport: {
    // Restricted to each island's *first* block (nothing of the fused
    // step is computed before it), pick a producer pass P and a later
    // consumer pass Q of the same block where the consumer's dependence
    // cone touches P's low face: Needed.Lo[D] == P.Region.Lo[D]. Clipping
    // that face off P removes exactly the redundant halo plane the cone
    // needs, so plan.pass.read-before-compute must fire — no earlier pass
    // of the stage exists that could cover the hole.
    struct FaceRef {
      PassRef Ref;
      int Dim = 0;
    };
    std::vector<FaceRef> Cands;
    for (size_t I = 0; I != Plan.Islands.size(); ++I) {
      if (Plan.Islands[I].Blocks.empty())
        continue;
      const std::vector<StagePass> &Passes = Plan.Islands[I].Blocks[0].Passes;
      for (size_t P = 0; P != Passes.size(); ++P) {
        const Box3 &PR = Passes[P].Region;
        if (PR.empty())
          continue;
        for (size_t Q = P + 1; Q != Passes.size(); ++Q) {
          if (Passes[Q].Region.empty())
            continue;
          for (const StageInput &In : Program.stage(Passes[Q].Stage).Inputs) {
            if (Program.producerOf(In.Array) != Passes[P].Stage)
              continue;
            Box3 Needed = In.readRegion(Passes[Q].Region);
            for (int D = 0; D != 3; ++D)
              if (PR.extent(D) >= 2 && Needed.Lo[D] == PR.Lo[D])
                Cands.push_back({{I, 0, P}, D});
          }
        }
      }
    }
    FaceRef Face;
    if (!pick(Cands, Rng, Face))
      return false;
    Plan.Islands[Face.Ref.Island]
        .Blocks[0]
        .Passes[Face.Ref.Pass]
        .Region.Lo[Face.Dim] += 1;
    return true;
  }
  }
  return false;
}

bool icores::mutantKilled(MutantClass Class, const DiagnosticEngine &Diags) {
  const std::string Prefix = mutantKillIdPrefix(Class);
  for (const Finding &F : Diags.findings())
    if (F.Id.compare(0, Prefix.size(), Prefix) == 0)
      return true;
  return false;
}
