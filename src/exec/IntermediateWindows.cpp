//===- exec/IntermediateWindows.cpp - Sliding intermediate buffers --------===//

#include "exec/IntermediateWindows.h"

#include <algorithm>
#include <climits>

using namespace icores;

namespace {

/// Grows \p R to cover [Lo, Hi).
void cover(PlaneRange &R, int Lo, int Hi) {
  if (Hi <= Lo)
    return;
  if (R.empty()) {
    R = {Lo, Hi};
    return;
  }
  R.Lo = std::min(R.Lo, Lo);
  R.Hi = std::max(R.Hi, Hi);
}

} // namespace

std::vector<std::vector<PlaneRange>>
icores::liveWindows(const StencilProgram &Program, const IslandPlan &Island) {
  const size_t NumBlocks = Island.Blocks.size();
  const size_t NumArrays = Program.numArrays();
  auto isIntermediate = [&](ArrayId Id) {
    return Program.array(Id).Role == ArrayRole::Intermediate;
  };

  // The dim-0 planes each block writes and reads of every intermediate.
  std::vector<std::vector<PlaneRange>> Written(
      NumBlocks, std::vector<PlaneRange>(NumArrays));
  std::vector<std::vector<PlaneRange>> Read = Written;
  for (size_t B = 0; B != NumBlocks; ++B)
    for (const StagePass &Pass : Island.Blocks[B].Passes) {
      if (Pass.Region.empty())
        continue;
      const StageDef &Stage = Program.stage(Pass.Stage);
      for (ArrayId Out : Stage.Outputs)
        if (isIntermediate(Out))
          cover(Written[B][static_cast<size_t>(Out)], Pass.Region.Lo[0],
                Pass.Region.Hi[0]);
      for (const StageInput &In : Stage.Inputs)
        if (isIntermediate(In.Array)) {
          Box3 R = In.readRegion(Pass.Region);
          cover(Read[B][static_cast<size_t>(In.Array)], R.Lo[0], R.Hi[0]);
        }
    }

  std::vector<std::vector<PlaneRange>> Windows(
      NumBlocks, std::vector<PlaneRange>(NumArrays));
  for (size_t First = 0; First != NumBlocks;) {
    // Windows never span fused steps: each step recomputes every
    // intermediate from scratch.
    size_t End = First + 1;
    while (End != NumBlocks && Island.Blocks[End].StepInEpoch ==
                                   Island.Blocks[First].StepInEpoch)
      ++End;
    for (size_t A = 0; A != NumArrays; ++A) {
      // Lowest plane read by block B or any later block of the step.
      std::vector<int> ReadFloor(End - First, INT_MAX);
      int Floor = INT_MAX;
      for (size_t B = End; B-- != First;) {
        if (!Read[B][A].empty())
          Floor = std::min(Floor, Read[B][A].Lo);
        ReadFloor[B - First] = Floor;
      }
      int HighWater = INT_MIN;
      for (size_t B = First; B != End; ++B) {
        const PlaneRange &W = Written[B][A];
        const PlaneRange &R = Read[B][A];
        int Lo = ReadFloor[B - First];
        if (!W.empty()) {
          HighWater = std::max(HighWater, W.Hi);
          Lo = std::min(Lo, W.Lo);
        }
        int Hi = R.empty() ? HighWater : std::max(HighWater, R.Hi);
        if (Lo < Hi)
          Windows[B][A] = {Lo, Hi};
      }
    }
    First = End;
  }
  return Windows;
}

IslandWindows icores::planIslandWindows(const StencilProgram &Program,
                                        const IslandPlan &Island) {
  IslandWindows Result;
  Result.Buffers.resize(Program.numArrays());
  for (const BlockTask &Block : Island.Blocks)
    for (const StagePass &Pass : Block.Passes)
      for (ArrayId Out : Program.stage(Pass.Stage).Outputs)
        if (Program.array(Out).Role == ArrayRole::Intermediate) {
          Box3 &Buf = Result.Buffers[static_cast<size_t>(Out)];
          Buf = Buf.unionWith(Pass.Region);
        }
  if (Island.Blocks.size() < 2)
    return Result;

  const std::vector<std::vector<PlaneRange>> Windows =
      liveWindows(Program, Island);
  std::vector<int> Capacity;
  for (unsigned A = 0; A != Program.numArrays(); ++A) {
    const Box3 &Union = Result.Buffers[A];
    if (Union.empty())
      continue;
    int Widest = 0;
    for (const std::vector<PlaneRange> &Block : Windows)
      Widest = std::max(Widest, Block[A].size());
    if (2 * Widest < Union.extent(0)) {
      Result.Sliding.push_back(static_cast<ArrayId>(A));
      Capacity.push_back(2 * Widest);
    }
  }
  if (Result.Sliding.empty())
    return Result;

  // Replay the epoch's blocks: the buffer of Sliding[A] holds planes
  // [Base[A], Base[A] + Capacity[A]).
  const size_t NumSliding = Result.Sliding.size();
  std::vector<int> Base(NumSliding);
  for (size_t A = 0; A != NumSliding; ++A) {
    const size_t Id = static_cast<size_t>(Result.Sliding[A]);
    const PlaneRange &First = Windows[0][Id];
    Base[A] = First.empty() ? Result.Buffers[Id].Lo[0] : First.Lo;
  }
  const std::vector<int> EpochBase = Base;
  bool Feasible = true;
  for (size_t B = 1; B != Island.Blocks.size() && Feasible; ++B) {
    bool Leaves = false;
    for (size_t A = 0; A != NumSliding; ++A) {
      const PlaneRange &Win =
          Windows[B][static_cast<size_t>(Result.Sliding[A])];
      Leaves |= !Win.empty() &&
                (Win.Lo < Base[A] || Win.Hi > Base[A] + Capacity[A]);
    }
    if (!Leaves)
      continue;
    Result.SlideBlocks.push_back(static_cast<int>(B));
    const bool SameStep =
        Island.Blocks[B].StepInEpoch == Island.Blocks[B - 1].StepInEpoch;
    for (size_t A = 0; A != NumSliding; ++A) {
      const size_t Id = static_cast<size_t>(Result.Sliding[A]);
      const PlaneRange &Win = Windows[B][Id];
      SlideMove Move;
      Move.NewBase = Win.empty() ? Base[A] : Win.Lo;
      // Live planes: those of the new window the previous one already
      // held. They move from their old buffer position to their new one.
      if (SameStep && !Win.empty() && Move.NewBase != Base[A]) {
        const PlaneRange &Prev = Windows[B - 1][Id];
        const int Lo = std::max(Win.Lo, Prev.Lo);
        const int Hi = std::min(Win.Hi, Prev.Hi);
        if (Lo < Hi) {
          Move.From = Lo - Base[A];
          Move.To = Lo - Move.NewBase;
          Move.Count = Hi - Lo;
          // The copy runs in ascending plane order, so it must move data
          // towards the buffer front, and it must read inside the buffer.
          Feasible &= Move.NewBase > Base[A] &&
                      Move.From + Move.Count <= Capacity[A];
        }
      }
      Base[A] = Move.NewBase;
      Result.Moves.push_back(Move);
    }
  }

  if (!Feasible) {
    // A plan the slide protocol cannot serve keeps the full layout. The
    // planners' high-water-mark blocks never get here; a hand-built plan
    // whose block writes below a still-live plane does.
    Result.Sliding.clear();
    Result.SlideBlocks.clear();
    Result.Moves.clear();
    return Result;
  }
  for (size_t A = 0; A != NumSliding; ++A) {
    Box3 &Buf = Result.Buffers[static_cast<size_t>(Result.Sliding[A])];
    Buf.Lo[0] = EpochBase[A];
    Buf.Hi[0] = EpochBase[A] + Capacity[A];
  }
  return Result;
}
