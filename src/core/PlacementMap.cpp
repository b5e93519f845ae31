//===- core/PlacementMap.cpp - Page-placement map and remote bytes --------===//

#include "core/PlacementMap.h"

#include "support/Error.h"

#include <algorithm>

using namespace icores;

namespace {

/// Sentinel half-extent for the outward extension of boundary parts. Any
/// region box the estimator or the executor ever intersects a segment with
/// is bounded by the domain plus a few halo cells, so "effectively
/// unbounded" just needs to dominate those; keeping it modest also keeps
/// Box3's int extents far from overflow.
constexpr int SentinelSpan = 1 << 20;

} // namespace

/// Extends \p Part outward on every face it shares with \p Target, so the
/// adjacent halo slabs (and any wider temporal cone margin) belong to the
/// nearest island. Interior faces are left alone, which makes the extended
/// parts pairwise disjoint and a tiling of all of space whenever the parts
/// tile the target.
Box3 icores::extendPartToHalo(const Box3 &Part, const Box3 &Target) {
  if (Part.empty())
    return Part;
  Box3 R = Part;
  for (int D = 0; D != 3; ++D) {
    if (Part.Lo[D] == Target.Lo[D])
      R.Lo[D] = Target.Lo[D] - SentinelSpan;
    if (Part.Hi[D] == Target.Hi[D])
      R.Hi[D] = Target.Hi[D] + SentinelSpan;
  }
  return R;
}

int64_t PlacementMap::localPoints(const Box3 &Region, int Socket) const {
  int64_t Points = 0;
  for (const PlacementSegment &Seg : Segments)
    if (Seg.HomeSocket == Socket)
      Points += Region.intersect(Seg.Extended).numPoints();
  return Points;
}

Box3 PlacementMap::arenaSegment(int Island, const Box3 &AllocBox) const {
  ICORES_CHECK(Island >= 0 &&
                   Island < static_cast<int>(Segments.size()),
               "arenaSegment island out of range");
  return Segments[static_cast<size_t>(Island)].Extended.intersect(AllocBox);
}

PlacementMap icores::buildPlacementMap(const ExecutionPlan &Plan,
                                       PlacementPolicy Policy) {
  ICORES_CHECK(!Plan.Islands.empty(), "plan has no islands");
  PlacementMap Map;
  Map.Policy = Policy;
  Map.HomeNode = Plan.Islands.front().HomeSocket;
  for (const IslandPlan &Island : Plan.Islands) {
    Map.Segments.push_back({Island.Index, Island.HomeSocket,
                            extendPartToHalo(Island.Part, Plan.GlobalTarget)});
    for (int S = 0; S != Island.NumSockets; ++S)
      Map.ActiveSockets.push_back(Island.HomeSocket + S);
  }
  std::sort(Map.ActiveSockets.begin(), Map.ActiveSockets.end());
  Map.ActiveSockets.erase(
      std::unique(Map.ActiveSockets.begin(), Map.ActiveSockets.end()),
      Map.ActiveSockets.end());
  return Map;
}

IslandFootprint icores::islandFootprint(const StencilProgram &Program,
                                        const ExecutionPlan &Plan,
                                        const IslandPlan &Island) {
  const int Depth = std::max(1, Plan.TemporalDepth);
  IslandFootprint F;
  F.Reads.resize(Program.numArrays());
  if (Depth > 1)
    F.Scratch.resize(Program.numArrays());
  F.FinalWrites.resize(Program.numArrays());
  auto grow = [](Box3 &Un, const Box3 &B) { Un = Un.unionWith(B); };
  for (const BlockTask &Block : Island.Blocks)
    for (const StagePass &Pass : Block.Passes) {
      const StageDef &Stage = Program.stage(Pass.Stage);
      for (const StageInput &In : Stage.Inputs)
        if (Program.array(In.Array).Role == ArrayRole::StepInput)
          grow(F.Reads[static_cast<size_t>(In.Array)],
               In.readRegion(Pass.Region));
      for (ArrayId Out : Stage.Outputs)
        if (Program.array(Out).Role == ArrayRole::StepOutput) {
          if (Depth > 1)
            grow(F.Scratch[static_cast<size_t>(Out)], Pass.Region);
          if (Block.StepInEpoch == Depth - 1)
            grow(F.FinalWrites[static_cast<size_t>(Out)], Pass.Region);
        }
    }
  // At T > 1 a feedback pair alternates between its Target's import
  // buffer and its Source's scratch buffer from fused step to fused step,
  // so both cover the pair's read and write unions.
  for (const FeedbackPair &FB : Program.feedbacks())
    if (Depth > 1) {
      Box3 &In = F.Reads[static_cast<size_t>(FB.Target)];
      Box3 &Out = F.Scratch[static_cast<size_t>(FB.Source)];
      In = Out = In.unionWith(Out);
    }
  return F;
}

int64_t IslandFootprint::readBytes(const StencilProgram &Program) const {
  int64_t Bytes = 0;
  for (ArrayId In : Program.stepInputs())
    Bytes += Reads[static_cast<size_t>(In)].numPoints() *
             Program.array(In).ElementBytes;
  return Bytes;
}

int64_t IslandFootprint::writeBytes(const StencilProgram &Program) const {
  int64_t Bytes = 0;
  for (ArrayId Out : Program.stepOutputs())
    Bytes += FinalWrites[static_cast<size_t>(Out)].numPoints() *
             Program.array(Out).ElementBytes;
  return Bytes;
}

IslandRemoteTraffic icores::estimateIslandRemoteEpochTraffic(
    const IslandPlan &Island, const ExecutionPlan &Plan,
    const StencilProgram &Program, const PlacementMap &Map) {
  IslandRemoteTraffic Traffic;

  // Classify one shared-array box against the map and accumulate its
  // remote slice. Mirrors the residency rules in the file comment.
  auto charge = [&](ArrayId Id, const Box3 &Box, bool IsWrite) {
    if (Box.empty())
      return;
    const int64_t ElementBytes = Program.array(Id).ElementBytes;
    const int64_t TotalPoints = Box.numPoints();
    int64_t RemoteBytes = 0;
    switch (Map.Policy) {
    case PlacementPolicy::FirstTouch:
      for (const PlacementSegment &Seg : Map.Segments) {
        if (Seg.HomeSocket == Island.HomeSocket)
          continue;
        int64_t Bytes =
            Box.intersect(Seg.Extended).numPoints() * ElementBytes;
        if (Bytes == 0)
          continue;
        RemoteBytes += Bytes;
        Traffic.BytesBySocket[Seg.HomeSocket] += Bytes;
      }
      break;
    case PlacementPolicy::None:
      // Serial init homes everything on the home node; islands living
      // elsewhere stream the whole box over the interconnect.
      if (Island.HomeSocket != Map.HomeNode) {
        RemoteBytes = TotalPoints * ElementBytes;
        Traffic.BytesBySocket[Map.HomeNode] += RemoteBytes;
      }
      break;
    case PlacementPolicy::Interleave: {
      const int64_t Sockets =
          static_cast<int64_t>(Map.ActiveSockets.size());
      if (Sockets <= 1)
        break;
      // A 1/S page slice of any region is local; the rest is spread
      // evenly across the other sockets.
      int64_t RemotePoints = TotalPoints - TotalPoints / Sockets;
      RemoteBytes = RemotePoints * ElementBytes;
      int64_t Share = RemoteBytes / (Sockets - 1);
      int64_t Rest = RemoteBytes - Share * (Sockets - 1);
      for (int S : Map.ActiveSockets) {
        if (S == Island.HomeSocket)
          continue;
        Traffic.BytesBySocket[S] += Share + Rest;
        Rest = 0;
      }
      break;
    }
    }
    if (RemoteBytes == 0)
      return;
    Traffic.BytesByArray[Id] += RemoteBytes;
    (IsWrite ? Traffic.WriteBytes : Traffic.ReadBytes) += RemoteBytes;
  };

  const IslandFootprint F = islandFootprint(Program, Plan, Island);
  for (ArrayId In : Program.stepInputs())
    charge(In, F.Reads[static_cast<size_t>(In)], /*IsWrite=*/false);
  for (ArrayId Out : Program.stepOutputs())
    charge(Out, F.FinalWrites[static_cast<size_t>(Out)], /*IsWrite=*/true);
  return Traffic;
}

int64_t icores::estimateRemoteBytesPerStep(const ExecutionPlan &Plan,
                                           const StencilProgram &Program,
                                           PlacementPolicy Policy) {
  PlacementMap Map = buildPlacementMap(Plan, Policy);
  int64_t PerEpoch = 0;
  for (const IslandPlan &Island : Plan.Islands)
    PerEpoch +=
        estimateIslandRemoteEpochTraffic(Island, Plan, Program, Map).total();
  return PerEpoch / std::max(1, Plan.TemporalDepth);
}
