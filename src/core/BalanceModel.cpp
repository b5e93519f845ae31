//===- core/BalanceModel.cpp - Cost-balanced island partitioning ----------===//

#include "core/BalanceModel.h"

#include "core/PlacementMap.h"
#include "machine/MachineModel.h"
#include "stencil/HaloAnalysis.h"
#include "support/Error.h"

#include <algorithm>

using namespace icores;

namespace {

/// Per-step global cone requirements, computed once and shared across the
/// many per-slab cost evaluations the bisection makes.
std::vector<RegionRequirements>
globalStepRequirements(const StencilProgram &Program,
                       const std::vector<Box3> &GlobalSteps) {
  std::vector<RegionRequirements> Req;
  Req.reserve(GlobalSteps.size());
  for (const Box3 &G : GlobalSteps)
    Req.push_back(computeRequirements(Program, G));
  return Req;
}

int64_t coneFlopsImpl(const StencilProgram &Program, const Box3 &Part,
                      const std::vector<RegionRequirements> &GlobalReq) {
  const int Depth = static_cast<int>(GlobalReq.size());
  std::vector<Box3> StepTargets = temporalStepTargets(Program, Part, Depth);
  int64_t Flops = 0;
  for (int T = 0; T != Depth; ++T) {
    RegionRequirements Local =
        computeRequirements(Program, StepTargets[static_cast<size_t>(T)]);
    const RegionRequirements &Bound = GlobalReq[static_cast<size_t>(T)];
    for (unsigned S = 0; S != Program.numStages(); ++S)
      Flops += Local.StageRegion[S].intersect(Bound.StageRegion[S])
                   .numPoints() *
               Program.stage(static_cast<StageId>(S)).FlopsPerPoint;
  }
  return Flops;
}

int64_t remoteEpochBytesImpl(const StencilProgram &Program, const Box3 &Part,
                             const Box3 &GlobalTarget,
                             const std::vector<RegionRequirements> &GlobalReq,
                             PagePlacement Placement, bool OnHomeNode,
                             int ActiveSockets) {
  if (Part.empty())
    return 0;
  const int Depth = static_cast<int>(GlobalReq.size());
  // The import footprint: the widest (first) fused step's step-input read
  // regions, clipped to the global cone's read regions (nothing outside
  // them ever holds valid data), plus the final-step output writes (the
  // part itself).
  std::vector<Box3> StepTargets = temporalStepTargets(Program, Part, Depth);
  RegionRequirements First = computeRequirements(Program, StepTargets[0]);
  const RegionRequirements &Bound = GlobalReq[0];

  const Box3 Extended = extendPartToHalo(Part, GlobalTarget);
  int64_t Remote = 0;
  auto charge = [&](ArrayId Id, const Box3 &Box) {
    if (Box.empty())
      return;
    const int64_t Bytes = Box.numPoints() * Program.array(Id).ElementBytes;
    switch (Placement) {
    case PlacementPolicy::FirstTouch:
      // Arena segments tile space, so everything outside this part's own
      // extended segment lives on some other island's socket.
      Remote +=
          Bytes - Box.intersect(Extended).numPoints() *
                      Program.array(Id).ElementBytes;
      break;
    case PlacementPolicy::None:
      // Serial init homes every page on the home node; off-home islands
      // stream the whole box over the interconnect.
      if (!OnHomeNode)
        Remote += Bytes;
      break;
    case PlacementPolicy::Interleave: {
      if (ActiveSockets <= 1)
        break;
      const int64_t Points = Box.numPoints();
      Remote += (Points - Points / ActiveSockets) *
                Program.array(Id).ElementBytes;
      break;
    }
    }
  };
  for (ArrayId In : Program.stepInputs())
    charge(In, First.ArrayRegion[static_cast<size_t>(In)].intersect(
                   Bound.ArrayRegion[static_cast<size_t>(In)]));
  for (ArrayId Out : Program.stepOutputs())
    charge(Out, Part);
  return Remote;
}

double partSecondsImpl(const StencilProgram &Program, const Box3 &Part,
                       const Box3 &GlobalTarget,
                       const std::vector<RegionRequirements> &GlobalReq,
                       int NumThreads, const MachineModel &Machine,
                       PagePlacement Placement, bool OnHomeNode,
                       int ActiveSockets) {
  const double Throughput = std::max(1.0, NumThreads *
                                              Machine.peakFlopsPerCore() *
                                              Machine.KernelEfficiency);
  double Seconds =
      static_cast<double>(coneFlopsImpl(Program, Part, GlobalReq)) /
      Throughput;
  const double RemoteRate =
      Machine.LinkBandwidth * Machine.RemoteAccessEfficiency;
  if (RemoteRate > 0.0)
    Seconds += static_cast<double>(remoteEpochBytesImpl(
                   Program, Part, GlobalTarget, GlobalReq, Placement,
                   OnHomeNode, ActiveSockets)) /
               RemoteRate;
  return Seconds;
}

} // namespace

int64_t icores::partConeFlops(const StencilProgram &Program, const Box3 &Part,
                              const std::vector<Box3> &GlobalSteps) {
  return coneFlopsImpl(Program, Part,
                       globalStepRequirements(Program, GlobalSteps));
}

std::vector<double>
icores::predictedIslandSeconds(const ExecutionPlan &Plan,
                               const StencilProgram &Program,
                               const MachineModel &Machine) {
  ICORES_CHECK(!Plan.Islands.empty(), "plan has no islands");
  std::vector<Box3> GlobalSteps = temporalStepTargets(
      Program, Plan.GlobalTarget, std::max(1, Plan.TemporalDepth));
  std::vector<RegionRequirements> GlobalReq =
      globalStepRequirements(Program, GlobalSteps);

  // Active sockets, the S of the interleave model (matches
  // buildPlacementMap: sub-socket islands collapse).
  std::vector<int> Sockets;
  for (const IslandPlan &Island : Plan.Islands)
    for (int S = 0; S != Island.NumSockets; ++S)
      Sockets.push_back(Island.HomeSocket + S);
  std::sort(Sockets.begin(), Sockets.end());
  Sockets.erase(std::unique(Sockets.begin(), Sockets.end()), Sockets.end());
  const int ActiveSockets = static_cast<int>(Sockets.size());
  const int HomeNode = Plan.Islands.front().HomeSocket;

  std::vector<double> Seconds;
  Seconds.reserve(Plan.Islands.size());
  for (const IslandPlan &Island : Plan.Islands)
    Seconds.push_back(partSecondsImpl(
        Program, Island.Part, Plan.GlobalTarget, GlobalReq,
        Island.NumThreads, Machine, Plan.Placement,
        Island.HomeSocket == HomeNode, ActiveSockets));
  return Seconds;
}

double icores::predictedIslandSkew(const ExecutionPlan &Plan,
                                   const StencilProgram &Program,
                                   const MachineModel &Machine) {
  std::vector<double> Seconds =
      predictedIslandSeconds(Plan, Program, Machine);
  if (Seconds.size() < 2)
    return 1.0;
  double Max = 0.0, Sum = 0.0;
  for (double S : Seconds) {
    Max = std::max(Max, S);
    Sum += S;
  }
  const double Mean = Sum / static_cast<double>(Seconds.size());
  return Mean > 0.0 ? Max / Mean : 1.0;
}

std::vector<Box3> icores::partitionCostBalanced(
    const StencilProgram &Program, const Box3 &Target, int Parts, int Dim,
    int TemporalDepth, int NumThreads, const MachineModel &Machine,
    PagePlacement Placement, int ActiveSockets,
    const std::vector<bool> &OnHomeNodeByPart) {
  ICORES_CHECK(Parts >= 1, "need at least one part");
  ICORES_CHECK(Dim >= 0 && Dim < 3, "dimension out of range");
  ICORES_CHECK(TemporalDepth >= 1, "temporal depth must be at least 1");
  const int Extent = Target.extent(Dim);
  ICORES_CHECK(Parts * MinIslandPlanes <= Extent,
               "more parts than minimum-extent slabs along the split "
               "dimension");
  ICORES_CHECK(OnHomeNodeByPart.empty() ||
                   static_cast<int>(OnHomeNodeByPart.size()) == Parts,
               "home-node flags must match the part count");
  if (Parts == 1)
    return {Target};

  std::vector<Box3> GlobalSteps =
      temporalStepTargets(Program, Target, TemporalDepth);
  std::vector<RegionRequirements> GlobalReq =
      globalStepRequirements(Program, GlobalSteps);

  auto onHome = [&](int Index) {
    return OnHomeNodeByPart.empty() ? Index == 0
                                    : OnHomeNodeByPart[static_cast<size_t>(
                                          Index)];
  };
  auto slabCost = [&](int LoPlane, int HiPlane, int Index) {
    Box3 Slab = Target;
    Slab.Lo[Dim] = Target.Lo[Dim] + LoPlane;
    Slab.Hi[Dim] = Target.Lo[Dim] + HiPlane;
    return partSecondsImpl(Program, Slab, Target, GlobalReq, NumThreads,
                           Machine, Placement, onHome(Index), ActiveSockets);
  };

  // Greedy left-to-right cut placement for a cost ceiling Tau: each island
  // takes the widest slab whose cost stays under the ceiling (inner binary
  // search — slab cost is monotone non-decreasing in width, since wider
  // slabs have nested, therefore larger, clipped cones). Later islands
  // reserve MinIslandPlanes planes each, so no searched slab ever reaches
  // the domain face (where the first-touch margin would vanish and break
  // monotonicity). Returns whether the leftover last slab also fits.
  auto placeCuts = [&](double Tau, std::vector<int> &Cuts) {
    Cuts.clear();
    int Lo = 0;
    for (int P = 0; P != Parts - 1; ++P) {
      const int HiMin = Lo + MinIslandPlanes;
      const int HiMax = Extent - (Parts - 1 - P) * MinIslandPlanes;
      if (HiMin > HiMax || slabCost(Lo, HiMin, P) > Tau)
        return false;
      int Good = HiMin, Bad = HiMax + 1;
      while (Bad - Good > 1) {
        const int Mid = Good + (Bad - Good) / 2;
        (slabCost(Lo, Mid, P) <= Tau ? Good : Bad) = Mid;
      }
      Cuts.push_back(Good);
      Lo = Good;
    }
    return slabCost(Lo, Extent, Parts - 1) <= Tau;
  };

  // Outer bisection on the ceiling. The starting ceiling must be feasible
  // for EVERY part index, and no whole-domain cost works as a bound: a
  // remote part pays a per-point premium under serial-init placement, and
  // under first-touch the halo-import bytes are a *boundary* measure — a
  // one-plane interior slab can cost more than the entire domain. The one
  // layout the greedy always reaches is its own Tau=infinity answer
  // (island 0 maximal, every later island at MinIslandPlanes); pricing
  // that layout gives a ceiling the greedy can meet by construction,
  // needing only the width-monotonicity the inner search already
  // assumes. 60 halvings pin Tau to machine precision.
  double LoTau = 0.0, HiTau = 0.0;
  {
    int Lo = 0;
    for (int P = 0; P != Parts; ++P) {
      const int Hi =
          P == Parts - 1 ? Extent : Extent - (Parts - 1 - P) * MinIslandPlanes;
      HiTau = std::max(HiTau, slabCost(Lo, Hi, P));
      Lo = Hi;
    }
  }
  std::vector<int> Cuts, BestCuts;
  ICORES_CHECK(placeCuts(HiTau, BestCuts),
               "cost-balanced partition: upper ceiling infeasible");
  for (int Iter = 0; Iter != 60; ++Iter) {
    const double Mid = 0.5 * (LoTau + HiTau);
    if (placeCuts(Mid, Cuts)) {
      HiTau = Mid;
      BestCuts = Cuts;
    } else {
      LoTau = Mid;
    }
  }

  // Materialize the slabs; they tile the target exactly by construction
  // (cut plane P ends slab P and begins slab P+1).
  std::vector<Box3> Result;
  Result.reserve(static_cast<size_t>(Parts));
  int Lo = 0;
  for (int P = 0; P != Parts; ++P) {
    const int Hi =
        P == Parts - 1 ? Extent : BestCuts[static_cast<size_t>(P)];
    Box3 Slab = Target;
    Slab.Lo[Dim] = Target.Lo[Dim] + Lo;
    Slab.Hi[Dim] = Target.Lo[Dim] + Hi;
    Result.push_back(Slab);
    Lo = Hi;
  }
  return Result;
}
