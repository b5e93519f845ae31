//===- sim/Simulator.cpp - NUMA performance simulator ---------------------===//

#include "sim/Simulator.h"

#include "core/BalanceModel.h"
#include "core/PlacementMap.h"
#include "exec/EpochScript.h"
#include "exec/RegionSplit.h"
#include "support/Error.h"

#include <algorithm>
#include <map>
#include <utility>

using namespace icores;

namespace {

/// Sum of halo plane depths (both sides) the pass's inputs read along
/// \p Dim: the number of planes that cross a thread-boundary when the
/// region is split along Dim.
int haloDepthAlong(const StencilProgram &Program, const StagePass &Pass,
                   int Dim) {
  int Depth = 0;
  for (const StageInput &In : Program.stage(Pass.Stage).Inputs)
    Depth += (-In.MinOff[Dim]) + In.MaxOff[Dim];
  return Depth;
}

/// Per-island accumulated costs for one step.
struct IslandCosts {
  SimBreakdown Breakdown;
  int64_t Flops = 0;
  /// Per epoch (all fused steps), indexed by ArrayId.
  std::vector<ArrayDramBytes> DramByArray;
  int64_t RemoteBytes = 0;
  int64_t Barriers = 0; ///< Team barriers charged per epoch.
  int64_t Elided = 0;   ///< Non-empty passes no team barrier follows.
};

/// Simulates one island's step under the given stream rate (bytes/s
/// available to this island's team for main-memory traffic).
IslandCosts simulateIsland(const IslandPlan &Island,
                           const ExecutionPlan &Plan,
                           const StencilProgram &Program,
                           const MachineModel &Machine, double StreamRate,
                           bool MultipleIslands, const PlacementMap &Map,
                           const IslandRemoteTraffic &RemoteTraffic,
                           double KernelThroughput,
                           const EpochScript &Script) {
  IslandCosts Costs;
  Costs.DramByArray.resize(Program.numArrays());
  bool Blocked = Plan.Strat != Strategy::Original;
  const int Depth = std::max(1, Plan.TemporalDepth);
  double TeamFlopRate = static_cast<double>(Island.NumThreads) *
                        Machine.peakFlopsPerCore() *
                        Machine.KernelEfficiency * KernelThroughput;
  double WriteFactor = Machine.NonTemporalStores ? 1.0 : 2.0;
  auto spilled = [&Machine](int64_t Bytes) {
    return static_cast<int64_t>(Machine.CacheSpillFraction *
                                static_cast<double>(Bytes));
  };
  double RemoteRate = Machine.LinkBandwidth * Machine.RemoteAccessEfficiency;
  // Cache-resident halo lines prefetch well; cold DRAM-backed halos
  // (Original) do not.
  double RemoteVisible = Blocked ? (1.0 - Machine.RemoteOverlapFactor) : 1.0;

  double ComputeTotal = 0.0;
  // A pass's cache-resident reads per array: only the spill fraction of
  // them reaches DRAM, rounded once per (pass, array).
  std::vector<int64_t> ResidentReads(Program.numArrays(), 0);

  for (const BlockTask &Block : Island.Blocks) {
    double BlockCompute = 0.0;
    int64_t BlockDramBytes = 0;
    auto toDram = [&BlockDramBytes](int64_t &Slot, int64_t Bytes) {
      Slot += Bytes;
      BlockDramBytes += Bytes;
    };
    const bool FinalStep = Block.StepInEpoch == Depth - 1;

    for (const StagePass &Pass : Block.Passes) {
      const StageDef &Stage = Program.stage(Pass.Stage);
      int64_t Points = Pass.Region.numPoints();
      if (Points == 0)
        continue;

      Costs.Flops += Points * Stage.FlopsPerPoint;
      BlockCompute +=
          static_cast<double>(Points * Stage.FlopsPerPoint) / TeamFlopRate;

      // --- Main-memory traffic ----------------------------------------
      // Original streams every read in full. Blocked strategies keep
      // intermediates cache-resident, and temporal epochs read step inputs
      // from the island-private import buffer (cache-resident too), so
      // only the spill fraction of those reads reaches DRAM. Blocked T = 1
      // step-input reads are the island's footprint stream, charged at
      // island level below.
      for (const StageInput &In : Stage.Inputs) {
        const ArrayInfo &Info = Program.array(In.Array);
        int64_t ReadBytes =
            In.readRegion(Pass.Region).numPoints() * Info.ElementBytes;
        size_t A = static_cast<size_t>(In.Array);
        if (!Blocked)
          toDram(Costs.DramByArray[A].Read, ReadBytes);
        else if (Info.Role != ArrayRole::StepInput || Depth > 1)
          ResidentReads[A] += ReadBytes;
      }
      for (const StageInput &In : Stage.Inputs) {
        size_t A = static_cast<size_t>(In.Array);
        if (int64_t Bytes = std::exchange(ResidentReads[A], 0))
          toDram(Costs.DramByArray[A].Read, spilled(Bytes));
      }
      for (ArrayId Out : Stage.Outputs) {
        const ArrayInfo &Info = Program.array(Out);
        int64_t WriteBytes = static_cast<int64_t>(
            static_cast<double>(Points * Info.ElementBytes) * WriteFactor);
        ArrayDramBytes &Dram = Costs.DramByArray[static_cast<size_t>(Out)];
        // Intermediate fused steps write the island-private scratch
        // buffer, not the shared array: cache-resident for blocked
        // strategies, so it spills rather than streams.
        if (Blocked && (Info.Role == ArrayRole::Intermediate || !FinalStep))
          toDram(Dram.Write, spilled(WriteBytes));
        else
          toDram(Dram.Write, WriteBytes);
      }

      // --- Remote (interconnect) halo traffic --------------------------
      if (Island.NumSockets > 1) {
        int Dim = teamSplitDim(Pass.Region);
        int Depth = haloDepthAlong(Program, Pass, Dim);
        int64_t CrossSection = Points / std::max(1, Pass.Region.extent(Dim));
        // Each adjacent socket pair exchanges over its own link; links
        // operate concurrently, so the visible cost is per link.
        int64_t PerLinkBytes =
            CrossSection * Depth * static_cast<int64_t>(sizeof(double));
        Costs.RemoteBytes += PerLinkBytes * (Island.NumSockets - 1);
        if (RemoteRate > 0.0)
          Costs.Breakdown.Remote += static_cast<double>(PerLinkBytes) /
                                    RemoteRate * RemoteVisible;
      }
    }

    double BlockDram = StreamRate > 0.0
                           ? static_cast<double>(BlockDramBytes) / StreamRate
                           : 0.0;
    // Within a block, streaming overlaps compute; the block takes the
    // larger of the two.
    ComputeTotal += BlockCompute;
    if (BlockDram > BlockCompute) {
      Costs.Breakdown.Dram += BlockDram - BlockCompute;
      Costs.Breakdown.Compute += BlockCompute;
    } else {
      Costs.Breakdown.Compute += BlockCompute;
    }
  }

  // Charge the island-wide step-input streams — the footprint reads the
  // executor gathers: at T = 1 the union of the read regions (one sweep
  // plus the island's cones; consecutive blocks overlap only in
  // cache-resident cone margins), at T > 1 the feedback-paired import
  // buffers (static inputs are gathered once per prepareInputs(), not per
  // epoch) — overlapped with whatever compute headroom the per-block
  // accounting left unused. Under
  // FirstTouch, the slice of the union outside the island's own arena
  // segment lives on neighbor islands' first-touch pages (phase 1 of the
  // algorithm shares all inputs): the placement map splits those cone
  // margins out as cold remote DRAM reads, priced per home socket at the
  // hop-aware remote stream rate. None's remoteness is priced by the
  // home-node funnel StreamRate and Interleave's by the harmonic
  // interleave StreamRate, so neither charges a separate remote term.
  int64_t InputBytes = 0;
  int64_t RemoteInputBytes = 0;
  bool FirstTouchMargins = Map.Policy == PlacementPolicy::FirstTouch &&
                           Island.NumSockets == 1 && MultipleIslands;
  if (Blocked || Depth > 1) {
    const IslandFootprint F = islandFootprint(Program, Plan, Island);
    for (ArrayId In : Program.stepInputs()) {
      if (!F.readsEachEpoch(Program, In))
        continue;
      int64_t Bytes = F.Reads[static_cast<size_t>(In)].numPoints() *
                      Program.array(In).ElementBytes;
      Costs.DramByArray[static_cast<size_t>(In)].Read += Bytes;
      InputBytes += Bytes;
    }
  }
  if (FirstTouchMargins)
    RemoteInputBytes = std::min(RemoteTraffic.ReadBytes, InputBytes);
  Costs.RemoteBytes += RemoteInputBytes;
  double InputSeconds =
      StreamRate > 0.0
          ? static_cast<double>(InputBytes - RemoteInputBytes) / StreamRate
          : 0.0;
  double Headroom = ComputeTotal - Costs.Breakdown.Dram;
  if (InputSeconds > Headroom)
    Costs.Breakdown.Dram += InputSeconds - std::max(0.0, Headroom);
  if (FirstTouchMargins)
    for (const auto &[Socket, Bytes] : RemoteTraffic.BytesBySocket) {
      double Rate = Machine.remoteStreamBandwidth(Island.HomeSocket, Socket);
      if (Rate > 0.0)
        Costs.Breakdown.Remote += static_cast<double>(Bytes) / Rate;
    }

  // Every team barrier the island's epoch script crosses: the plan's pass
  // barriers (none after the epoch's last pass), the structural and slide
  // barriers; the passes no team barrier follows are the elided ones.
  Costs.Barriers = Script.count(EpochOp::Kind::TeamBarrier);
  for (const EpochOp &Op : Script.Ops)
    Costs.Elided += Op.K == EpochOp::Kind::Pass && !Op.BarrierAfter &&
                    !Op.Pass->Region.empty();
  Costs.Breakdown.Barrier +=
      static_cast<double>(Costs.Barriers) *
      Machine.barrierCost(Island.NumSockets, Island.NumThreads);

  // Everything accumulated above covers all Depth fused steps of the
  // epoch — average it back to per-step costs.
  if (Depth > 1) {
    double Inv = 1.0 / static_cast<double>(Depth);
    Costs.Breakdown.Compute *= Inv;
    Costs.Breakdown.Dram *= Inv;
    Costs.Breakdown.Remote *= Inv;
    Costs.Breakdown.Barrier *= Inv;
    Costs.Breakdown.Overhead *= Inv;
    Costs.Flops /= Depth;
    Costs.RemoteBytes /= Depth;
    Costs.Elided /= Depth;
  }
  return Costs;
}

} // namespace

double icores::kernelThroughputFactor(KernelVariant Variant) {
  // Normalized aggregate hot-cache Gflop/s from bench/bench_kernels on
  // the dev host (see EXPERIMENTS.md): the machine models' calibrated
  // KernelEfficiency corresponds to the Simd backend.
  switch (Variant) {
  case KernelVariant::Reference:
    return 0.12;
  case KernelVariant::Simd:
    return 1.0;
  }
  return 1.0;
}

int64_t
icores::projectedSharedBytesPerStep(const ExecutionPlan &Plan,
                                    const StencilProgram &Program) {
  int64_t PerEpoch = 0;
  for (const IslandPlan &Island : Plan.Islands) {
    const IslandFootprint F = islandFootprint(Program, Plan, Island);
    PerEpoch += F.readBytes(Program) + F.writeBytes(Program);
  }
  return PerEpoch / std::max(1, Plan.TemporalDepth);
}

SimResult icores::simulate(const ExecutionPlan &Plan,
                           const StencilProgram &Program,
                           const MachineModel &Machine, int TimeSteps,
                           const SimOptions &Options) {
  ICORES_CHECK(TimeSteps >= 1, "need at least one time step");
  ICORES_CHECK(!Plan.Islands.empty(), "plan has no islands");

  // Distinct sockets touched by any island (sub-socket islands share a
  // home socket), plus per-socket island counts for bandwidth sharing.
  std::map<int, int> IslandsPerSocket;
  for (const IslandPlan &Island : Plan.Islands)
    for (int S = 0; S != Island.NumSockets; ++S)
      ++IslandsPerSocket[Island.HomeSocket + S];
  int ActiveSockets = static_cast<int>(IslandsPerSocket.size());
  ICORES_CHECK(ActiveSockets <= Machine.NumSockets,
               "plan uses more sockets than the machine has");

  SimResult Result;
  Result.TimeSteps = TimeSteps;
  Result.DramBytesByArray.resize(Program.numArrays());
  Result.ActiveSockets = ActiveSockets;
  Result.SharedBytesPerStep = projectedSharedBytesPerStep(Plan, Program);
  Result.PredictedIslandSkew = predictedIslandSkew(Plan, Program, Machine);

  // The plan-derived page-ownership map under the plan's policy: each
  // island's remote-byte estimate from it is the one the executor sums
  // into remote_bytes_est (same function), and FirstTouch islands'
  // cone-margin remoteness is priced from its per-socket split.
  PlacementMap PMap = buildPlacementMap(Plan, Plan.Placement);
  const int Depth = std::max(1, Plan.TemporalDepth);
  int64_t RemotePlacementBytesPerEpoch = 0;

  // The epoch protocol the executor runs: its barrier ops are what the
  // islands and the run pay for synchronisation.
  const std::vector<EpochScript> Scripts = buildEpochScripts(Program, Plan);
  Result.GlobalBarriersPerEpoch =
      Scripts.front().count(EpochOp::Kind::GlobalBarrier);

  double WorstIslandSeconds = 0.0;
  for (size_t I = 0; I != Plan.Islands.size(); ++I) {
    const IslandPlan &Island = Plan.Islands[I];
    double StreamRate;
    if (Plan.Placement == PagePlacement::None) {
      // Every island's traffic funnels through the home node, shared
      // among all concurrently streaming islands.
      StreamRate = Machine.homeNodeBandwidth(ActiveSockets) /
                   static_cast<double>(Plan.Islands.size());
    } else if (Plan.Placement == PagePlacement::Interleave) {
      // Pages round-robin over the active sockets: every stream is a
      // pipeline of 1/S-local, rest-remote slices (harmonic mean rate),
      // shared like the first-touch case among the socket's islands.
      int Sharers = IslandsPerSocket[Island.HomeSocket];
      StreamRate = Machine.interleaveStreamBandwidth(Island.HomeSocket,
                                                     PMap.ActiveSockets) *
                   Island.NumSockets / std::max(1, Sharers);
    } else {
      // FirstTouch: sub-socket islands share their home socket's memory
      // bandwidth.
      int Sharers = IslandsPerSocket[Island.HomeSocket];
      StreamRate = Machine.DramBandwidthPerSocket * Island.NumSockets /
                   std::max(1, Sharers);
    }
    const IslandRemoteTraffic RemoteTraffic =
        estimateIslandRemoteEpochTraffic(Island, Plan, Program, PMap);
    RemotePlacementBytesPerEpoch += RemoteTraffic.total();
    for (const auto &[Array, Bytes] : RemoteTraffic.BytesByArray)
      Result.DramBytesByArray[static_cast<size_t>(Array)].Remote +=
          Bytes / Depth;
    IslandCosts Costs = simulateIsland(
        Island, Plan, Program, Machine, StreamRate, Plan.Islands.size() > 1,
        PMap, RemoteTraffic, kernelThroughputFactor(Options.Kernels),
        Scripts[I]);
    Result.FlopsPerStep += Costs.Flops;
    for (size_t A = 0; A != Costs.DramByArray.size(); ++A) {
      Result.DramBytesByArray[A].Read += Costs.DramByArray[A].Read;
      Result.DramBytesByArray[A].Write += Costs.DramByArray[A].Write;
    }
    Result.RemoteBytesPerStep += Costs.RemoteBytes;
    Result.TeamBarriersPerEpoch += Costs.Barriers;
    Result.ElidedBarriersPerStep += Costs.Elided;
    double Seconds = Costs.Breakdown.total();
    if (Seconds > WorstIslandSeconds) {
      WorstIslandSeconds = Seconds;
      Result.CriticalIsland = Costs.Breakdown;
    }
  }

  // The islands' epoch traffic, averaged over the fused steps once per
  // array (the remote slices were averaged per island above).
  Result.PlacementRemoteBytesPerStep = RemotePlacementBytesPerEpoch / Depth;
  for (ArrayDramBytes &Dram : Result.DramBytesByArray) {
    Dram.Read /= Depth;
    Dram.Write /= Depth;
    Result.DramBytesPerStep += Dram.total();
  }

  // Shared per-step costs: the epoch's global barriers across every
  // active socket plus the fixed turnover (scheduler), both amortised over
  // the fused steps.
  double Shared = (static_cast<double>(Result.GlobalBarriersPerEpoch) *
                       Machine.barrierCost(ActiveSockets) +
                   Machine.StepOverheadSeconds) /
                  static_cast<double>(Depth);
  Result.CriticalIsland.Overhead += Shared;

  Result.StepSeconds = WorstIslandSeconds + Shared;
  Result.TotalSeconds = Result.StepSeconds * TimeSteps;
  return Result;
}
