//===- sim/Simulator.h - NUMA performance simulator -------------*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A mechanistic cost simulator for ExecutionPlans on SMP/NUMA machines.
/// This substitutes for the paper's SGI UV 2000 measurements (see
/// DESIGN.md §2): it charges the *same schedules* the executor runs with
/// compute, DRAM-stream, remote-interconnect, barrier and turnover costs
/// derived from the stencil IR and the MachineModel.
///
/// Cost structure per time step (all islands run concurrently; the step
/// takes the slowest island plus shared per-step costs):
///
///  - compute: pass points x stage flops / (team cores x peak x kernel
///    efficiency);
///  - DRAM: per block, streamed bytes / team stream rate, overlapped with
///    that block's compute (max, not sum). Original streams every array
///    every pass; blocked strategies stream step inputs once per block
///    plus a calibrated spill fraction of the intermediate sweeps. This
///    is the one place that decides which bytes reach DRAM; it records
///    them per array, and sim/TrafficReport.h only renders that record.
///    Serial-init placement funnels all traffic through the home node's
///    saturating contention curve (Table 1's first row);
///  - remote: for teams spanning >1 socket, the per-link halo planes
///    between adjacent sockets' sub-regions of each pass, at the
///    interconnect's cache-to-cache efficiency (partially overlapped for
///    cache-resident data);
///  - barrier: every team barrier of the island's epoch script
///    (exec/EpochScript.h, the protocol the executor runs): one per pass
///    whose BarrierAfter bit is set but the epoch's last, plus the
///    structural and slide barriers, cost growing with the socket span — the term that sinks
///    the pure (3+1)D decomposition. Plans transformed by the
///    barrier-elision optimizer (core/ScheduleOptimizer.h) are charged
///    only for the barriers that remain, so predicted barrier share tracks
///    the optimization;
///  - overhead: per-step turnover plus the script's global barriers.
///
/// Temporal blocking (ExecutionPlan::TemporalDepth T > 1) is charged the
/// way the executor runs it: all T fused steps' passes are accumulated
/// per epoch and divided by T. Step-input reads and intermediate-step
/// output writes are served by the island-private import/scratch buffers
/// (cache-resident for the blocked strategies, so they pay only the
/// calibrated spill fraction); the DRAM stream is the once-per-epoch
/// import gather plus the final fused step's shared writes; and the
/// script's barriers and the turnover amortise over the epoch.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_SIM_SIMULATOR_H
#define ICORES_SIM_SIMULATOR_H

#include "core/ExecutionPlan.h"
#include "machine/MachineModel.h"
#include "stencil/KernelTable.h"
#include "stencil/StencilIR.h"

#include <cstdint>
#include <vector>

namespace icores {

/// Per-step seconds attributed to each cost source along the critical
/// (slowest-island) path.
struct SimBreakdown {
  double Compute = 0.0;
  double Dram = 0.0;
  double Remote = 0.0;
  double Barrier = 0.0;
  double Overhead = 0.0;

  double total() const { return Compute + Dram + Remote + Barrier + Overhead; }
};

/// Main-memory bytes one array reads and writes.
struct ArrayDramBytes {
  int64_t Read = 0;
  int64_t Write = 0;
  /// The slice of the array's shared traffic served from pages the plan's
  /// placement homes on another socket than the accessing island
  /// (core/PlacementMap.h): each island's epoch estimate divided by the
  /// temporal depth. Zero for island-private intermediates.
  int64_t Remote = 0;

  int64_t total() const { return Read + Write; }
};

/// Result of simulating a plan for a number of homogeneous time steps.
struct SimResult {
  int TimeSteps = 0;
  double StepSeconds = 0.0;  ///< Critical-path seconds per step.
  double TotalSeconds = 0.0; ///< StepSeconds * TimeSteps.
  SimBreakdown CriticalIsland; ///< Cost split on the slowest island.

  int64_t FlopsPerStep = 0;      ///< Includes redundant island work.
  int64_t DramBytesPerStep = 0;  ///< Main-memory traffic, all islands
                                 ///< (likwid-perfctr analogue).
  /// DramBytesPerStep split by array (indexed by ArrayId): the entries sum
  /// to it exactly. sim/TrafficReport.h renders this split.
  std::vector<ArrayDramBytes> DramBytesByArray;
  int64_t RemoteBytesPerStep = 0; ///< Interconnect halo traffic.

  /// Team barriers per epoch across all islands: the TeamBarrier ops of
  /// the islands' epoch scripts (exec/EpochScript.h) — every pass barrier
  /// but the epoch's last, empty passes' included, plus the structural
  /// and slide barriers — each the crossing the executor makes.
  int64_t TeamBarriersPerEpoch = 0;
  /// Global barriers per epoch: the GlobalBarrier ops of one script (every
  /// island's script crosses the same ones).
  int64_t GlobalBarriersPerEpoch = 0;
  /// Non-empty passes no team barrier follows (not charged): those whose
  /// barrier the plan elides, and each island's last pass of the epoch.
  int64_t ElidedBarriersPerStep = 0;

  /// Projected logical traffic between the islands and the shared arrays
  /// per time step, by the same formula the executor measures
  /// (ProgramExecutor::sharedBytesPerStep): per-epoch import reads (the
  /// feedback targets only at T > 1; static inputs are gathered once, not
  /// per epoch) plus final-step output writes, divided by the temporal
  /// depth.
  int64_t SharedBytesPerStep = 0;

  /// Projected remote-DRAM bytes per step under the plan's placement
  /// policy: the islands' epoch estimates from core/PlacementMap.h summed
  /// and divided by the temporal depth, as the executor's ExecStats
  /// remote_bytes_est sums them, so projection and measurement agree
  /// exactly by construction (the placement analogue of
  /// SharedBytesPerStep). DramBytesByArray splits it by array.
  int64_t PlacementRemoteBytesPerStep = 0;

  /// Predicted island skew (max over islands of predicted seconds over
  /// the mean) from core/BalanceModel.h's predictedIslandSkew() — the
  /// SAME function the executor stamps into ExecStats, so the simulator
  /// and the executor agree on the predicted skew by construction. 1.0
  /// for single-island plans; cost-balanced partitions drive it toward
  /// 1.0 on skewed configurations.
  double PredictedIslandSkew = 1.0;

  int ActiveSockets = 0;

  double sustainedGflops() const {
    return StepSeconds > 0.0
               ? static_cast<double>(FlopsPerStep) / StepSeconds / 1e9
               : 0.0;
  }

  int64_t totalDramBytes() const { return DramBytesPerStep * TimeSteps; }
};

/// Simulation knobs beyond the machine model.
struct SimOptions {
  /// Which kernel backend the modelled run uses. The machine's
  /// KernelEfficiency is calibrated against the Simd backend (factor
  /// 1.0); the others are scaled by kernelThroughputFactor().
  KernelVariant Kernels = KernelVariant::Simd;
};

/// Relative per-core kernel throughput of \p Variant, normalized to the
/// Simd backend (= 1.0). Calibrated from bench/bench_kernels aggregate
/// hot-cache Gflop/s on the dev host; scales MachineModel's
/// KernelEfficiency in the compute term.
double kernelThroughputFactor(KernelVariant Variant);

/// The simulator's projection of ProgramExecutor::sharedBytesPerStep()
/// for \p Plan: logical bytes each island exchanges with the shared
/// arrays per time step, averaged over a temporal epoch. Pure plan
/// geometry — no machine model involved — computed with the executor's
/// own footprint formula so benches can compare projected against
/// measured directly.
int64_t projectedSharedBytesPerStep(const ExecutionPlan &Plan,
                                    const StencilProgram &Program);

/// Simulates \p TimeSteps homogeneous steps of \p Plan on \p Machine.
SimResult simulate(const ExecutionPlan &Plan, const StencilProgram &Program,
                   const MachineModel &Machine, int TimeSteps,
                   const SimOptions &Options = {});

} // namespace icores

#endif // ICORES_SIM_SIMULATOR_H
