//===- bench/bench_kernels.cpp - Kernel-backend roofline comparison -------===//
//
// Times all 17 MPDATA stage kernels for both backends (Reference /
// Simd) on this host, on two regions:
//
//   hot  — small enough that the touched arrays stay cache-resident, so
//          the numbers approach the per-core compute roofline;
//   cold — large enough that every sweep streams from main memory, so
//          the numbers approach the bandwidth roofline.
//
// Gflop/s uses the IR's FlopsPerPoint; GB/s charges the *logical*
// (unpadded) bytes of the IR access pattern — the same accounting the
// traffic model uses — even though the arrays are allocated with the
// vector-padded layout. Per-stage and aggregate rows are written to
// BENCH_kernels.json (schema icores.bench.v1, kernel-row shape) so the
// perf trajectory of the backends is machine-tracked. The shape checks
// assert the point of the Simd backend: aggregate hot-cache Gflop/s at
// least 1.5x the Reference kernels.
//
// It ends with the host-measured half of the performance model's check:
// the barrier share the simulator predicts for a plan vs the share the
// real threaded executor measures running it here (median and min-max of
// 9 runs; informational, host timings are noisy). The model-only tables
// are bench/paper_tables.cpp's.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/PlanBuilder.h"
#include "core/ScheduleOptimizer.h"
#include "exec/ProgramExecutor.h"
#include "machine/MachineModel.h"
#include "mpdata/InitialConditions.h"
#include "mpdata/Kernels.h"
#include "mpdata/MpdataProgram.h"
#include "sim/Simulator.h"
#include "stencil/FieldStore.h"
#include "support/Format.h"
#include "support/OStream.h"
#include "support/Random.h"
#include "support/Table.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <thread>

using namespace icores;
using namespace icores::bench;

namespace {

/// One benchmark configuration: the stage sweep target and the store
/// holding vector-padded, randomly filled arrays covering it.
struct BenchSetup {
  const MpdataProgram &M;
  Box3 Target;
  FieldStore Fields;

  BenchSetup(const MpdataProgram &M, const Box3 &Target)
      : M(M), Target(Target), Fields(M.Program.numArrays()) {
    Box3 Alloc = Target.grownAll(4);
    SplitMix64 Rng(7);
    for (unsigned A = 0; A != M.Program.numArrays(); ++A) {
      Fields.allocateOwned(static_cast<ArrayId>(A), Alloc,
                           Array3D::VectorPadK);
      Array3D &Arr = Fields.get(static_cast<ArrayId>(A));
      for (int I = Alloc.Lo[0]; I != Alloc.Hi[0]; ++I)
        for (int J = Alloc.Lo[1]; J != Alloc.Hi[1]; ++J)
          for (int K = Alloc.Lo[2]; K != Alloc.Hi[2]; ++K)
            Arr.at(I, J, K) = Rng.nextInRange(0.1, 1.0);
    }
    // Velocities must be small Courant numbers for realistic branches.
    for (ArrayId Vel : {M.U1, M.U2, M.U3}) {
      Array3D &Arr = Fields.get(Vel);
      for (int I = Alloc.Lo[0]; I != Alloc.Hi[0]; ++I)
        for (int J = Alloc.Lo[1]; J != Alloc.Hi[1]; ++J)
          for (int K = Alloc.Lo[2]; K != Alloc.Hi[2]; ++K)
            Arr.at(I, J, K) = Rng.nextInRange(-0.3, 0.3);
    }
  }
};

/// Logical IR bytes one sweep of \p Stage over \p Region moves: reads of
/// the declared input windows plus writes of the outputs, unpadded.
int64_t stageLogicalBytes(const StencilProgram &Program, StageId Stage,
                          const Box3 &Region) {
  const StageDef &S = Program.stage(Stage);
  int64_t Bytes = 0;
  for (const StageInput &In : S.Inputs)
    Bytes += In.readRegion(Region).numPoints() *
             Program.array(In.Array).ElementBytes;
  for (ArrayId Out : S.Outputs)
    Bytes += Region.numPoints() * Program.array(Out).ElementBytes;
  return Bytes;
}

/// Best-of-reps seconds for one sweep of \p Stage with \p Variant. Each
/// sample batches enough sweeps to be comfortably above timer
/// granularity.
double timeStage(BenchSetup &S, StageId Stage, KernelVariant Variant) {
  using Clock = std::chrono::steady_clock;
  // Warm up (page in, prime caches and branch predictors).
  runMpdataStage(S.M, S.Fields, Stage, S.Target, Variant);

  double TargetSampleSeconds = 2e-3;
  int Batch = 1;
  double Best = 1e100;
  for (int Sample = 0; Sample != 4; ++Sample) {
    Clock::time_point T0 = Clock::now();
    for (int R = 0; R != Batch; ++R)
      runMpdataStage(S.M, S.Fields, Stage, S.Target, Variant);
    double Seconds = std::chrono::duration<double>(Clock::now() - T0).count();
    double PerSweep = Seconds / Batch;
    if (Sample > 0 && PerSweep < Best)
      Best = PerSweep; // Sample 0 only sizes the batch.
    if (Sample == 0) {
      Best = PerSweep;
      if (Seconds < TargetSampleSeconds)
        Batch = static_cast<int>(TargetSampleSeconds / PerSweep) + 1;
    }
  }
  return Best;
}

struct VariantAggregate {
  double Seconds = 0.0;
  int64_t Flops = 0;
  int64_t Bytes = 0;

  double gflops() const { return Seconds > 0 ? Flops / Seconds / 1e9 : 0; }
};

/// One configuration of the barrier-share model check: a strategy and
/// island count planned on the toy host machine, stock or with barrier
/// elision applied.
struct ModelCheckCase {
  std::string Label;
  Strategy Strat = Strategy::IslandsOfCores;
  int Islands = 1;
  bool Optimize = false;
};

constexpr int CheckNI = 64, CheckNJ = 32, CheckNK = 16, CheckSteps = 5;
/// One 5-step run's measured share swings several-fold on a busy or
/// oversubscribed host; the median of this many runs is stable enough to
/// read the model error's sign on most rows (EXPERIMENTS.md, "Model
/// check").
constexpr int ModelCheckRuns = 9;

/// The toy machine both sides of the model check target: enough sockets
/// for the requested island count, host-friendly team sizes.
MachineModel hostCheckMachine(int Islands) {
  MachineModel M = makeToyMachine();
  M.NumSockets = Islands;
  return M;
}

/// Predicted vs measured share of barrier time for one configuration.
/// The executor's team-barrier waits correspond to the simulator's Barrier
/// term; its kernel time covers Compute + Dram + Remote (the kernels both
/// compute and stream); the global barriers and turnover (Overhead) are
/// excluded from both shares.
struct BarrierShareComparison {
  double PredictedShare = 0.0; ///< Barrier / (Compute+Dram+Remote+Barrier).
  double MeasuredShare = 0.0;  ///< Barrier wait / (kernel + barrier wait).

  /// Model error in percentage points (positive: model over-predicts).
  double errorPoints() const {
    return (PredictedShare - MeasuredShare) * 100.0;
  }
};

BarrierShareComparison compareBarrierShare(const SimBreakdown &Predicted,
                                           double MeasuredKernelSeconds,
                                           double MeasuredBarrierWaitSeconds) {
  BarrierShareComparison C;
  double PredictedTotal = Predicted.Compute + Predicted.Dram +
                          Predicted.Remote + Predicted.Barrier;
  if (PredictedTotal > 0.0)
    C.PredictedShare = Predicted.Barrier / PredictedTotal;
  double MeasuredTotal = MeasuredKernelSeconds + MeasuredBarrierWaitSeconds;
  if (MeasuredTotal > 0.0)
    C.MeasuredShare = MeasuredBarrierWaitSeconds / MeasuredTotal;
  return C;
}

ExecutionPlan hostCheckPlan(const MpdataProgram &M, const ModelCheckCase &C,
                            const Box3 &Grid) {
  PlanConfig Config;
  Config.Strat = C.Strat;
  Config.Sockets = C.Islands;
  ExecutionPlan Plan =
      buildPlan(M.Program, Grid, hostCheckMachine(C.Islands), Config);
  if (C.Optimize)
    optimizeBarriers(M.Program, Plan);
  return Plan;
}

/// Runs the case's plan on the real threaded executor with profiling on
/// and compares the measured barrier share against \p Predicted.
BarrierShareComparison measureHostRun(const MpdataProgram &M,
                                      const ModelCheckCase &C,
                                      const SimBreakdown &Predicted) {
  Domain Dom(CheckNI, CheckNJ, CheckNK, mpdataHaloDepth());
  ProgramExecutor Exec(M.Program, buildMpdataKernels(), Dom,
                       hostCheckPlan(M, C, Dom.coreBox()));
  seedMpdata(Exec, M, 42, 0.1, 2.0, 0.25, -0.2, 0.15);
  Exec.enableProfiling(true);
  Exec.run(CheckSteps);
  const ExecStats &Stats = Exec.stats();
  return compareBarrierShare(Predicted, Stats.kernelSeconds(),
                             Stats.teamBarrierWaitSeconds());
}

/// Prints the predicted-vs-measured barrier-share table for \p Cases on
/// a small host grid (64x32x16, 5 steps). The predicted share comes from
/// the simulator on the toy machine; the measured share is the median of
/// 9 profiled runs of the real threaded executor on the same plan,
/// printed with its min-max spread so host noise is visible next to the
/// "model error" column. Informational: host timings are noisy.
void printBarrierShareModelCheck(const MpdataProgram &M,
                                 const std::string &Title,
                                 const std::vector<ModelCheckCase> &Cases) {
  std::printf("\nmodel check: predicted vs measured barrier share for %s "
              "(real executor, %dx%dx%d, %d steps, median of %d runs)\n",
              Title.c_str(), CheckNI, CheckNJ, CheckNK, CheckSteps,
              ModelCheckRuns);
  unsigned HostThreads = std::thread::hardware_concurrency();
  int PlanThreads = 0;
  for (const ModelCheckCase &C : Cases)
    PlanThreads = std::max(PlanThreads,
                           C.Islands * hostCheckMachine(C.Islands)
                                           .CoresPerSocket);
  if (HostThreads != 0 && PlanThreads > static_cast<int>(HostThreads))
    std::printf("note: plans run up to %d threads on %u hardware threads "
                "— oversubscription inflates the measured share\n",
                PlanThreads, HostThreads);
  TablePrinter Table({"Configuration", "Predicted barrier [%]",
                      "Measured barrier [%]", "Measured min-max [%]",
                      "Model error [pts]"});
  for (const ModelCheckCase &C : Cases) {
    SimResult Predicted =
        simulate(hostCheckPlan(M, C,
                               Box3::fromExtents(CheckNI, CheckNJ, CheckNK)),
                 M.Program, hostCheckMachine(C.Islands), CheckSteps);
    std::vector<BarrierShareComparison> Runs;
    for (int R = 0; R != ModelCheckRuns; ++R)
      Runs.push_back(measureHostRun(M, C, Predicted.CriticalIsland));
    std::sort(Runs.begin(), Runs.end(),
              [](const BarrierShareComparison &A,
                 const BarrierShareComparison &B) {
                return A.MeasuredShare < B.MeasuredShare;
              });
    const BarrierShareComparison &Median = Runs[Runs.size() / 2];
    Table.addRow({C.Label, formatFixed(Median.PredictedShare * 100.0, 2),
                  formatFixed(Median.MeasuredShare * 100.0, 2),
                  formatFixed(Runs.front().MeasuredShare * 100.0, 2) +
                      "-" +
                      formatFixed(Runs.back().MeasuredShare * 100.0, 2),
                  formatFixed(Median.errorPoints(), 2)});
  }
  Table.print(outs());
}

} // namespace

int main() {
  MpdataProgram M = buildMpdataProgram();
  constexpr KernelVariant Variants[] = {KernelVariant::Reference,
                                        KernelVariant::Simd};
  constexpr int NumVariants = static_cast<int>(std::size(Variants));
  // hot: every touched array row set (~10 x 32 KiB) stays cache-resident
  // between sweeps. cold: each array is ~6 MiB, so consecutive sweeps
  // evict each other and the kernels stream from memory.
  const struct {
    const char *Name;
    Box3 Target;
  } Regions[] = {{"hot", Box3::fromExtents(8, 8, 64)},
                 {"cold", Box3::fromExtents(128, 96, 64)}};

  std::vector<KernelBenchJsonRow> Rows;
  double HotAggGflops[NumVariants] = {};

  for (const auto &Region : Regions) {
    std::printf("\n== %s region %s ==\n", Region.Name,
                Region.Target.str().c_str());
    std::printf("%-10s %6s %6s   %6s %6s  (Gflop/s | GB/s)\n", "stage",
                "ref", "simd", "ref", "simd");
    std::vector<BenchSetup> Setups;
    Setups.reserve(NumVariants);
    for (int V = 0; V != NumVariants; ++V)
      Setups.emplace_back(M, Region.Target);

    VariantAggregate Agg[NumVariants];
    for (unsigned Stage = 0; Stage != M.Program.numStages(); ++Stage) {
      StageId Id = static_cast<StageId>(Stage);
      int64_t Flops =
          Region.Target.numPoints() * M.Program.stage(Id).FlopsPerPoint;
      int64_t Bytes = stageLogicalBytes(M.Program, Id, Region.Target);
      double Gflops[NumVariants], GBps[NumVariants];
      for (int V = 0; V != NumVariants; ++V) {
        double Seconds = timeStage(Setups[V], Id, Variants[V]);
        Gflops[V] = Flops / Seconds / 1e9;
        GBps[V] = Bytes / Seconds / 1e9;
        Agg[V].Seconds += Seconds;
        Agg[V].Flops += Flops;
        Agg[V].Bytes += Bytes;
        Rows.push_back({kernelVariantName(Variants[V]),
                        M.Program.stage(Id).Name, Region.Name, Seconds,
                        Gflops[V], GBps[V]});
      }
      std::printf("%-10s %6.2f %6.2f   %6.2f %6.2f\n",
                  M.Program.stage(Id).Name.c_str(), Gflops[0], Gflops[1],
                  GBps[0], GBps[1]);
    }

    std::printf("%-10s %6.2f %6.2f   %6.2f %6.2f\n", "all", Agg[0].gflops(),
                Agg[1].gflops(), Agg[0].Bytes / Agg[0].Seconds / 1e9,
                Agg[1].Bytes / Agg[1].Seconds / 1e9);
    for (int V = 0; V != NumVariants; ++V) {
      Rows.push_back({kernelVariantName(Variants[V]), "all", Region.Name,
                      Agg[V].Seconds, Agg[V].gflops(),
                      Agg[V].Bytes / Agg[V].Seconds / 1e9});
      if (std::string(Region.Name) == "hot")
        HotAggGflops[V] = Agg[V].gflops();
    }
  }

  std::printf("\nsim calibration: kernelThroughputFactor ref %.2f, "
              "simd 1.00 (normalized hot aggregate)\n",
              HotAggGflops[0] / HotAggGflops[1]);

  std::printf("\n");
  int Failures = 0;
  Failures += shapeCheck(HotAggGflops[1] >= 1.5 * HotAggGflops[0],
                         "Simd aggregate hot-cache Gflop/s >= 1.5x "
                         "Reference");
  writeKernelBenchJson("kernels", Rows);

  // Close the loop against the real executor: the barrier share the
  // simulator predicts vs the share ExecStats measures on this host, for
  // each strategy on 2 islands and for the islands at P = 1, 2, 4, each
  // stock and barrier-elision optimized.
  std::vector<ModelCheckCase> Strategies, Islands;
  for (Strategy Strat : {Strategy::Original, Strategy::Block31D,
                         Strategy::IslandsOfCores})
    for (bool Optimize : {false, true})
      Strategies.push_back({formatString(Optimize ? "%s+elide" : "%s",
                                         strategyName(Strat)),
                            Strat, /*Islands=*/2, Optimize});
  for (int P : {1, 2, 4})
    for (bool Optimize : {false, true})
      Islands.push_back({formatString(Optimize ? "islands P=%d+elide"
                                               : "islands P=%d",
                                      P),
                         Strategy::IslandsOfCores, P, Optimize});
  printBarrierShareModelCheck(M, "each strategy on 2 islands", Strategies);
  printBarrierShareModelCheck(M, "islands-of-cores", Islands);
  return Failures;
}
