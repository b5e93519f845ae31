//===- icores_bench/icores_bench.cpp - End-to-end benchmark harness -------===//
//
// Runs one benchmark workload — a registered WorkloadSpec under one plan
// shape — through the generic public API only (WorkloadSpec, buildPlan,
// optimizeBarriers, ProgramExecutor, SerialStepper) and prints one JSON
// result line:
//
//   icores_bench --workload=NAME [--seed=7] [--seconds=20] [--trace=0|1]
//                [--quick]
//
// Load shape: a closed loop. The driver thread issues the next window of
// time steps only after the previous window returned; a window is one
// sample. Every plan runs 4 worker threads on the toy 2x2 machine model.
// The seed reaches initWorkload and nothing else.
//
// Host drift: on a shared VM the same binary's step time wanders by
// 20-60% over minutes. Right before every window the harness therefore
// times a reference stencil of its own (ReferenceSweep: a plain 7-point
// Jacobi over the same grid on 4 threads) for about as long as the
// window, and the bounded end-to-end step metrics are window time over
// reference time. The reference is code of this file only, so no library
// change moves it; the raw wall-clock values are reported as wall.*.
//
// --trace=0 measures the end-to-end metrics from untraced windows only.
// --trace=1 adds, per round, as many traced windows on the same executor
// (enableProfiling), then times each layer's public entry points directly
// (KernelTable::run, TeamBarrier, WorkerPool) and prints the per-layer
// metrics. Either way the run starts with a bit-exact check of a fresh
// executor against SerialStepper; a failed check makes the exit code 1.
//
// Human-readable lines go to stderr; the last line of stdout is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//===----------------------------------------------------------------------===//

#include "apps/Workloads.h"
#include "core/PlanBuilder.h"
#include "core/PlanVerifier.h"
#include "core/ScheduleOptimizer.h"
#include "exec/Affinity.h"
#include "exec/ProgramExecutor.h"
#include "exec/TeamBarrier.h"
#include "exec/WorkerPool.h"
#include "machine/MachineModel.h"
#include "sim/Simulator.h"
#include "stencil/FieldStore.h"
#include "stencil/HaloAnalysis.h"
#include "stencil/SerialStepper.h"
#include "stencil/WorkloadRegistry.h"
#include "support/CommandLine.h"

#include <algorithm>
#include <array>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace icores;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// One benchmark workload. Why each exists is recorded in BENCHMARK.json
/// and README.md; every plan is built for 2 sockets of the toy machine, so
/// islands plans run 2 islands x 2 threads and single-team plans 1 x 4.
struct BenchWorkload {
  const char *Name;
  const char *Spec; ///< Registered workload name.
  Strategy Strat;
  int TemporalDepth;
  KernelVariant Variant;
  std::array<int, 3> Grid;
  std::array<int, 3> QuickGrid;
  int WindowSteps; ///< Steps per sample, a whole number of epochs.
  BalancePolicy Balance = BalancePolicy::Uniform;
  bool Stealing = false;
  PlacementPolicy Placement = PlacementPolicy::None; ///< Pins when armed.
};

const BenchWorkload Workloads[] = {
    {"mpdata-cold", "mpdata", Strategy::IslandsOfCores, 1,
     KernelVariant::Simd, {256, 192, 128}, {32, 24, 16}, 1},
    {"hotspot-sync", "hotspot", Strategy::Block31D, 1,
     KernelVariant::Reference, {48, 48, 48}, {16, 16, 16}, 256},
    {"advdiff-epoch", "advdiff", Strategy::IslandsOfCores, 4,
     KernelVariant::Reference, {128, 128, 96}, {32, 16, 16}, 4,
     BalancePolicy::Cost, true, PlacementPolicy::FirstTouch},
    {"cfl-reduce", "cfl-advect", Strategy::Original, 1,
     KernelVariant::Reference, {128, 128, 64}, {32, 16, 16}, 4},
};

constexpr int PlanSockets = 2;
constexpr int HostThreads = 4; ///< Threads of every plan and the reference.

/// Resident set size of this process in MiB (VmRSS), 0 when unavailable.
double residentMiB() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmRSS:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

/// Linear-interpolated quantile \p Q of \p V (0 when empty).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - static_cast<double>(Lo)) * (V[Hi] - V[Lo]);
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double ratio(double Num, double Den) { return Den != 0.0 ? Num / Den : 0.0; }

/// The host-speed reference: a 7-point Jacobi sweep over an NI x NJ x NK
/// grid, split along i over HostThreads threads with a std::barrier after
/// every sweep. It shares the workload's grid size and thread count, and
/// therefore the host's memory, cache and cross-core latency, but none of
/// the library's code.
class ReferenceSweep {
public:
  explicit ReferenceSweep(const std::array<int, 3> &Grid)
      : NI(Grid[0]), NJ(Grid[1]), NK(Grid[2]),
        A(static_cast<size_t>(NI + 2) * (NJ + 2) * (NK + 2)), B(A.size()) {
    for (size_t I = 0; I != A.size(); ++I)
      A[I] = B[I] = 1.0 + static_cast<double>(I % 7) * 0.125;
  }

  /// Seconds per sweep over \p Sweeps sweeps, timed by thread 0 from the
  /// first rendezvous of the freshly started threads to the last.
  double secondsPerSweep(int Sweeps) {
    std::barrier<> Sync(HostThreads);
    double Seconds = 0.0;
    auto Work = [&](int T) {
      const int Lo = 1 + NI * T / HostThreads;
      const int Hi = 1 + NI * (T + 1) / HostThreads;
      const size_t SJ = static_cast<size_t>(NK) + 2;
      const size_t SI = (static_cast<size_t>(NJ) + 2) * SJ;
      Sync.arrive_and_wait();
      Clock::time_point T0 = Clock::now();
      for (int S = 0; S != Sweeps; ++S) {
        const double *In = (S % 2 ? B : A).data();
        double *Out = (S % 2 ? A : B).data();
        for (int I = Lo; I != Hi; ++I)
          for (int J = 1; J <= NJ; ++J)
            for (size_t X = I * SI + J * SJ + 1, E = X + NK; X != E; ++X)
              Out[X] = (In[X] + In[X - 1] + In[X + 1] + In[X - SJ] +
                        In[X + SJ] + In[X - SI] + In[X + SI]) *
                       (1.0 / 7.0);
        Sync.arrive_and_wait();
      }
      if (T == 0)
        Seconds = secondsSince(T0);
    };
    std::vector<std::jthread> Threads;
    for (int T = 1; T != HostThreads; ++T)
      Threads.emplace_back(Work, T);
    Work(0);
    Threads.clear(); // Joins.
    return Seconds / Sweeps;
  }

private:
  int NI, NJ, NK;
  std::vector<double> A, B;
};

/// The timed set-up phases of one fresh executor.
struct SetupTimes {
  double Build = 0, Elide = 0, Verify = 0, Ctor = 0, Init = 0;
  /// What setup_s counts: plan, elision, construction and init.
  double total() const { return Build + Elide + Ctor + Init; }
};

struct Instance {
  std::unique_ptr<ProgramExecutor> Exec;
  SetupTimes Times;
};

/// Builds, optimizes, verifies, constructs and seeds one executor,
/// timing each phase from the driver thread.
Instance setUp(const BenchWorkload &W, const WorkloadSpec &Spec,
               const Domain &Dom, const MachineModel &Machine,
               uint64_t Seed) {
  Instance I;
  PlanConfig Config;
  Config.Strat = W.Strat;
  Config.Sockets = PlanSockets;
  Config.TemporalDepth = W.TemporalDepth;
  Config.Balance = W.Balance;
  if (W.Placement != PlacementPolicy::None)
    Config.Placement = W.Placement;

  Clock::time_point T0 = Clock::now();
  ExecutionPlan Plan = buildPlan(Spec.Program, Dom.coreBox(), Machine, Config);
  I.Times.Build = secondsSince(T0);
  T0 = Clock::now();
  optimizeBarriers(Spec.Program, Plan);
  I.Times.Elide = secondsSince(T0);
  T0 = Clock::now();
  PlanVerification PV = verifyPlan(Plan, Spec.Program);
  I.Times.Verify = secondsSince(T0);
  if (!PV.Ok) {
    std::fprintf(stderr, "error: %s plan does not verify: %s\n", W.Name,
                 PV.FirstError.c_str());
    std::exit(1);
  }

  ExecutorOptions Opts;
  Opts.Stealing = W.Stealing;
  Opts.Placement = W.Placement;
  if (W.Placement != PlacementPolicy::None)
    Opts.Pinning = computeThreadPlacement(Plan, Machine);
  Opts.Machine = &Machine;
  Opts.Reductions = Spec.Reductions;
  T0 = Clock::now();
  I.Exec = std::make_unique<ProgramExecutor>(
      Spec.Program, Spec.Kernels(W.Variant), Dom, std::move(Plan), Opts);
  I.Times.Ctor = secondsSince(T0);
  T0 = Clock::now();
  initWorkload(Spec, *I.Exec, Seed);
  I.Times.Init = secondsSince(T0);
  return I;
}

double runWindow(ProgramExecutor &E, int Steps) {
  Clock::time_point T0 = Clock::now();
  E.run(Steps);
  return secondsSince(T0);
}

/// The arrays holding the newest state after run(): each feedback Target
/// plus every step output that is not fed back.
std::vector<ArrayId> newestStateArrays(const StencilProgram &Program) {
  std::vector<ArrayId> Ids;
  for (const FeedbackPair &F : Program.feedbacks())
    Ids.push_back(F.Target);
  for (ArrayId Out : Program.stepOutputs()) {
    bool FedBack = false;
    for (const FeedbackPair &F : Program.feedbacks())
      FedBack |= F.Source == Out;
    if (!FedBack)
      Ids.push_back(Out);
  }
  return Ids;
}

bool bitEqual(const Array3D &A, const Array3D &B, const Box3 &Core) {
  for (int I = Core.Lo[0]; I != Core.Hi[0]; ++I)
    for (int J = Core.Lo[1]; J != Core.Hi[1]; ++J)
      for (int K = Core.Lo[2]; K != Core.Hi[2]; ++K) {
        double X = A.at(I, J, K), Y = B.at(I, J, K);
        if (std::memcmp(&X, &Y, sizeof(double)) != 0)
          return false;
      }
  return true;
}

struct Verification {
  int Attempted = 0;
  int Failed = 0;
  double SerialStepSeconds = 0.0;
};

/// Runs \p Exec — fresh from set-up plus one untraced window the caller
/// ran — one more window traced, releases it, and compares its newest
/// state and reduction histories bit for bit with SerialStepper over the
/// same steps. One attempted check is one array or one history.
Verification verifyAgainstSerial(const BenchWorkload &W,
                                 const WorkloadSpec &Spec, const Domain &Dom,
                                 std::unique_ptr<ProgramExecutor> Exec,
                                 uint64_t Seed) {
  const int Steps = 2 * W.WindowSteps;
  Exec->enableProfiling(true);
  Exec->run(W.WindowSteps);

  const std::vector<ArrayId> Ids = newestStateArrays(Spec.Program);
  std::vector<Array3D> State;
  for (ArrayId Id : Ids) {
    State.emplace_back(Dom.allocBox());
    State.back().copyRegionFrom(Exec->array(Id), Dom.coreBox());
  }
  std::vector<std::vector<double>> Histories;
  for (size_t R = 0; R != Spec.Program.reductions().size(); ++R)
    Histories.push_back(Exec->reductionHistory(R));
  Exec.reset(); // Peak memory: never hold the executor and the oracle.

  SerialStepper Oracle(Spec.Program, Spec.Kernels(W.Variant), Dom,
                       Spec.Reductions);
  initWorkload(Spec, Oracle, Seed);
  Clock::time_point T0 = Clock::now();
  Oracle.run(Steps);
  Verification V;
  V.SerialStepSeconds = secondsSince(T0) / Steps;

  for (size_t I = 0; I != Ids.size(); ++I) {
    ++V.Attempted;
    if (!bitEqual(State[I], Oracle.array(Ids[I]), Dom.coreBox())) {
      ++V.Failed;
      std::fprintf(stderr, "FAIL: %s array '%s' differs from SerialStepper\n",
                   W.Name, Spec.Program.array(Ids[I]).Name.c_str());
    }
  }
  for (size_t R = 0; R != Histories.size(); ++R) {
    ++V.Attempted;
    if (Histories[R] != Oracle.reductionHistory(R)) {
      ++V.Failed;
      std::fprintf(stderr,
                   "FAIL: %s reduction '%s' differs from SerialStepper\n",
                   W.Name, Spec.Program.reductions()[R].Name.c_str());
    }
  }
  return V;
}

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

/// One cache-hot block of a workload, seeded through its registered init,
/// whose stages are timed single-threaded through KernelTable::run over
/// their exact dependence-cone regions (the stencil layer on its own).
class KernelBlock {
public:
  KernelBlock(const WorkloadSpec &Spec, KernelVariant Variant, uint64_t Seed)
      : Program(Spec.Program), Kernels(Spec.Kernels(Variant)),
        Dom(workloadDomain(Spec, 8, 8, 64)), Fields(Program.numArrays()),
        Req(computeRequirements(Program, Dom.coreBox())) {
    for (unsigned A = 0; A != Program.numArrays(); ++A)
      Fields.allocateOwned(static_cast<ArrayId>(A), Dom.allocBox(),
                           Array3D::VectorPadK);
    initWorkload(Spec, *this, Seed);
    for (unsigned S = 0; S != Program.numStages(); ++S) {
      StageId Id = static_cast<StageId>(S);
      Flops += Req.StageRegion[S].numPoints() * Program.stage(Id).FlopsPerPoint;
      Bytes += stageLogicalBytes(Program, Id, Req.StageRegion[S]);
      Kernels.run(Fields, Id, Req.StageRegion[S]); // Valid inputs downstream.
    }
  }

  // The runner interface initWorkload() seeds through.
  const Domain &domain() const { return Dom; }
  Array3D &array(ArrayId Id) { return Fields.get(Id); }
  void prepareInputs() {
    for (ArrayId In : Program.stepInputs())
      Dom.fillHalo(array(In));
  }

  /// Seconds for one sweep of every stage: per stage, the best of three
  /// samples, each batching enough sweeps to last >= 0.2 ms.
  double sweepSeconds() {
    double Total = 0.0;
    for (unsigned S = 0; S != Program.numStages(); ++S) {
      StageId Id = static_cast<StageId>(S);
      int Batch = 1;
      double Best = 1e100;
      for (int Sample = 0; Sample != 4; ++Sample) {
        Clock::time_point T0 = Clock::now();
        for (int R = 0; R != Batch; ++R)
          Kernels.run(Fields, Id, Req.StageRegion[S]);
        double PerSweep = secondsSince(T0) / Batch;
        if (Sample == 0) // Sizes the batch; also warms the stage.
          Batch = std::max(1, static_cast<int>(2e-4 / PerSweep) + 1);
        else
          Best = std::min(Best, PerSweep);
      }
      Total += Best;
    }
    return Total;
  }

  int64_t flops() const { return Flops; }
  int64_t bytes() const { return Bytes; }

private:
  const StencilProgram &Program;
  KernelTable Kernels;
  Domain Dom;
  FieldStore Fields;
  RegionRequirements Req;
  int64_t Flops = 0;
  int64_t Bytes = 0;
};

/// Median microseconds per TeamBarrier crossing of a \p Threads team of
/// pool workers (the executor's default hybrid policy).
double barrierCrossingUs(int Threads, int Crossings) {
  WorkerPool Pool(Threads);
  TeamBarrier Barrier(Threads);
  auto Cross = [&](int Worker) {
    for (int C = 0; C != Crossings; ++C)
      Barrier.arriveAndWait(Worker);
  };
  Pool.runOnAll(Cross); // Spawns the workers.
  std::vector<double> Us;
  for (int Sample = 0; Sample != 5; ++Sample) {
    Clock::time_point T0 = Clock::now();
    Pool.runOnAll(Cross);
    Us.push_back(secondsSince(T0) / Crossings * 1e6);
  }
  return median(Us);
}

/// Median microseconds per empty WorkerPool::runOnAll dispatch.
double poolDispatchUs(int Threads, int Dispatches) {
  WorkerPool Pool(Threads);
  auto Empty = [](int) {};
  Pool.runOnAll(Empty);
  std::vector<double> Us;
  for (int Sample = 0; Sample != 5; ++Sample) {
    Clock::time_point T0 = Clock::now();
    for (int D = 0; D != Dispatches; ++D)
      Pool.runOnAll(Empty);
    Us.push_back(secondsSince(T0) / Dispatches * 1e6);
  }
  return median(Us);
}

/// What the measured rounds recorded. A window's relative step cost is
/// its seconds per step over the seconds per sweep of the reference timed
/// right before it.
struct Samples {
  std::vector<double> StepMs, RelCost; ///< Untraced windows.
  std::vector<double> TracedRelCost;
  std::vector<double> RefMs;      ///< Reference ms per sweep, untraced.
  std::vector<double> RoundRefMs; ///< Median of RefMs per round.
  double Seconds = 0.0;           ///< Untraced window seconds.
  int64_t Steps = 0;              ///< Untraced steps.
};

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

std::string resultLine(bool Correct, int Attempted, int Failed,
                       const std::vector<Metric> &Metrics) {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  char Buf[96];
  for (size_t I = 0; I != Metrics.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", Metrics[I].Value);
    Out += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  }
  return Out + "}}";
}

/// The per-layer metrics of a traced run, from the executor's profiling
/// counters, the plan, the rounds' samples and direct timed calls.
std::vector<Metric>
layerMetrics(const BenchWorkload &W, const WorkloadSpec &Spec,
             const Domain &Dom, const MachineModel &Machine,
             const ProgramExecutor &Exec, KernelBlock &Block,
             const Samples &S, const std::vector<SetupTimes> &Setups,
             double ResidentMiB, double WarmupSeconds,
             const Verification &V) {
  const ExecutionPlan &Plan = Exec.plan();
  const StencilProgram &Program = Spec.Program;
  const ExecStats &St = Exec.stats();
  int PlanThreads = 0;
  for (const IslandPlan &Island : Plan.Islands)
    PlanThreads += Island.NumThreads;
  const double ThreadSeconds = St.WallSeconds * PlanThreads;
  const double KernelShare = ratio(St.kernelSeconds(), ThreadSeconds);
  const double TeamShare = ratio(St.teamBarrierWaitSeconds(), ThreadSeconds);
  const double GlobalShare = ratio(St.GlobalBarrierWaitSeconds, ThreadSeconds);
  const double IdleShare = ratio(St.idleSeconds(), ThreadSeconds);
  const double ProfiledSteps = St.StepsRun;
  double MaxImbalance = 1.0;
  for (const IslandStat &Island : St.Islands)
    MaxImbalance = std::max(MaxImbalance, Island.imbalance());

  auto setupMedian = [&Setups](double SetupTimes::*Field) {
    std::vector<double> Ms;
    for (const SetupTimes &T : Setups)
      Ms.push_back(T.*Field * 1e3);
    return median(Ms);
  };

  const double Depth = Plan.TemporalDepth;
  const double SerialPoints =
      computeRequirements(Program, Dom.coreBox()).totalStagePoints();
  double ExternalMiB = 0.0;
  std::vector<ArrayId> Externals = Program.stepInputs();
  for (ArrayId Id : Program.stepOutputs())
    Externals.push_back(Id);
  for (ArrayId Id : Externals)
    ExternalMiB += static_cast<double>(Dom.allocBox().numPoints()) *
                   Program.array(Id).ElementBytes / (1024.0 * 1024.0);

  SimOptions SimOpts;
  SimOpts.Kernels = W.Variant;
  const SimResult Sim =
      simulate(Plan, Program, Machine, W.WindowSteps, SimOpts);
  std::vector<double> SweepMs;
  for (int I = 0; I != 5; ++I)
    SweepMs.push_back(Block.sweepSeconds() * 1e3);
  const double SweepS = median(SweepMs) / 1e3;
  const double StepMsP50 = median(S.StepMs);
  const double SerialStepMs = V.SerialStepSeconds * 1e3;
  const double RefMs = median(S.RoundRefMs);
  const auto [RefMin, RefMax] =
      std::minmax_element(S.RoundRefMs.begin(), S.RoundRefMs.end());

  return {
      {"wall.step_ms_p50", StepMsP50, "ms"},
      {"wall.step_ms_p90", quantile(S.StepMs, 0.9), "ms"},
      {"wall.throughput_mcells",
       static_cast<double>(Dom.numCells()) * S.Steps / S.Seconds / 1e6,
       "Mcell/s"},
      {"ref.sweep_ms", median(S.RefMs), "ms"},
      {"kernel.sweep_ms", median(SweepMs), "ms"},
      {"kernel.gflops", Block.flops() / SweepS / 1e9, "Gflop/s"},
      {"kernel.gbps_computed", Block.bytes() / SweepS / 1e9, "GB/s"},
      {"kernel.flops_per_byte",
       ratio(static_cast<double>(Block.flops()), Block.bytes()), "flop/B"},
      {"exec.kernel_share", KernelShare, "ratio"},
      {"exec.team_barrier_share", TeamShare, "ratio"},
      {"exec.global_barrier_share", GlobalShare, "ratio"},
      {"exec.idle_share", IdleShare, "ratio"},
      {"exec.residual_share",
       1.0 - KernelShare - TeamShare - GlobalShare - IdleShare, "ratio"},
      {"exec.spin_wake_frac",
       ratio(St.spinWakes(), St.spinWakes() + St.sleepWakes()), "ratio"},
      {"exec.barriers_elided_per_step",
       ratio(St.barriersElided(), ProfiledSteps), "count"},
      {"exec.steals_per_step", ratio(St.steals(), ProfiledSteps), "count"},
      {"exec.steal_failures_per_step",
       ratio(St.stealFailures(), ProfiledSteps), "count"},
      {"exec.island_skew_measured", St.measuredIslandSkew(), "ratio"},
      {"exec.island_skew_predicted", St.PredictedIslandSkew, "ratio"},
      {"exec.max_team_imbalance", MaxImbalance, "ratio"},
      {"exec.shared_bytes_per_step",
       static_cast<double>(Exec.sharedBytesPerStep()), "B"},
      {"exec.remote_bytes_per_step",
       static_cast<double>(Exec.remoteBytesPerStep()), "B"},
      {"exec.ctor_ms", setupMedian(&SetupTimes::Ctor), "ms"},
      {"init.ms", setupMedian(&SetupTimes::Init), "ms"},
      {"warmup_ms", WarmupSeconds * 1e3, "ms"},
      {"mem.external_mb", ExternalMiB, "MiB"},
      {"mem.overhead_ratio", ratio(ResidentMiB, ExternalMiB), "ratio"},
      {"plan.build_ms", setupMedian(&SetupTimes::Build), "ms"},
      {"plan.elide_ms", setupMedian(&SetupTimes::Elide), "ms"},
      {"plan.verify_ms", setupMedian(&SetupTimes::Verify), "ms"},
      {"plan.team_barriers_per_step", Plan.teamBarriersPerStep() / Depth,
       "count"},
      {"plan.elided_per_step", Plan.elidedBarriersPerStep() / Depth, "count"},
      {"plan.redundant_frac",
       static_cast<double>(Plan.totalPassPoints()) / (Depth * SerialPoints) -
           1.0,
       "ratio"},
      {"serial.step_ms", SerialStepMs, "ms"},
      {"parallel.speedup", ratio(SerialStepMs, StepMsP50), "x"},
      {"sim.step_ms_pred", Sim.StepSeconds * 1e3, "ms"},
      {"sim.barrier_share_pred",
       ratio(Sim.CriticalIsland.Barrier, Sim.CriticalIsland.total()),
       "ratio"},
      {"trace.overhead",
       ratio(median(S.TracedRelCost), median(S.RelCost)) - 1.0, "ratio"},
      {"host.drift", ratio(*RefMax - *RefMin, RefMs), "ratio"},
  };
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine CL;
  CL.registerOption("workload", "benchmark workload name (required)");
  CL.registerOption("seed", "input seed passed to initWorkload (default 7)");
  CL.registerOption("seconds", "measured seconds (default 20)");
  CL.registerOption("trace", "0: end-to-end metrics, 1: per-layer metrics");
  CL.registerOption("quick", "tiny grids and two rounds (smoke test)");
  std::string Error;
  if (!CL.parse(Argc, Argv, Error)) {
    std::fprintf(stderr, "error: %s\n%s", Error.c_str(),
                 CL.helpText().c_str());
    return 2;
  }
  const std::string Name = CL.getString("workload", "");
  const BenchWorkload *WPtr = nullptr;
  for (const BenchWorkload &Candidate : Workloads)
    if (Name == Candidate.Name)
      WPtr = &Candidate;
  const int64_t Trace = CL.getInt("trace", 0);
  const double Seconds = CL.getDouble("seconds", 20.0);
  if (!WPtr || (Trace != 0 && Trace != 1) || !(Seconds >= 0.0) ||
      Seconds > 600.0) {
    std::fprintf(stderr, "usage: icores_bench --workload=NAME [--seed=N] "
                         "[--seconds=S (0..600)] [--trace=0|1] [--quick]\n"
                         "workloads:");
    for (const BenchWorkload &Candidate : Workloads)
      std::fprintf(stderr, " %s", Candidate.Name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  const BenchWorkload &W = *WPtr;
  const bool Quick = CL.hasOption("quick");
  const uint64_t Seed = static_cast<uint64_t>(CL.getInt("seed", 7));
  const WorkloadSpec *SpecPtr = builtinWorkloads().find(W.Spec);
  if (!SpecPtr) {
    std::fprintf(stderr, "error: workload '%s' is not registered\n", W.Spec);
    return 1;
  }
  const WorkloadSpec &Spec = *SpecPtr;
  const MachineModel Machine = makeToyMachine();
  const std::array<int, 3> Grid = Quick ? W.QuickGrid : W.Grid;
  const Domain Dom = workloadDomain(Spec, Grid[0], Grid[1], Grid[2]);

  // Set-up A is the verification executor; its RSS growth over ctor, init
  // and its first (untraced) window is resident_mb. Fresh set-ups follow
  // until there are at least 3 and 1 s of them (at most 100), so setup_s
  // is a median of many where set-up is cheap; the last one is measured.
  std::vector<SetupTimes> Setups;
  const double RssBefore = residentMiB();
  Instance A = setUp(W, Spec, Dom, Machine, Seed);
  Setups.push_back(A.Times);
  A.Exec->run(W.WindowSteps);
  const double ResidentMiB = residentMiB() - RssBefore;
  const Verification V =
      verifyAgainstSerial(W, Spec, Dom, std::move(A.Exec), Seed);
  const double MinSetupSeconds = Quick ? 0.0 : 1.0;
  double SetupSeconds = Setups.back().total();
  Instance C;
  do {
    C.Exec.reset(); // Never hold two executors.
    C = setUp(W, Spec, Dom, Machine, Seed);
    Setups.push_back(C.Times);
    SetupSeconds += C.Times.total();
  } while (Setups.size() < 3 ||
           (SetupSeconds < MinSetupSeconds && Setups.size() < 100));
  ProgramExecutor &Exec = *C.Exec;
  const double WarmupSeconds = runWindow(Exec, W.WindowSteps);

  // Size the reference to last about as long as one window.
  ReferenceSweep Ref(Grid);
  Ref.secondsPerSweep(1);
  const double WindowSeconds = runWindow(Exec, W.WindowSteps);
  const int RefSweeps = static_cast<int>(std::clamp(
      WindowSeconds / Ref.secondsPerSweep(3), 1.0, 1e5));

  std::unique_ptr<KernelBlock> Block;
  if (Trace)
    Block = std::make_unique<KernelBlock>(Spec, W.Variant, Seed);

  // Rounds of (reference, window) pairs: untraced, then — traced runs
  // only — as many on the same executor with profiling on.
  const int PairsPerVisit = Quick ? 2 : 10;
  const double MeasureSeconds = Quick ? 0.0 : Seconds;
  Samples S;
  Clock::time_point MeasureStart = Clock::now();
  for (int Round = 0; Round < 2 || secondsSince(MeasureStart) < MeasureSeconds;
       ++Round) {
    std::vector<double> RoundRef;
    for (int I = 0; I != PairsPerVisit; ++I) {
      double RefS = Ref.secondsPerSweep(RefSweeps);
      double WinS = runWindow(Exec, W.WindowSteps);
      S.StepMs.push_back(WinS * 1e3 / W.WindowSteps);
      S.RelCost.push_back(WinS / W.WindowSteps / RefS);
      S.RefMs.push_back(RefS * 1e3);
      RoundRef.push_back(RefS * 1e3);
      S.Seconds += WinS;
      S.Steps += W.WindowSteps;
    }
    S.RoundRefMs.push_back(median(RoundRef));
    if (!Trace)
      continue;
    Exec.enableProfiling(true);
    for (int I = 0; I != PairsPerVisit; ++I) {
      double RefS = Ref.secondsPerSweep(RefSweeps);
      S.TracedRelCost.push_back(runWindow(Exec, W.WindowSteps) /
                                W.WindowSteps / RefS);
    }
    Exec.enableProfiling(false);
  }

  std::fprintf(stderr,
               "%s: %s/%s T=%d %s on %dx%dx%d, %zu islands, %d threads, "
               "window %d steps, %zu untraced + %zu traced windows, "
               "reference %d sweeps\n",
               W.Name, Spec.Name.c_str(), strategyName(W.Strat),
               W.TemporalDepth, kernelVariantName(W.Variant), Grid[0], Grid[1],
               Grid[2], Exec.plan().Islands.size(), HostThreads,
               W.WindowSteps, S.RelCost.size(), S.TracedRelCost.size(),
               RefSweeps);

  std::vector<Metric> Metrics;
  if (!Trace) {
    std::vector<double> SetupTotals;
    for (const SetupTimes &T : Setups)
      SetupTotals.push_back(T.total());
    double RelSum = 0.0;
    for (double Cost : S.RelCost)
      RelSum += Cost;
    Metrics = {
        {"throughput_rel", S.RelCost.size() / RelSum, "ratio"},
        {"step_rel_p50", median(S.RelCost), "x"},
        {"step_rel_p90", quantile(S.RelCost, 0.9), "x"},
        {"setup_s", median(SetupTotals), "s"},
        {"resident_mb", ResidentMiB, "MiB"},
    };
  } else {
    Metrics = layerMetrics(W, Spec, Dom, Machine, Exec, *Block, S, Setups,
                           ResidentMiB, WarmupSeconds, V);
    // Released before the microbenchmarks spawn their own pools, so the
    // process never runs more than 4 busy threads.
    C.Exec.reset();
    const int Crossings = Quick ? 2000 : 20000;
    Metrics.push_back(
        {"barrier.team2_us", barrierCrossingUs(2, Crossings), "us"});
    Metrics.push_back(
        {"barrier.team4_us", barrierCrossingUs(4, Crossings), "us"});
    Metrics.push_back(
        {"pool.dispatch_us", poolDispatchUs(4, Crossings / 10), "us"});
  }

  bool Finite = true;
  for (const Metric &M : Metrics) {
    std::fprintf(stderr, "  %-32s %16.6g %s\n", M.Name.c_str(), M.Value,
                 M.Unit.c_str());
    if (!std::isfinite(M.Value)) {
      std::fprintf(stderr, "FAIL: metric %s is not finite\n", M.Name.c_str());
      Finite = false;
    }
  }
  const bool Correct = V.Failed == 0 && Finite;
  std::printf("%s\n", resultLine(Correct, V.Attempted, V.Failed, Metrics)
                          .c_str());
  return Correct ? 0 : 1;
}
