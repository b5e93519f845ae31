//===- tests/exec_stats_test.cpp - Executor observability tests -----------===//
//
// Tests of the executor observability layer: the persistent WorkerPool
// (threads spawn once and are reused by every run()), and ExecStats
// (pass/barrier counts match the plan with and without stealing, elision
// and an armed observer, profiling never perturbs the numerics, reduction
// folds are booked as neither kernel nor idle time, the JSON report
// is well formed).
//
//===----------------------------------------------------------------------===//

#include "TestMatrix.h"

#include "apps/Workloads.h"
#include "core/PlanBuilder.h"
#include "exec/EpochScript.h"
#include "exec/ExecStats.h"
#include "exec/ProgramExecutor.h"
#include "exec/WorkerPool.h"
#include "machine/MachineModel.h"
#include "mpdata/InitialConditions.h"
#include "mpdata/Kernels.h"
#include "stencil/WorkloadRegistry.h"
#include "support/OStream.h"
#include "verify/ShadowStore.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <vector>

using namespace icores;

namespace {

constexpr int GridNI = 16;
constexpr int GridNJ = 12;
constexpr int GridNK = 8;

ExecutionPlan makeIslandsPlan(const MpdataProgram &M, int Sockets) {
  MachineModel Machine = makeToyMachine();
  Machine.NumSockets = Sockets;
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = Sockets;
  return buildPlan(M.Program,
                   Box3::fromExtents(GridNI, GridNJ, GridNK), Machine,
                   Config);
}

std::unique_ptr<ProgramExecutor> makeExecutor(const MpdataProgram &M,
                                              int Sockets) {
  auto Exec = std::make_unique<ProgramExecutor>(
      M.Program, buildMpdataKernels(),
      Domain(GridNI, GridNJ, GridNK, mpdataHaloDepth()),
      makeIslandsPlan(M, Sockets));
  seedMpdata(*Exec, M, 321, 0.1, 2.0, 0.3, -0.25, 0.2);
  return Exec;
}

/// Passes of \p Stage in one island's epoch script; with \p ElidedOnly,
/// only those no team barrier follows (the plan's elided ones and the
/// epoch's last).
int64_t scriptPassesOfStage(const EpochScript &Script, size_t Stage,
                            bool ElidedOnly = false) {
  int64_t N = 0;
  for (const EpochOp &Op : Script.Ops)
    if (Op.K == EpochOp::Kind::Pass && static_cast<size_t>(Op.Stage) == Stage &&
        !(ElidedOnly && Op.BarrierAfter))
      ++N;
  return N;
}

} // namespace

TEST(WorkerPoolTest, RunsTheJobOnEveryWorkerAndReusesThreads) {
  WorkerPool Pool(4);
  EXPECT_EQ(Pool.spawnedThreads(), 0); // Lazy: nothing spawned yet.

  std::vector<std::atomic<int>> Hits(4);
  for (int Round = 0; Round != 3; ++Round)
    Pool.runOnAll([&](int Worker) { ++Hits[static_cast<size_t>(Worker)]; });

  for (const auto &H : Hits)
    EXPECT_EQ(H.load(), 3);
  EXPECT_EQ(Pool.spawnedThreads(), 4); // Spawned once, not per dispatch.
  EXPECT_EQ(Pool.dispatches(), 3);
}

TEST(ExecStatsTest, PassAndBarrierCountsMatchThePlan) {
  // The executor books every pass, elided barrier and barrier wait through
  // one per-worker seam, whichever scheduler ran the pass and whether an
  // observer is armed: the counts must match the plan's epoch scripts in
  // every combination, and the results must stay bit-exact.
  constexpr int Steps = 4, Depth = 2, Epochs = Steps / Depth;
  constexpr uint64_t Seed = 5;
  const WorkloadSpec &Spec = *builtinWorkloads().find("mpdata");
  Domain Dom = workloadDomain(Spec, GridNI, GridNJ, GridNK);
  auto Oracle = serialOracle(Spec, Dom, Steps, Seed);
  for (bool Elide : {false, true})
    for (bool Stealing : {false, true})
      for (bool Observed : {false, true}) {
        SCOPED_TRACE(testing::Message() << "elide=" << Elide << " stealing="
                                        << Stealing << " observed="
                                        << Observed);
        ExecutionPlan Plan = makeTestPlan(
            Spec.Program, Dom, Strategy::IslandsOfCores, Depth, Elide);
        ShadowStore Shadow;
        ExecutorOptions Opts;
        Opts.Stealing = Stealing;
        Opts.Observer = Observed ? &Shadow : nullptr;
        auto Exec = makeWorkloadExecutor(Spec, Dom, Plan,
                                         KernelVariant::Reference, Opts, Seed);
        Exec->enableProfiling(true);
        Exec->run(Steps);

        const ExecStats &Stats = Exec->stats();
        ASSERT_EQ(Stats.Islands.size(), Plan.Islands.size());
        EXPECT_EQ(Stats.StepsRun, Steps);
        const std::vector<EpochScript> Scripts =
            buildEpochScripts(Spec.Program, Plan);
        int64_t Elided = 0;
        for (size_t I = 0; I != Plan.Islands.size(); ++I) {
          const IslandPlan &IslandP = Plan.Islands[I];
          const IslandStat &IslandS = Stats.Islands[I];
          int64_t Passes = 0, IslandElided = 0;
          for (size_t S = 0; S != IslandS.Stages.size(); ++S) {
            const int64_t StagePasses =
                Epochs * scriptPassesOfStage(Scripts[I], S);
            const int64_t StageElided =
                Epochs *
                scriptPassesOfStage(Scripts[I], S, /*ElidedOnly=*/true);
            EXPECT_EQ(IslandS.Stages[S].Passes, StagePasses)
                << "island " << I << " stage " << S;
            EXPECT_EQ(IslandS.Stages[S].BarriersElided, StageElided)
                << "island " << I << " stage " << S;
            Passes += StagePasses;
            IslandElided += StageElided;
          }
          EXPECT_EQ(IslandS.teamPasses(), Passes);
          // Every thread visits every pass and crosses each surviving pass
          // barrier — the executor's lockstep invariant.
          ASSERT_EQ(IslandS.Threads.size(),
                    static_cast<size_t>(IslandP.NumThreads));
          for (const ThreadStat &T : IslandS.Threads) {
            EXPECT_EQ(T.Passes, Passes);
            EXPECT_EQ(T.BarriersElided, IslandElided);
            EXPECT_EQ(T.barrierWaits(), Passes - IslandElided);
          }
          // Team-barrier wait = the stages' pass-barrier waits plus the
          // structural and slide waits, which are booked to no stage.
          double StageWait = 0.0;
          for (const StageStat &S : IslandS.Stages)
            StageWait += S.BarrierWaitSeconds;
          EXPECT_GE(IslandS.barrierWaitSeconds(), StageWait - 1e-12);
          Elided += IslandElided;
        }
        EXPECT_EQ(Stats.barriersElided(), Elided);
        // The sweep covers both plan shapes: unelided, only each epoch's
        // last pass runs without a team barrier.
        EXPECT_EQ(Elided > Epochs * static_cast<int64_t>(Plan.Islands.size()),
                  Elide);
        if (!Stealing) {
          EXPECT_EQ(Stats.idleSeconds(), 0.0);
        }

        EXPECT_EQ(
            maxNewestStateDiff(Spec.Program, *Exec, *Oracle, Dom.coreBox()),
            0.0);
        EXPECT_TRUE(reductionHistoriesMatch(Spec.Program, *Exec, *Oracle));
        if (Observed) {
          EXPECT_GT(Shadow.accessCount(), 0u);
          EXPECT_TRUE(Shadow.clean()) << Shadow.raceCount() << " races";
        }
      }
}

TEST(ExecStatsTest, PoolSpawnsThreadsOnlyOnceAcrossRuns) {
  MpdataProgram M = buildMpdataProgram();
  auto Exec = makeExecutor(M, 2);
  Exec->enableProfiling(true);

  int TotalThreads = 0;
  for (const IslandPlan &Island : Exec->plan().Islands)
    TotalThreads += Island.NumThreads;

  Exec->run(1);
  Exec->run(2);
  Exec->run(1);

  const ExecStats &Stats = Exec->stats();
  EXPECT_EQ(Stats.RunCalls, 3);
  EXPECT_EQ(Stats.PoolDispatches, 3);
  EXPECT_EQ(Stats.ThreadsSpawned, TotalThreads); // The reuse guarantee.
  EXPECT_EQ(Stats.StepsRun, 4);
}

TEST(ExecStatsTest, ProfilingDoesNotPerturbTheNumerics) {
  constexpr int Steps = 4;
  MpdataProgram M = buildMpdataProgram();
  auto Plain = makeExecutor(M, 2);
  Plain->run(Steps);
  auto Profiled = makeExecutor(M, 2);
  Profiled->enableProfiling(true);
  Profiled->run(Steps);
  Domain Dom(GridNI, GridNJ, GridNK, mpdataHaloDepth());
  EXPECT_EQ(
      Profiled->array(M.XIn).maxAbsDiff(Plain->array(M.XIn), Dom.coreBox()),
      0.0);
}

TEST(ExecStatsTest, DisabledProfilingTakesNoMeasurements) {
  MpdataProgram M = buildMpdataProgram();
  auto Exec = makeExecutor(M, 2);
  Exec->run(2);
  const ExecStats &Stats = Exec->stats();
  EXPECT_FALSE(Stats.Enabled);
  EXPECT_EQ(Stats.kernelSeconds(), 0.0);
  EXPECT_EQ(Stats.WallSeconds, 0.0);
  // Pool bookkeeping is maintained regardless.
  EXPECT_EQ(Stats.RunCalls, 1);
  EXPECT_GT(Stats.ThreadsSpawned, 0);
}

TEST(ExecStatsTest, TimersMeasureSomethingAndImbalanceIsSane) {
  MpdataProgram M = buildMpdataProgram();
  auto Exec = makeExecutor(M, 2);
  Exec->enableProfiling(true);
  Exec->run(3);
  const ExecStats &Stats = Exec->stats();
  EXPECT_GT(Stats.kernelSeconds(), 0.0);
  EXPECT_GT(Stats.WallSeconds, 0.0);
  EXPECT_GE(Stats.teamBarrierWaitSeconds(), 0.0);
  double Share = Stats.barrierShare();
  EXPECT_GE(Share, 0.0);
  EXPECT_LE(Share, 1.0);
  for (const IslandStat &Island : Stats.Islands)
    EXPECT_GE(Island.imbalance(), 1.0); // Max >= mean whenever work ran.
}

TEST(ExecStatsTest, ResetClearsMeasurementsButKeepsThePool) {
  MpdataProgram M = buildMpdataProgram();
  auto Exec = makeExecutor(M, 2);
  Exec->enableProfiling(true);
  Exec->run(2);
  ASSERT_GT(Exec->stats().kernelSeconds(), 0.0);
  int64_t Spawned = Exec->stats().ThreadsSpawned;
  Exec->resetStats();
  EXPECT_EQ(Exec->stats().kernelSeconds(), 0.0);
  EXPECT_EQ(Exec->stats().StepsRun, 0);
  EXPECT_EQ(Exec->stats().ThreadsSpawned, Spawned);

  // Measurements after a reset are well formed again.
  Exec->run(1);
  EXPECT_GT(Exec->stats().kernelSeconds(), 0.0);
}

TEST(ExecStatsTest, JsonReportIsWellFormed) {
  MpdataProgram M = buildMpdataProgram();
  auto Exec = makeExecutor(M, 2);
  Exec->enableProfiling(true);
  Exec->run(2);
  std::string Json = Exec->stats().toJsonString();

  EXPECT_NE(Json.find("\"schema\": \"icores.exec_stats.v5\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"islands\""), std::string::npos);
  EXPECT_NE(Json.find("\"stages\""), std::string::npos);
  EXPECT_NE(Json.find("\"barrier_wait_seconds\""), std::string::npos);
  EXPECT_NE(Json.find("\"threads_spawned\""), std::string::npos);
  EXPECT_NE(Json.find("\"elided_barriers\""), std::string::npos);
  EXPECT_NE(Json.find("\"spin_wakes\""), std::string::npos);
  EXPECT_NE(Json.find("\"sleep_wakes\""), std::string::npos);
  // v3 additions: the fault-injection counters, zero on a clean run.
  EXPECT_NE(Json.find("\"faults_injected\": 0"), std::string::npos);
  EXPECT_NE(Json.find("\"retries\": 0"), std::string::npos);
  EXPECT_NE(Json.find("\"timeouts\": 0"), std::string::npos);
  EXPECT_NE(Json.find("\"recovered\": 0"), std::string::npos);

  // Balanced braces/brackets and no trailing commas before closers.
  int Braces = 0, Brackets = 0;
  for (size_t I = 0; I != Json.size(); ++I) {
    char C = Json[I];
    Braces += C == '{' ? 1 : (C == '}' ? -1 : 0);
    Brackets += C == '[' ? 1 : (C == ']' ? -1 : 0);
    ASSERT_GE(Braces, 0);
    ASSERT_GE(Brackets, 0);
    if (C == ',') {
      size_t Next = Json.find_first_not_of(" \n\r\t", I + 1);
      ASSERT_NE(Next, std::string::npos);
      EXPECT_NE(Json[Next], '}');
      EXPECT_NE(Json[Next], ']');
    }
  }
  EXPECT_EQ(Braces, 0);
  EXPECT_EQ(Brackets, 0);
}

TEST(ExecStatsTest, ReductionFoldsAreNeitherKernelNorIdleTime) {
  // cfl-advect on one team of 4 with combiners slowed to >= 2 us a call,
  // so the per-worker folds dwarf the kernels. kernel.* must still mean
  // kernels, and a stealing worker's last fold before the pass barrier
  // is work, not idle time. Booking the folds wrongly would put all of
  // their time in one of the two counters; booked right, it lands in
  // fold_seconds. Each binding is rebuilt through the constructor, so
  // its row fold calls the slow combiner once per cell too.
  constexpr int Steps = 4;
  constexpr double CallSeconds = 2e-6;
  const WorkloadSpec &Spec = *builtinWorkloads().find("cfl-advect");
  Domain Dom = workloadDomain(Spec, 16, 12, 8);
  MachineModel Machine = makeToyMachine();
  PlanConfig Config;
  Config.Strat = Strategy::Original;
  Config.Sockets = 2;
  ExecutionPlan Plan = buildPlan(Spec.Program, Dom.coreBox(), Machine, Config);

  std::vector<ReductionBinding> Slow;
  for (const ReductionBinding &B : Spec.Reductions)
    Slow.emplace_back(
        B.Name,
        [Inner = B.Combine, CallSeconds](double Acc, double V) {
          auto Until = std::chrono::steady_clock::now() +
                       std::chrono::duration<double>(CallSeconds);
          while (std::chrono::steady_clock::now() < Until) {
          }
          return Inner(Acc, V);
        },
        B.Identity);
  // Every core cell enters each reduction's fold once per step.
  const double FoldSeconds = static_cast<double>(Steps) *
                             static_cast<double>(Slow.size()) *
                             static_cast<double>(Dom.coreBox().numPoints()) *
                             CallSeconds;

  for (bool Stealing : {false, true}) {
    ExecutorOptions Opts;
    Opts.Reductions = Slow;
    Opts.Stealing = Stealing;
    ProgramExecutor Exec(Spec.Program, Spec.Kernels(KernelVariant::Reference),
                         Dom, Plan, Opts);
    initWorkload(Spec, Exec, 7);
    Exec.enableProfiling(true);
    Exec.run(Steps);
    const ExecStats &Stats = Exec.stats();
    ASSERT_EQ(Exec.reductionHistory(0).size(), static_cast<size_t>(Steps));
    EXPECT_GT(Stats.kernelSeconds(), 0.0);
    EXPECT_LT(Stats.kernelSeconds(), 0.5 * FoldSeconds)
        << "stealing=" << Stealing;
    EXPECT_GE(Stats.foldSeconds(), 0.5 * FoldSeconds)
        << "stealing=" << Stealing;
    if (Stealing) {
      EXPECT_LT(Stats.idleSeconds(), 0.5 * FoldSeconds);
    }
  }
}
