//===- tests/temporal_test.cpp - Temporal blocking correctness tests ------===//
//
// Bit-exactness and safety of temporally blocked plans (TemporalDepth > 1):
// every strategy x kernel backend x depth must reproduce the serial result
// exactly, barrier elision and the race check must stay green on fused
// plans, the chaos harness must replay deterministically at T > 1, and the
// executor must reject configurations the epoch protocol cannot honour.
// Runs on the registered MPDATA workload through the shared TestMatrix
// scaffolding; the per-workload generalization of the bit-exactness sweeps
// lives in workload_conformance_test.cpp.
//
//===----------------------------------------------------------------------===//

#include "TestMatrix.h"

#include "apps/Workloads.h"
#include "core/PlanVerifier.h"
#include "exec/ScheduleCheck.h"
#include "fault/FaultInjector.h"
#include "sim/Simulator.h"
#include "support/Diagnostics.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>

using namespace icores;

namespace {

const WorkloadSpec &mpdata() { return *builtinWorkloads().find("mpdata"); }

} // namespace

TEST(TemporalPlanTest, FusedPlansVerifyAndPassTheRaceCheck) {
  const WorkloadSpec &M = mpdata();
  Domain Dom = workloadDomain(M, 18, 12, 8);
  for (Strategy Strat : {Strategy::Original, Strategy::Block31D,
                         Strategy::IslandsOfCores})
    for (int T : {1, 2, 4})
      for (bool Elide : {false, true}) {
        ExecutionPlan Plan = makeTestPlan(M.Program, Dom, Strat, T, Elide);
        EXPECT_EQ(Plan.TemporalDepth, T);
        PlanVerification V = verifyPlan(Plan, M.Program);
        EXPECT_TRUE(V.Ok) << strategyName(Strat) << " T=" << T
                          << " elide=" << Elide << ": " << V.FirstError;
        DiagnosticEngine Diags;
        EXPECT_TRUE(checkPlanRaces(M.Program, Plan, Diags))
            << strategyName(Strat) << " T=" << T << " elide=" << Elide
            << ": " << Diags.firstErrorMessage();
      }
}

TEST(TemporalPlanTest, BlocksAreStampedWithIncreasingStepsInEpoch) {
  const WorkloadSpec &M = mpdata();
  Domain Dom = workloadDomain(M, 18, 12, 8);
  ExecutionPlan Plan =
      makeTestPlan(M.Program, Dom, Strategy::IslandsOfCores, 4);
  for (const IslandPlan &Island : Plan.Islands) {
    int Cur = 0;
    bool SawFinal = false;
    for (const BlockTask &Block : Island.Blocks) {
      EXPECT_GE(Block.StepInEpoch, Cur);
      EXPECT_LT(Block.StepInEpoch, 4);
      Cur = Block.StepInEpoch;
      SawFinal = SawFinal || Block.StepInEpoch == 3;
    }
    EXPECT_TRUE(SawFinal);
  }
}

TEST(TemporalExecutorTest, BitExactAcrossDepthsStrategiesAndBackends) {
  const WorkloadSpec &M = mpdata();
  Domain Dom = workloadDomain(M, 18, 12, 8);
  const int Steps = 4;
  auto Oracle = serialOracle(M, Dom, Steps);
  for (Strategy Strat : {Strategy::Original, Strategy::Block31D,
                         Strategy::IslandsOfCores})
    for (int T : {1, 2, 4})
      for (KernelVariant V : {KernelVariant::Reference,
                              KernelVariant::Optimized,
                              KernelVariant::Simd}) {
        auto Exec = makeWorkloadExecutor(
            M, Dom, makeTestPlan(M.Program, Dom, Strat, T), V);
        Exec->run(Steps);
        EXPECT_EQ(
            maxNewestStateDiff(M.Program, *Exec, *Oracle, Dom.coreBox()),
            0.0)
            << strategyName(Strat) << " T=" << T << " variant="
            << kernelVariantName(V);
      }
}

TEST(TemporalExecutorTest, BitExactUnderBothBarrierPoliciesAndElision) {
  const WorkloadSpec &M = mpdata();
  Domain Dom = workloadDomain(M, 18, 12, 8);
  const int Steps = 4;
  auto Oracle = serialOracle(M, Dom, Steps);
  // The default spin budget, a short one, and none (sleep at once).
  for (int SpinLimit : {TeamBarrier::DefaultSpinLimit, 4, 0})
    for (bool Elide : {false, true}) {
      ExecutorOptions Opts;
      Opts.BarrierSpinLimit = SpinLimit;
      auto Exec = makeWorkloadExecutor(
          M, Dom,
          makeTestPlan(M.Program, Dom, Strategy::IslandsOfCores, 2, Elide),
          KernelVariant::Optimized, Opts);
      Exec->run(Steps);
      EXPECT_EQ(
          maxNewestStateDiff(M.Program, *Exec, *Oracle, Dom.coreBox()),
          0.0)
          << "spin limit " << SpinLimit << " elide=" << Elide;
    }
}

TEST(TemporalExecutorTest, MultipleEpochsMatchOneLongRun) {
  // run(2) + run(4) at T = 2 must equal run(6) at T = 2 and the oracle.
  const WorkloadSpec &M = mpdata();
  Domain Dom = workloadDomain(M, 16, 12, 8);
  auto make = [&]() {
    return makeWorkloadExecutor(
        M, Dom, makeTestPlan(M.Program, Dom, Strategy::IslandsOfCores, 2));
  };
  auto Split = make();
  Split->run(2);
  Split->run(4);
  auto Whole = make();
  Whole->run(6);
  EXPECT_EQ(maxNewestStateDiff(M.Program, *Split, *Whole, Dom.coreBox()),
            0.0);
  auto Oracle = serialOracle(M, Dom, 6);
  EXPECT_EQ(maxNewestStateDiff(M.Program, *Whole, *Oracle, Dom.coreBox()),
            0.0);
}

TEST(TemporalExecutorTest, SharedTrafficPerStepShrinksWithDepth) {
  // The fused-step import cones widen by the halo depth per extra step, so
  // temporal reuse only pays on grids where the core dominates the halo;
  // tiny boxes would make redundant imports outweigh the saved re-reads.
  const WorkloadSpec &M = mpdata();
  Domain Dom = workloadDomain(M, 64, 48, 48);
  for (Strategy Strat : {Strategy::Block31D, Strategy::IslandsOfCores}) {
    auto bytesPerStep = [&](int T) {
      auto Exec = makeWorkloadExecutor(M, Dom,
                                       makeTestPlan(M.Program, Dom, Strat, T));
      return Exec->sharedBytesPerStep();
    };
    int64_t B1 = bytesPerStep(1);
    int64_t B2 = bytesPerStep(2);
    int64_t B4 = bytesPerStep(4);
    EXPECT_GT(B1, 0) << strategyName(Strat);
    EXPECT_LT(B2, B1) << strategyName(Strat);
    EXPECT_LT(B4, B2) << strategyName(Strat);
  }
}

TEST(TemporalExecutorTest, SimulatorProjectionMatchesExecutorAccounting) {
  // The simulator prices temporal plans from the plan alone; its shared
  // traffic projection must replicate the executor's transfer accounting
  // exactly — this is what lets PlanAdvisor pick T without running.
  const WorkloadSpec &M = mpdata();
  Domain Dom = workloadDomain(M, 24, 18, 12);
  for (Strategy Strat :
       {Strategy::Original, Strategy::Block31D, Strategy::IslandsOfCores})
    for (int T : {1, 2, 4}) {
      ExecutionPlan Plan = makeTestPlan(M.Program, Dom, Strat, T);
      int64_t Projected = projectedSharedBytesPerStep(Plan, M.Program);
      auto Exec = makeWorkloadExecutor(M, Dom, std::move(Plan));
      EXPECT_EQ(Projected, Exec->sharedBytesPerStep())
          << strategyName(Strat) << " T=" << T;
    }
}

TEST(TemporalExecutorTest, ChaosReplayIsDeterministicAtDepthTwo) {
  // Same seed + same plan => bit-identical state and identical injector
  // counters, with temporal blocking active.
  const WorkloadSpec &M = mpdata();
  Domain Dom = workloadDomain(M, 16, 12, 8);
  ArrayId State = newestStateArrays(M.Program).front();
  auto run = [&](uint64_t Seed) {
    FaultPlan Plan;
    Plan.Seed = Seed;
    Plan.StallRate = 0.2;
    Plan.WakeRate = 0.2;
    Plan.MaxStallSeconds = 2e-4;
    FaultInjector Injector(Plan);
    ExecutorOptions Opts;
    Opts.Chaos = &Injector;
    auto Exec = makeWorkloadExecutor(
        M, Dom, makeTestPlan(M.Program, Dom, Strategy::IslandsOfCores, 2),
        KernelVariant::Reference, Opts);
    Exec->run(4);
    Array3D Out(Dom.allocBox());
    Out.copyRegionFrom(Exec->array(State), Dom.coreBox());
    return std::make_pair(std::move(Out), Injector.stats().Injected);
  };
  auto A = run(42);
  auto B = run(42);
  EXPECT_EQ(A.first.maxAbsDiff(B.first, Dom.coreBox()), 0.0);
  EXPECT_EQ(A.second, B.second);
  // And chaos must not perturb the data: still the serial answer.
  auto Oracle = serialOracle(M, Dom, 4);
  EXPECT_EQ(A.first.maxAbsDiff(Oracle->array(State), Dom.coreBox()), 0.0);
}

TEST(TemporalExecutorTest, RejectsPartialEpochs) {
  const WorkloadSpec &M = mpdata();
  Domain Dom = workloadDomain(M, 16, 12, 8);
  auto Exec = makeWorkloadExecutor(
      M, Dom, makeTestPlan(M.Program, Dom, Strategy::IslandsOfCores, 2));
  EXPECT_DEATH(Exec->run(3), "whole number of temporal epochs");
}

TEST(TemporalExecutorTest, RejectsNonPeriodicBoundaries) {
  const WorkloadSpec &M = mpdata();
  Domain Dom =
      workloadDomain(M, 16, 12, 8, BoundaryMode::ZeroGradient);
  EXPECT_DEATH(
      makeWorkloadExecutor(
          M, Dom, makeTestPlan(M.Program, Dom, Strategy::IslandsOfCores, 2)),
      "[Pp]eriodic");
}

TEST(TemporalPlanVerifierTest, RejectsOutOfOrderSteps) {
  const WorkloadSpec &M = mpdata();
  Domain Dom = workloadDomain(M, 16, 12, 8);
  ExecutionPlan Plan =
      makeTestPlan(M.Program, Dom, Strategy::IslandsOfCores, 2);
  ASSERT_GE(Plan.Islands[0].Blocks.size(), 2u);
  // Swap the first two blocks' step stamps: step order now decreases.
  std::swap(Plan.Islands[0].Blocks.front().StepInEpoch,
            Plan.Islands[0].Blocks.back().StepInEpoch);
  PlanVerification V = verifyPlan(Plan, M.Program);
  EXPECT_FALSE(V.Ok);
}

TEST(TemporalPlanVerifierTest, RejectsInvalidDepth) {
  const WorkloadSpec &M = mpdata();
  Domain Dom = workloadDomain(M, 16, 12, 8);
  ExecutionPlan Plan =
      makeTestPlan(M.Program, Dom, Strategy::IslandsOfCores, 1);
  Plan.TemporalDepth = 0;
  PlanVerification V = verifyPlan(Plan, M.Program);
  EXPECT_FALSE(V.Ok);
}
