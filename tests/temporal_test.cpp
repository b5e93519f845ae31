//===- tests/temporal_test.cpp - Temporal blocking correctness tests ------===//
//
// Bit-exactness and safety of temporally blocked plans (TemporalDepth > 1):
// every strategy x kernel backend x depth must reproduce the serial result
// exactly, barrier elision and the race check must stay green on fused
// plans, the chaos harness must replay deterministically at T > 1, static
// inputs must be gathered once per prepareInputs() rather than per epoch,
// and the executor must reject configurations the epoch protocol cannot
// honour.
// Runs on the registered MPDATA workload through the shared TestMatrix
// scaffolding; the per-workload generalization of the bit-exactness sweeps
// lives in workload_conformance_test.cpp.
//
//===----------------------------------------------------------------------===//

#include "TestMatrix.h"

#include "apps/Workloads.h"
#include "core/PlacementMap.h"
#include "core/PlanVerifier.h"
#include "exec/ExecObserver.h"
#include "exec/ScheduleCheck.h"
#include "fault/FaultInjector.h"
#include "sim/Simulator.h"
#include "support/Diagnostics.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <utility>

using namespace icores;

namespace {

const WorkloadSpec &mpdata() { return *builtinWorkloads().find("mpdata"); }
const WorkloadSpec &advdiff() { return *builtinWorkloads().find("advdiff"); }

/// Records, per import buffer, the shared array it is gathered from and
/// the epochs (counted across run() calls) in which any worker wrote it.
/// A temporal epoch opens with exactly two global barriers, so a worker's
/// epoch is its global-barrier arrivals halved.
class ImportLog final : public ExecObserver {
public:
  struct Gathers {
    const Array3D *Src = nullptr;
    std::set<int> Epochs;
  };

  void onBarrierArrive(uint64_t Site, int Worker, int) override {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Site == 0)
      ++GlobalArrivals[Worker];
  }
  void onBarrierDepart(uint64_t, int) override {}
  void onPass(int, const StencilProgram &, FieldStore &, StageId,
              const Box3 &) override {}
  void onImport(int Worker, const Array3D &Src, const Array3D &Buf,
                const Box3 &, int, int, int) override {
    std::lock_guard<std::mutex> Lock(Mutex);
    Gathers &G = ByBuffer[&Buf];
    G.Src = &Src;
    G.Epochs.insert(GlobalArrivals[Worker] / 2 - 1);
  }
  void onSlide(int, const Array3D &, const SlideShare &) override {}
  void onImages(int, const Domain &, const Array3D &, const Box3 &) override {}

  std::map<const Array3D *, Gathers> ByBuffer;

private:
  std::mutex Mutex;
  std::map<int, int> GlobalArrivals;
};

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
      for (KernelVariant V : {KernelVariant::Reference, KernelVariant::Simd}) {
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
          KernelVariant::Simd, Opts);
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

TEST(TemporalPlanTest, AdvdiffEpochPlanMovesOnlyTheFeedbackStatePerStep) {
  // The end-to-end benchmark's advdiff-epoch plan (128x128x96, two islands
  // on the toy machine, T = 4, cost cuts, first touch). Per epoch each
  // island imports only phi; gathering u1/u2/u3/kappa every epoch too
  // would move 28,229,072 bytes per step.
  const WorkloadSpec &W = advdiff();
  Domain Dom = workloadDomain(W, 128, 128, 96);
  ExecutionPlan Plan =
      makeTestPlan(W.Program, Dom, Strategy::IslandsOfCores, 4,
                   /*ElideBarriers=*/true, /*Sockets=*/2, BalancePolicy::Cost);
  ASSERT_EQ(Plan.Islands.size(), 2u);
  EXPECT_EQ(projectedSharedBytesPerStep(Plan, W.Program), 8306688);
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

TEST(TemporalExecutorTest, StaticInputsGatheredOncePerPrepare) {
  // Three run() calls of two epochs each gather the static inputs only in
  // epoch 0; prepareInputs() makes the next run (epochs 6 and 7) gather
  // them again in its first epoch. The feedback target is gathered in
  // every epoch.
  for (const WorkloadSpec *W : {&advdiff(), &mpdata()})
    for (int T : {2, 4}) {
      Domain Dom = workloadDomain(*W, 16, 12, 8);
      ImportLog Log;
      ExecutorOptions Opts;
      Opts.Observer = &Log;
      auto Exec = makeWorkloadExecutor(
          *W, Dom, makeTestPlan(W->Program, Dom, Strategy::IslandsOfCores, T),
          KernelVariant::Reference, Opts);
      for (int Run = 0; Run != 3; ++Run)
        Exec->run(2 * T);
      Exec->prepareInputs();
      Exec->run(2 * T);

      const std::string Case = W->Name + " T=" + std::to_string(T);
      const std::set<int> Statics = {0, 6};
      const std::set<int> Every = {0, 1, 2, 3, 4, 5, 6, 7};
      std::map<ArrayId, int> Buffers;
      for (const auto &[Buf, G] : Log.ByBuffer)
        for (ArrayId In : W->Program.stepInputs())
          if (G.Src == &Exec->array(In)) {
            ++Buffers[In];
            EXPECT_EQ(G.Epochs,
                      W->Program.isStaticInput(In) ? Statics : Every)
                << Case << " array " << W->Program.array(In).Name;
          }
      // Every step input has one import buffer per island, and no buffer
      // was gathered from anything else.
      EXPECT_EQ(Buffers.size(), W->Program.stepInputs().size()) << Case;
      for (const auto &[In, Count] : Buffers)
        EXPECT_EQ(Count, static_cast<int>(Exec->plan().Islands.size()))
            << Case << " array " << W->Program.array(In).Name;
      EXPECT_EQ(Log.ByBuffer.size(),
                W->Program.stepInputs().size() * Exec->plan().Islands.size())
          << Case;
      // The stats count what moved: eight epochs of feedback imports and
      // two static gathers.
      int64_t PerEpoch = 0, Gather = 0;
      for (const IslandPlan &Island : Exec->plan().Islands) {
        const IslandFootprint F =
            islandFootprint(W->Program, Exec->plan(), Island);
        PerEpoch += F.readBytes(W->Program);
        Gather += F.staticGatherBytes(W->Program);
      }
      EXPECT_GT(Gather, 0) << Case;
      EXPECT_EQ(Exec->stats().SharedBytesRead, 8 * PerEpoch + 2 * Gather)
          << Case;
    }
}

TEST(TemporalExecutorTest, RewrittenStaticInputTakesEffectAfterPrepare) {
  // Rescaling a static input between runs and calling prepareInputs() must
  // change the T = 4 executor's trajectory exactly as it changes the
  // serial stepper's.
  const WorkloadSpec &W = advdiff();
  Domain Dom = workloadDomain(W, 16, 12, 8);
  const ArrayId Kappa = findArrayId(W.Program, "kappa");
  ASSERT_GE(Kappa, 0);
  ASSERT_TRUE(W.Program.isStaticInput(Kappa));
  auto makeExec = [&] {
    return makeWorkloadExecutor(
        W, Dom, makeTestPlan(W.Program, Dom, Strategy::IslandsOfCores, 4));
  };
  auto rescale = [&Dom](Array3D &A) {
    const Box3 Core = Dom.coreBox();
    for (int I = Core.Lo[0]; I != Core.Hi[0]; ++I)
      for (int J = Core.Lo[1]; J != Core.Hi[1]; ++J)
        for (int K = Core.Lo[2]; K != Core.Hi[2]; ++K)
          A.at(I, J, K) *= 0.5;
  };
  auto Exec = makeExec();
  auto Unscaled = makeExec();
  auto Oracle = serialOracle(W, Dom, 0);
  Exec->run(4);
  Unscaled->run(4);
  Oracle->run(4);
  rescale(Exec->array(Kappa));
  rescale(Oracle->array(Kappa));
  Exec->prepareInputs();
  Oracle->prepareInputs();
  Exec->run(8);
  Unscaled->run(8);
  Oracle->run(8);
  EXPECT_EQ(maxNewestStateDiff(W.Program, *Exec, *Oracle, Dom.coreBox()),
            0.0);
  // The rescale is visible: a run that kept the old kappa ends elsewhere.
  EXPECT_GT(maxNewestStateDiff(W.Program, *Unscaled, *Oracle, Dom.coreBox()),
            0.0);
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
