//===- tests/schedule_optimizer_test.cpp - Barrier elision tests ----------===//
//
// The barrier elision optimizer's contract, end to end: its report agrees
// with the plan's barrier bits and with the simulator's counters, every
// optimized plan still verifies and passes the race check (the safety
// gate), a seeded over-elision is rejected by that same gate, empty-pass
// barriers fold the way the executor runs them, and — the load-bearing
// part — optimized execution stays bit-identical to the serial reference
// for every strategy, team count and kernel variant.
//
//===----------------------------------------------------------------------===//

#include "core/PlanBuilder.h"
#include "core/PlanVerifier.h"
#include "core/ScheduleOptimizer.h"
#include "exec/LintSuite.h"
#include "exec/ProgramExecutor.h"
#include "exec/ScheduleCheck.h"
#include "machine/MachineModel.h"
#include "mpdata/InitialConditions.h"
#include "mpdata/Kernels.h"
#include "sim/Simulator.h"
#include "stencil/SerialStepper.h"
#include "support/Diagnostics.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

using namespace icores;

namespace {

constexpr int GridNI = 20;
constexpr int GridNJ = 14;
constexpr int GridNK = 8;
constexpr int TimeSteps = 3;

MachineModel machineWithSockets(int Sockets) {
  MachineModel M = makeToyMachine();
  M.NumSockets = Sockets;
  return M;
}

ExecutionPlan makePlan(const MpdataProgram &M, Strategy Strat, int Sockets,
                       PartitionVariant Variant = PartitionVariant::A) {
  PlanConfig Config;
  Config.Strat = Strat;
  Config.Sockets = Sockets;
  Config.Variant = Variant;
  return buildPlan(M.Program, Box3::fromExtents(GridNI, GridNJ, GridNK),
                   machineWithSockets(Sockets), Config);
}

/// The (strategy, sockets) grid most tests sweep.
const std::vector<std::pair<Strategy, int>> kPlanCases = {
    {Strategy::Original, 1},       {Strategy::Original, 2},
    {Strategy::Block31D, 1},       {Strategy::Block31D, 3},
    {Strategy::IslandsOfCores, 2}, {Strategy::IslandsOfCores, 4}};

} // namespace

TEST(ScheduleOptimizerTest, ReportMatchesPlanBits) {
  MpdataProgram M = buildMpdataProgram();
  for (const auto &[Strat, Sockets] : kPlanCases) {
    ExecutionPlan Plan = makePlan(M, Strat, Sockets);
    int64_t Before = Plan.teamBarriersPerStep();
    EXPECT_EQ(Plan.elidedBarriersPerStep(), 0) << "planners emit all bits";
    ScheduleOptimizerReport Report = optimizeBarriers(M.Program, Plan);
    EXPECT_EQ(Report.TotalPasses, Before);
    EXPECT_EQ(Report.ElidedBarriers, Plan.elidedBarriersPerStep());
    EXPECT_EQ(Report.remainingBarriers(), Plan.teamBarriersPerStep());
    EXPECT_GT(Report.ElidedBarriers, 0)
        << strategyName(Strat) << " P=" << Sockets;
    int64_t PerIsland = 0;
    for (const IslandElision &E : Report.Islands)
      PerIsland += E.Elided;
    EXPECT_EQ(PerIsland, Report.ElidedBarriers);
  }
}

TEST(ScheduleOptimizerTest, FinalPassOfEveryIslandKeepsItsBarrier) {
  MpdataProgram M = buildMpdataProgram();
  for (const auto &[Strat, Sockets] : kPlanCases) {
    ExecutionPlan Plan = makePlan(M, Strat, Sockets);
    optimizeBarriers(M.Program, Plan);
    for (const IslandPlan &Island : Plan.Islands) {
      const StagePass *LastLive = nullptr;
      for (const BlockTask &Block : Island.Blocks)
        for (const StagePass &Pass : Block.Passes)
          if (!Pass.Region.empty())
            LastLive = &Pass;
      ASSERT_NE(LastLive, nullptr);
      EXPECT_TRUE(LastLive->BarrierAfter)
          << "step-end rendezvous elided on island " << Island.Index;
    }
  }
}

TEST(ScheduleOptimizerTest, IsIdempotent) {
  MpdataProgram M = buildMpdataProgram();
  ExecutionPlan Plan = makePlan(M, Strategy::IslandsOfCores, 2);
  ScheduleOptimizerReport First = optimizeBarriers(M.Program, Plan);
  std::vector<bool> Bits;
  for (const IslandPlan &Island : Plan.Islands)
    for (const BlockTask &Block : Island.Blocks)
      for (const StagePass &Pass : Block.Passes)
        Bits.push_back(Pass.BarrierAfter);
  ScheduleOptimizerReport Second = optimizeBarriers(M.Program, Plan);
  EXPECT_EQ(Second.TotalPasses, First.TotalPasses);
  EXPECT_EQ(Second.ElidedBarriers, First.ElidedBarriers);
  std::vector<bool> BitsAfter;
  for (const IslandPlan &Island : Plan.Islands)
    for (const BlockTask &Block : Island.Blocks)
      for (const StagePass &Pass : Block.Passes)
        BitsAfter.push_back(Pass.BarrierAfter);
  EXPECT_EQ(BitsAfter, Bits);
}

TEST(ScheduleOptimizerTest, OptimizedPlansPassVerifierAndRaceCheck) {
  MpdataProgram M = buildMpdataProgram();
  for (const auto &[Strat, Sockets] : kPlanCases) {
    ExecutionPlan Plan = makePlan(M, Strat, Sockets);
    optimizeBarriers(M.Program, Plan);
    PlanVerification V = verifyPlan(Plan, M.Program);
    EXPECT_TRUE(V.Ok) << V.FirstError;
    DiagnosticEngine Diags;
    EXPECT_TRUE(checkPlanRaces(M.Program, Plan, Diags))
        << strategyName(Strat) << " P=" << Sockets << ": "
        << Diags.firstErrorMessage();
    EXPECT_EQ(Diags.numErrors(), 0u);
  }
}

TEST(ScheduleOptimizerTest, OptimizedPlansPassLintSuite) {
  // The full suite over every optimized plan shape (the kernel access
  // audit is plan-independent and covered by lint_test, so skipped here).
  MpdataProgram M = buildMpdataProgram();
  KernelTable RefKernels = buildMpdataKernels(KernelVariant::Reference);
  KernelTable OptKernels = buildMpdataKernels(KernelVariant::Optimized);
  std::vector<LintKernelSet> KernelSets = {{"ref", &RefKernels},
                                           {"opt", &OptKernels}};
  std::vector<ExecutionPlan> Plans;
  Plans.reserve(kPlanCases.size());
  std::vector<LintPlanSet> PlanSets;
  for (const auto &[Strat, Sockets] : kPlanCases) {
    Plans.push_back(makePlan(M, Strat, Sockets));
    optimizeBarriers(M.Program, Plans.back());
    PlanSets.push_back(
        {std::string(strategyName(Strat)) + "+elide", &Plans.back()});
  }
  LintSuiteOptions Opts;
  Opts.RunAccessAudit = false;
  DiagnosticEngine Diags;
  EXPECT_TRUE(runLintSuite(M.Program, KernelSets, PlanSets, Diags, Opts))
      << Diags.firstErrorMessage();
  EXPECT_EQ(Diags.numErrors(), 0u);
}

TEST(ScheduleOptimizerTest, SeededOverElisionIsRejected) {
  // Clear one barrier the optimizer insisted on keeping (any kept bit
  // that is not an island's step-end rendezvous): the race check — the
  // optimizer's safety gate — must reject the plan.
  MpdataProgram M = buildMpdataProgram();
  ExecutionPlan Plan = makePlan(M, Strategy::IslandsOfCores, 2);
  optimizeBarriers(M.Program, Plan);

  StagePass *Victim = nullptr;
  for (IslandPlan &Island : Plan.Islands) {
    std::vector<StagePass *> Live;
    for (BlockTask &Block : Island.Blocks)
      for (StagePass &Pass : Block.Passes)
        if (!Pass.Region.empty())
          Live.push_back(&Pass);
    for (size_t I = 0; I + 1 < Live.size() && !Victim; ++I)
      if (Live[I]->BarrierAfter)
        Victim = Live[I];
    if (Victim)
      break;
  }
  ASSERT_NE(Victim, nullptr)
      << "no kept non-final barrier to attack — optimizer elided "
         "everything, which the MPDATA dependence chain forbids";
  Victim->BarrierAfter = false;

  DiagnosticEngine Diags;
  EXPECT_FALSE(checkPlanRaces(M.Program, Plan, Diags));
  EXPECT_TRUE(Diags.hasFinding("race.intra.write-write") ||
              Diags.hasFinding("race.intra.read-write"));
}

TEST(ScheduleOptimizerTest, EmptyPassBarrierFoldsOntoPreviousPass) {
  // Mirror of the executor: an empty pass is skipped but its barrier bit
  // is still honoured, so buildIslandSchedules folds it backwards.
  ExecutionPlan Plan;
  Plan.GlobalTarget = Box3::fromExtents(4, 4, 4);
  IslandPlan Island;
  Island.NumThreads = 2;
  Island.Part = Plan.GlobalTarget;
  BlockTask Block;
  Block.Target = Plan.GlobalTarget;
  Block.Passes.push_back({0, Plan.GlobalTarget, /*BarrierAfter=*/false});
  Block.Passes.push_back({1, Box3(), /*BarrierAfter=*/true});
  Block.Passes.push_back({2, Plan.GlobalTarget, /*BarrierAfter=*/true});
  Island.Blocks.push_back(Block);
  Plan.Islands.push_back(Island);

  std::vector<IslandSchedule> Schedules = buildIslandSchedules(Plan);
  ASSERT_EQ(Schedules.size(), 1u);
  ASSERT_EQ(Schedules[0].Passes.size(), 2u);
  EXPECT_EQ(Schedules[0].Passes[0].Stage, 0);
  EXPECT_TRUE(Schedules[0].Passes[0].BarrierAfter)
      << "the dropped empty pass's barrier belongs to the previous pass";
  EXPECT_EQ(Schedules[0].Passes[1].Stage, 2);

  // A leading empty pass has no predecessor to fold onto; its barrier
  // orders nothing and is simply dropped.
  Plan.Islands[0].Blocks[0].Passes.insert(
      Plan.Islands[0].Blocks[0].Passes.begin(),
      StagePass{3, Box3(), /*BarrierAfter=*/true});
  Schedules = buildIslandSchedules(Plan);
  ASSERT_EQ(Schedules[0].Passes.size(), 2u);
  EXPECT_EQ(Schedules[0].Passes[0].Stage, 0);
  EXPECT_TRUE(Schedules[0].Passes[0].BarrierAfter);
}

TEST(ScheduleOptimizerTest, CountsMatchSimulator) {
  MpdataProgram M = buildMpdataProgram();
  MachineModel Machine = machineWithSockets(2);
  for (Strategy Strat : {Strategy::Original, Strategy::Block31D,
                         Strategy::IslandsOfCores}) {
    ExecutionPlan Plain = makePlan(M, Strat, 2);
    SimResult PlainSim = simulate(Plain, M.Program, Machine, TimeSteps);
    EXPECT_EQ(PlainSim.ElidedBarriersPerStep, 0);

    ExecutionPlan Opt = makePlan(M, Strat, 2);
    ScheduleOptimizerReport Report = optimizeBarriers(M.Program, Opt);
    SimResult OptSim = simulate(Opt, M.Program, Machine, TimeSteps);
    EXPECT_EQ(PlainSim.TeamBarriersPerStep, Report.TotalPasses);
    EXPECT_EQ(OptSim.TeamBarriersPerStep, Report.remainingBarriers());
    EXPECT_EQ(OptSim.ElidedBarriersPerStep, Report.ElidedBarriers);
    EXPECT_LE(OptSim.TotalSeconds, PlainSim.TotalSeconds + 1e-12)
        << strategyName(Strat);
  }
}

TEST(ScheduleOptimizerTest, ExecStatsCountElisions) {
  MpdataProgram M = buildMpdataProgram();
  ExecutionPlan Plan = makePlan(M, Strategy::IslandsOfCores, 2);
  ScheduleOptimizerReport Report = optimizeBarriers(M.Program, Plan);
  ASSERT_GT(Report.ElidedBarriers, 0);

  Domain Dom(GridNI, GridNJ, GridNK, mpdataHaloDepth());
  ProgramExecutor Exec(M.Program, buildMpdataKernels(), Dom,
                       std::move(Plan));
  seedMpdata(Exec, M, 11, 0.1, 2.0, 0.3, -0.25, 0.2);
  Exec.enableProfiling(true);
  Exec.run(TimeSteps);
  const ExecStats &Stats = Exec.stats();
  EXPECT_EQ(Stats.barriersElided(), TimeSteps * Report.ElidedBarriers);
  EXPECT_GT(Stats.spinWakes() + Stats.sleepWakes(), 0)
      << "every taken barrier reports a wake kind";
}

//===----------------------------------------------------------------------===//
// Bit-exact equivalence: the acceptance bar for the whole optimization
//===----------------------------------------------------------------------===//

namespace {

struct ElisionCase {
  Strategy Strat;
  int Sockets;
  KernelVariant Kernels;
  PartitionVariant Variant;
  const char *Name;
};

class ScheduleOptimizerEquivalence
    : public ::testing::TestWithParam<ElisionCase> {};

Array3D referenceResult() {
  const MpdataProgram M = buildMpdataProgram();
  SerialStepper Solver(M.Program, buildMpdataKernels(),
                       Domain(GridNI, GridNJ, GridNK, mpdataHaloDepth()));
  seedMpdata(Solver, M, 1234, 0.1, 2.0, 0.3, -0.25, 0.2);
  Solver.run(TimeSteps);
  Array3D Result(Solver.domain().allocBox());
  Result.copyRegionFrom(Solver.array(M.XIn), Solver.domain().coreBox());
  return Result;
}

Array3D executorResult(const MpdataProgram &M, const ElisionCase &C,
                       bool Optimize,
                       ExecutorOptions Opts = {}) {
  Domain Dom(GridNI, GridNJ, GridNK, mpdataHaloDepth());
  ExecutionPlan Plan = makePlan(M, C.Strat, C.Sockets, C.Variant);
  if (Optimize) {
    ScheduleOptimizerReport Report = optimizeBarriers(M.Program, Plan);
    EXPECT_GT(Report.ElidedBarriers, 0) << "nothing elided — the "
                                           "equivalence run proves nothing";
  }
  ProgramExecutor Exec(M.Program, buildMpdataKernels(C.Kernels), Dom,
                       std::move(Plan), Opts);
  seedMpdata(Exec, M, 1234, 0.1, 2.0, 0.3, -0.25, 0.2);
  Exec.run(TimeSteps);
  Array3D Result(Exec.domain().allocBox());
  Result.copyRegionFrom(Exec.array(M.XIn), Exec.domain().coreBox());
  return Result;
}

} // namespace

TEST_P(ScheduleOptimizerEquivalence, OptimizedMatchesReferenceBitExactly) {
  const ElisionCase &C = GetParam();
  MpdataProgram M = buildMpdataProgram();
  Box3 Core = Box3::fromExtents(GridNI, GridNJ, GridNK);
  Array3D Reference = referenceResult();
  Array3D Unoptimized = executorResult(M, C, /*Optimize=*/false);
  Array3D Optimized = executorResult(M, C, /*Optimize=*/true);
  EXPECT_EQ(Unoptimized.maxAbsDiff(Reference, Core), 0.0);
  EXPECT_EQ(Optimized.maxAbsDiff(Reference, Core), 0.0)
      << "elision changed the numerics for " << strategyName(C.Strat)
      << " P=" << C.Sockets;
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, ScheduleOptimizerEquivalence,
    ::testing::Values(
        ElisionCase{Strategy::Original, 1, KernelVariant::Reference,
                    PartitionVariant::A, "original_p1_ref"},
        ElisionCase{Strategy::Original, 2, KernelVariant::Reference,
                    PartitionVariant::A, "original_p2_ref"},
        ElisionCase{Strategy::Original, 2, KernelVariant::Optimized,
                    PartitionVariant::A, "original_p2_opt"},
        ElisionCase{Strategy::Block31D, 3, KernelVariant::Reference,
                    PartitionVariant::A, "block31d_p3_ref"},
        ElisionCase{Strategy::Block31D, 3, KernelVariant::Optimized,
                    PartitionVariant::A, "block31d_p3_opt"},
        ElisionCase{Strategy::IslandsOfCores, 2, KernelVariant::Reference,
                    PartitionVariant::A, "islands_p2_ref"},
        ElisionCase{Strategy::IslandsOfCores, 2, KernelVariant::Optimized,
                    PartitionVariant::A, "islands_p2_opt"},
        ElisionCase{Strategy::IslandsOfCores, 2, KernelVariant::Reference,
                    PartitionVariant::B, "islands_p2_varB_ref"},
        ElisionCase{Strategy::IslandsOfCores, 4, KernelVariant::Reference,
                    PartitionVariant::A, "islands_p4_ref"},
        ElisionCase{Strategy::IslandsOfCores, 4, KernelVariant::Optimized,
                    PartitionVariant::A, "islands_p4_opt"}),
    [](const ::testing::TestParamInfo<ElisionCase> &Info) {
      return Info.param.Name;
    });

TEST(ScheduleOptimizerEquivalenceTest, HoldsUnderEveryBarrierPolicy) {
  MpdataProgram M = buildMpdataProgram();
  ElisionCase C{Strategy::IslandsOfCores, 2, KernelVariant::Reference,
                PartitionVariant::A, "islands_p2"};
  Box3 Core = Box3::fromExtents(GridNI, GridNJ, GridNK);
  Array3D Reference = referenceResult();
  for (TeamBarrier::WaitPolicy Policy : {TeamBarrier::WaitPolicy::Spin,
                                         TeamBarrier::WaitPolicy::Hybrid,
                                         TeamBarrier::WaitPolicy::Block}) {
    ExecutorOptions Opts;
    Opts.BarrierPolicy = Policy;
    Opts.BarrierSpinLimit = Policy == TeamBarrier::WaitPolicy::Hybrid
                                ? 4 // Force the futex path too.
                                : TeamBarrier::DefaultSpinLimit;
    Array3D Optimized = executorResult(M, C, /*Optimize=*/true, Opts);
    EXPECT_EQ(Optimized.maxAbsDiff(Reference, Core), 0.0)
        << waitPolicyName(Policy);
  }
}
