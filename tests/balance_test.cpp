//===- tests/balance_test.cpp - Cost-balanced partitioning + stealing -----===//
//
// Covers the load-balance layer end to end: the cost partitioner's cut
// geometry (property-tested over random domains, part counts and temporal
// depths), the agreement of its flop accounting with the established
// ExtraElements engine, bit-exactness of the work-stealing block scheduler
// across strategies, kernel backends and temporal depths, the
// simulator/executor predicted-skew parity (equal by construction: both
// call core/BalanceModel's predictedIslandSkew), the ExecStats imbalance
// edge cases, and the advisor's step-count-derived temporal depths.
//
//===----------------------------------------------------------------------===//

#include "TestMatrix.h"

#include "core/BalanceModel.h"
#include "core/Partition.h"
#include "core/PlanVerifier.h"
#include "exec/ExecStats.h"
#include "exec/ProgramExecutor.h"
#include "fault/FaultInjector.h"
#include "mpdata/InitialConditions.h"
#include "mpdata/Kernels.h"
#include "sim/PlanAdvisor.h"
#include "sim/Simulator.h"
#include "stencil/ExtraElements.h"
#include "stencil/HaloAnalysis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

using namespace icores;

TEST(BalancePartitionTest, CostCutsTileEveryRandomDomain) {
  MpdataProgram M = buildMpdataProgram();
  MachineModel Toy = makeToyMachine();
  // A link three orders of magnitude slower than compute makes the
  // boundary-measure halo terms dominate the volume-measure flop terms:
  // the regime where a one-plane interior slab outprices the whole
  // domain and a naive bisection ceiling is infeasible.
  MachineModel SlowLink = makeToyMachine();
  SlowLink.LinkBandwidth *= 1e-3;
  TestRng R(2024);
  for (int Case = 0; Case != 40; ++Case) {
    const MachineModel &Machine = Case % 2 ? SlowLink : Toy;
    const int Parts = R.range(2, 5);
    const int Depth = 1 << R.range(0, 2); // 1, 2 or 4.
    const Box3 Target = randomTarget(R, Parts * MinIslandPlanes + 2);
    const PagePlacement Placement =
        static_cast<PagePlacement>(R.range(0, 2));
    std::vector<Box3> Slabs = partitionCostBalanced(
        M.Program, Target, Parts, /*Dim=*/0, Depth, /*NumThreads=*/2,
        Machine, Placement, /*ActiveSockets=*/Parts);

    ASSERT_EQ(Slabs.size(), static_cast<size_t>(Parts))
        << "case " << Case;
    int64_t Cursor = Target.Lo[0];
    for (int P = 0; P != Parts; ++P) {
      const Box3 &Slab = Slabs[static_cast<size_t>(P)];
      // Slabs are consecutive along the cut dimension (no gap, no
      // overlap) and full-extent along the others.
      EXPECT_EQ(Slab.Lo[0], Cursor) << "case " << Case << " part " << P;
      EXPECT_GE(Slab.extent(0), MinIslandPlanes)
          << "case " << Case << " part " << P;
      for (int D = 1; D != 3; ++D) {
        EXPECT_EQ(Slab.Lo[D], Target.Lo[D]);
        EXPECT_EQ(Slab.Hi[D], Target.Hi[D]);
      }
      Cursor = Slab.Hi[0];
    }
    EXPECT_EQ(Cursor, Target.Hi[0]) << "case " << Case;
    // countExtraElements independently asserts the exact-cover invariant
    // (it ICORES_CHECKs disjoint coverage before counting).
    ExtraElementsReport Report =
        countExtraElements(M.Program, Target, Slabs, Depth);
    EXPECT_GE(Report.extraPoints(), 0) << "case " << Case;
  }
}

TEST(BalancePartitionTest, ConeFlopsMatchExtraElementsRecount) {
  // On a program whose stages all cost 1 flop/point, partConeFlops must
  // equal the ExtraElements per-part point count exactly: both clip the
  // same per-step local cones against the same per-step global cones.
  StencilProgram P;
  ArrayId In = P.addArray("in", ArrayRole::StepInput);
  ArrayId A = P.addArray("A", ArrayRole::Intermediate);
  ArrayId Out = P.addArray("out", ArrayRole::StepOutput);
  StageDef S1;
  S1.Name = "s1";
  S1.Outputs = {A};
  S1.Inputs = {StageInput::alongDim(In, 0, -1, 1)};
  S1.FlopsPerPoint = 1;
  P.addStage(S1);
  StageDef S2;
  S2.Name = "s2";
  S2.Outputs = {Out};
  S2.Inputs = {StageInput::alongDim(A, 1, -1, 1)};
  S2.FlopsPerPoint = 1;
  P.addStage(S2);
  std::string Error;
  ASSERT_TRUE(P.validate(Error)) << Error;

  TestRng R(7);
  for (int Case = 0; Case != 20; ++Case) {
    const int Parts = R.range(2, 4);
    const int Depth = R.range(1, 3);
    const Box3 Target = randomTarget(R, Parts + 2);
    std::vector<Box3> Slabs = partition1D(Target, Parts, 0);
    std::vector<Box3> GlobalSteps = temporalStepTargets(P, Target, Depth);
    ExtraElementsReport Report =
        countExtraElements(P, Target, Slabs, Depth);
    for (int I = 0; I != Parts; ++I)
      EXPECT_EQ(partConeFlops(P, Slabs[static_cast<size_t>(I)], GlobalSteps),
                Report.PartPoints[static_cast<size_t>(I)])
          << "case " << Case << " part " << I;
  }

  // On the real MPDATA program the weights differ per stage, so the flop
  // count is bracketed by the point count times the extreme stage weights.
  MpdataProgram M = buildMpdataProgram();
  int FMin = 0, FMax = 0;
  for (unsigned S = 0; S != M.Program.numStages(); ++S) {
    int F = M.Program.stage(static_cast<StageId>(S)).FlopsPerPoint;
    FMin = S == 0 ? F : std::min(FMin, F);
    FMax = std::max(FMax, F);
  }
  const Box3 Target = Box3::fromExtents(32, 12, 8);
  std::vector<Box3> Slabs = partition1D(Target, 3, 0);
  std::vector<Box3> GlobalSteps =
      temporalStepTargets(M.Program, Target, 2);
  ExtraElementsReport Report =
      countExtraElements(M.Program, Target, Slabs, 2);
  for (size_t I = 0; I != Slabs.size(); ++I) {
    int64_t Flops = partConeFlops(M.Program, Slabs[I], GlobalSteps);
    EXPECT_GE(Flops, FMin * Report.PartPoints[I]);
    EXPECT_LE(Flops, FMax * Report.PartPoints[I]);
  }
}

TEST(BalancePartitionTest, SinglePartReturnsTheWholeTarget) {
  MpdataProgram M = buildMpdataProgram();
  MachineModel Machine = makeToyMachine();
  const Box3 Target = Box3::fromExtents(24, 10, 6);
  std::vector<Box3> Slabs = partitionCostBalanced(
      M.Program, Target, 1, 0, 2, 2, Machine, PagePlacement::FirstTouch, 1);
  ASSERT_EQ(Slabs.size(), 1u);
  EXPECT_EQ(Slabs[0], Target);
}

TEST(BalancePartitionTest, VerifierAcceptsCostBalancedPlans) {
  MpdataProgram M = buildMpdataProgram();
  for (int Sockets : {2, 4})
    for (int Depth : {1, 2, 4}) {
      MachineModel Machine = makeToyMachine();
      Machine.NumSockets = Sockets;
      PlanConfig Config;
      Config.Strat = Strategy::IslandsOfCores;
      Config.Sockets = Sockets;
      Config.TemporalDepth = Depth;
      Config.Balance = BalancePolicy::Cost;
      ExecutionPlan Plan = buildPlan(
          M.Program, Box3::fromExtents(32, 14, 8), Machine, Config);
      PlanVerification V = verifyPlan(Plan, M.Program);
      EXPECT_TRUE(V.Ok) << "sockets " << Sockets << " depth " << Depth
                        << ": " << V.FirstError;
    }
}

namespace {

constexpr int GridNI = 20;
constexpr int GridNJ = 14;
constexpr int GridNK = 8;
constexpr int TimeSteps = 4;

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

/// Runs the stealing scheduler (or, with \p Stealing off, the static
/// split) over a TestMatrix plan; the plan-building
/// conventions (toy machine, socket raising) live in makeTestPlan.
Array3D stealingResult(Strategy Strat, int Sockets,
                       PartitionVariant Variant, BalancePolicy Balance,
                       int Depth, KernelVariant Kernels,
                       FaultInjector *Chaos = nullptr,
                       bool Stealing = true) {
  MpdataProgram M = buildMpdataProgram();
  Domain Dom(GridNI, GridNJ, GridNK, mpdataHaloDepth());
  ExecutionPlan Plan =
      makeTestPlan(M.Program, Dom, Strat, Depth, /*ElideBarriers=*/false,
                   Sockets, Balance, Variant);
  ExecutorOptions Opts;
  Opts.Stealing = Stealing;
  Opts.Chaos = Chaos;
  ProgramExecutor Exec(M.Program, buildMpdataKernels(Kernels), Dom,
                       std::move(Plan), Opts);
  seedMpdata(Exec, M, 1234, 0.1, 2.0, 0.3, -0.25, 0.2);
  Exec.run(TimeSteps);
  Array3D Result(Exec.domain().allocBox());
  Result.copyRegionFrom(Exec.array(M.XIn), Exec.domain().coreBox());
  return Result;
}

} // namespace

TEST(StealingEquivalenceTest, BitExactAcrossStrategiesBackendsAndDepths) {
  const Array3D Reference = referenceResult();
  const Box3 Core = Box3::fromExtents(GridNI, GridNJ, GridNK);
  struct Case {
    Strategy Strat;
    int Sockets;
    PartitionVariant Variant;
    BalancePolicy Balance;
  };
  const Case Cases[] = {
      {Strategy::IslandsOfCores, 4, PartitionVariant::A,
       BalancePolicy::Cost},
      {Strategy::IslandsOfCores, 2, PartitionVariant::B,
       BalancePolicy::Uniform},
      {Strategy::Block31D, 3, PartitionVariant::A, BalancePolicy::Uniform},
  };
  for (const Case &C : Cases)
    for (KernelVariant Kernels :
         {KernelVariant::Reference, KernelVariant::Simd})
      for (int Depth : {1, 2, 4}) {
        Array3D Result = stealingResult(C.Strat, C.Sockets, C.Variant,
                                        C.Balance, Depth, Kernels);
        EXPECT_EQ(Result.maxAbsDiff(Reference, Core), 0.0)
            << "strategy " << strategyName(C.Strat) << " sockets "
            << C.Sockets << " kernels " << kernelVariantName(Kernels)
            << " depth " << Depth;
      }
}

TEST(StealingEquivalenceTest, BitExactUnderChaosStalls) {
  // Seeded worker stalls skew the teams hard enough that chunks actually
  // migrate between threads; the result must not move by a single bit.
  const Array3D Reference = referenceResult();
  const Box3 Core = Box3::fromExtents(GridNI, GridNJ, GridNK);
  FaultPlan Plan;
  Plan.Seed = 42;
  Plan.StallRate = 0.3;
  Plan.MaxStallSeconds = 5e-4;
  FaultInjector Chaos(Plan);

  Array3D Result = stealingResult(
      Strategy::IslandsOfCores, /*Sockets=*/4, PartitionVariant::A,
      BalancePolicy::Cost, /*Depth=*/2, KernelVariant::Reference, &Chaos);
  EXPECT_EQ(Result.maxAbsDiff(Reference, Core), 0.0);
}

TEST(StealingEquivalenceTest, BalanceCellsAreBitExactAtDepthFour) {
  // The four (balance, stealing) cells on the skewed T = 4 plan, where
  // cost cuts move the island boundaries furthest from uniform.
  const Array3D Reference = referenceResult();
  const Box3 Core = Box3::fromExtents(GridNI, GridNJ, GridNK);
  for (BalancePolicy Balance : {BalancePolicy::Uniform, BalancePolicy::Cost})
    for (bool Stealing : {false, true}) {
      Array3D Result = stealingResult(
          Strategy::IslandsOfCores, /*Sockets=*/4, PartitionVariant::A,
          Balance, /*Depth=*/4, KernelVariant::Reference, nullptr, Stealing);
      EXPECT_EQ(Result.maxAbsDiff(Reference, Core), 0.0)
          << balancePolicyName(Balance) << " stealing " << Stealing;
    }
}

namespace {

/// The islands plan on \p Sockets toy sockets over the 48x16x8 grid the
/// skew tests share.
ExecutionPlan skewPlan(const MpdataProgram &M, const MachineModel &Machine,
                       int Sockets, int Depth, BalancePolicy Balance) {
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = Sockets;
  Config.TemporalDepth = Depth;
  Config.Balance = Balance;
  return buildPlan(M.Program, Box3::fromExtents(48, 16, 8), Machine, Config);
}

} // namespace

TEST(BalanceSkewParityTest, SimulatorAndExecutorAgreeExactly) {
  MpdataProgram M = buildMpdataProgram();
  MachineModel Machine = makeToyMachine();
  Machine.NumSockets = 4;
  for (int Depth : {2, 4})
    for (BalancePolicy Balance :
         {BalancePolicy::Uniform, BalancePolicy::Cost}) {
      SimResult Sim =
          simulate(skewPlan(M, Machine, 4, Depth, Balance), M.Program,
                   Machine, TimeSteps);
      EXPECT_GE(Sim.PredictedIslandSkew, 1.0);

      Domain Dom(48, 16, 8, mpdataHaloDepth());
      ExecutorOptions Opts;
      Opts.Machine = &Machine;
      ProgramExecutor Exec(M.Program, buildMpdataKernels(), Dom,
                           skewPlan(M, Machine, 4, Depth, Balance), Opts);
      // Parity by construction: both sides called predictedIslandSkew()
      // on the same plan, so the values are identical, not merely close.
      EXPECT_EQ(Exec.stats().PredictedIslandSkew, Sim.PredictedIslandSkew)
          << balancePolicyName(Balance) << " T=" << Depth;
      EXPECT_EQ(Exec.stats().Balance, balancePolicyName(Balance));
    }
}

TEST(BalanceSkewParityTest, CostCutsPredictLessSkewThanUniform) {
  MpdataProgram M = buildMpdataProgram();
  MachineModel Machine = makeToyMachine();
  Machine.NumSockets = 4;
  for (int Depth : {2, 4}) {
    double Skew[2];
    for (BalancePolicy Balance :
         {BalancePolicy::Uniform, BalancePolicy::Cost})
      Skew[Balance == BalancePolicy::Cost] = predictedIslandSkew(
          skewPlan(M, Machine, 4, Depth, Balance), M.Program, Machine);
    EXPECT_GE(Skew[0], 1.0) << "T=" << Depth;
    EXPECT_LT(Skew[1], Skew[0]) << "T=" << Depth;
  }
}

TEST(BalanceSkewParityTest, SingleIslandSkewIsExactlyOne) {
  // Nothing to balance: the simulator's prediction, the executor's copy
  // and the measured skew of a profiled cost + stealing run all read 1.
  MpdataProgram M = buildMpdataProgram();
  MachineModel Machine = makeToyMachine();
  Machine.NumSockets = 1;
  EXPECT_EQ(simulate(skewPlan(M, Machine, 1, 1, BalancePolicy::Cost),
                     M.Program, Machine, TimeSteps)
                .PredictedIslandSkew,
            1.0);
  Domain Dom(48, 16, 8, mpdataHaloDepth());
  ExecutorOptions Opts;
  Opts.Machine = &Machine;
  Opts.Stealing = true;
  ProgramExecutor Exec(M.Program, buildMpdataKernels(), Dom,
                       skewPlan(M, Machine, 1, 1, BalancePolicy::Cost), Opts);
  Exec.enableProfiling(true);
  seedMpdata(Exec, M, 321, 0.1, 2.0, 0.3, -0.25, 0.2);
  Exec.run(2);
  EXPECT_EQ(Exec.stats().PredictedIslandSkew, 1.0);
  EXPECT_EQ(Exec.stats().measuredIslandSkew(), 1.0);
}

TEST(BalanceStatsTest, ImbalanceEdgeCasesPinToOne) {
  // A single-thread team cannot be unbalanced.
  IslandStat Single;
  Single.NumThreads = 1;
  Single.Threads.resize(1);
  Single.Threads[0].KernelSeconds = 3.5;
  EXPECT_EQ(Single.imbalance(), 1.0);
  EXPECT_EQ(Single.imbalanceAtStep(0), 1.0);

  // Zero recorded kernel time (profiling off, or an island that never
  // ran) reads as balanced, never "better than perfect".
  IslandStat Idle;
  Idle.NumThreads = 2;
  Idle.Threads.resize(2);
  EXPECT_EQ(Idle.imbalance(), 1.0);
  EXPECT_EQ(Idle.imbalanceAtStep(0), 1.0);

  // The per-step view slices StepKernelSeconds; a step index outside the
  // recorded depth reads as balanced.
  IslandStat Skewed;
  Skewed.NumThreads = 2;
  Skewed.Threads.resize(2);
  Skewed.Threads[0].KernelSeconds = 3.0;
  Skewed.Threads[1].KernelSeconds = 1.0;
  Skewed.Threads[0].StepKernelSeconds = {3.0, 1.0};
  Skewed.Threads[1].StepKernelSeconds = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(Skewed.imbalance(), 1.5);
  EXPECT_DOUBLE_EQ(Skewed.imbalanceAtStep(0), 1.5);
  EXPECT_DOUBLE_EQ(Skewed.imbalanceAtStep(1), 1.0);
  EXPECT_EQ(Skewed.imbalanceAtStep(7), 1.0);
  EXPECT_EQ(Skewed.imbalanceAtStep(-1), 1.0);
}

TEST(BalanceStatsTest, StealCountersSurviveProfiledRuns) {
  MpdataProgram M = buildMpdataProgram();
  MachineModel Machine = makeToyMachine();
  Machine.NumSockets = 2;
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = 2;
  Domain Dom(GridNI, GridNJ, GridNK, mpdataHaloDepth());
  ExecutorOptions Opts;
  Opts.Stealing = true;
  ExecutionPlan Plan =
      buildPlan(M.Program, Dom.coreBox(), Machine, Config);
  ProgramExecutor Exec(M.Program, buildMpdataKernels(), Dom,
                       std::move(Plan), Opts);
  Exec.enableProfiling(true);
  seedMpdata(Exec, M, 321, 0.1, 2.0, 0.3, -0.25, 0.2);
  Exec.run(2);
  const ExecStats &Stats = Exec.stats();
  EXPECT_TRUE(Stats.Stealing);
  EXPECT_GE(Stats.steals(), 0);
  EXPECT_GE(Stats.stealFailures(), 0);
  EXPECT_GE(Stats.idleSeconds(), 0.0);
  EXPECT_GE(Stats.measuredIslandSkew(), 1.0);
  // The structural fields survive a measurement reset; the counters drop.
  Exec.resetStats();
  EXPECT_TRUE(Exec.stats().Stealing);
  EXPECT_EQ(Exec.stats().steals(), 0);
  EXPECT_EQ(Exec.stats().idleSeconds(), 0.0);
}

TEST(AdvisorBalanceTest, TemporalDepthsDeriveFromTheStepCount) {
  // --steps=6 must price the divisor depths 2 and 3 (not the old
  // hard-coded 4, which does not divide 6), and multi-island candidates
  // must be priced under both balance policies.
  MpdataProgram M = buildMpdataProgram();
  MachineModel Machine = makeToyMachine();
  Machine.NumSockets = 2;
  AdvisorReport Report = adviseBestPlan(
      M.Program, Box3::fromExtents(64, 32, 16), Machine, 2, /*TimeSteps=*/6);
  bool SawDepth2 = false, SawDepth3 = false, SawDepth4 = false;
  bool SawCost = false;
  for (const AdvisorCandidate &C : Report.Candidates) {
    SawDepth2 |= C.Label.find("temporal depth 2") != std::string::npos;
    SawDepth3 |= C.Label.find("temporal depth 3") != std::string::npos;
    SawDepth4 |= C.Label.find("temporal depth 4") != std::string::npos;
    SawCost |= C.Label.find("cost-balanced") != std::string::npos;
    EXPECT_EQ(6 % std::max(1, C.Config.TemporalDepth), 0)
        << "non-divisor depth priced: " << C.Label;
  }
  EXPECT_TRUE(SawDepth2);
  EXPECT_TRUE(SawDepth3);
  EXPECT_FALSE(SawDepth4);
  EXPECT_TRUE(SawCost);
}
