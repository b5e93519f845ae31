//===- tests/advdiff_test.cpp - Second-application integration tests ------===//
//
// Exercises the whole library stack — IR, halo analysis, planners,
// verifier, generic serial stepper and generic threaded executor — on a
// program that is NOT MPDATA: the advection-diffusion RK2 app, consumed
// through its WorkloadRegistry registration. This is the "bring your own
// heterogeneous stencils" guarantee; the physics-specific assertions
// (conservation, diffusion contraction, fixed points) that need bespoke
// initial conditions keep their own SerialStepper setups.
//
//===----------------------------------------------------------------------===//

#include "TestMatrix.h"

#include "apps/AdvectionDiffusion.h"
#include "apps/Workloads.h"
#include "core/PlanVerifier.h"
#include "sim/Simulator.h"
#include "stencil/ExtraElements.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace icores;

namespace {

constexpr int NI = 20, NJ = 14, NK = 8;

const WorkloadSpec &advdiff() { return *builtinWorkloads().find("advdiff"); }

Domain makeDomain() { return workloadDomain(advdiff(), NI, NJ, NK); }

} // namespace

TEST(AdvDiffTest, ProgramShape) {
  const WorkloadSpec &Spec = advdiff();
  std::string Error;
  StencilProgram Program = Spec.Program;
  EXPECT_TRUE(Program.validate(Error)) << Error;
  EXPECT_EQ(Program.numStages(), 8u);
  EXPECT_EQ(Program.stepInputs().size(), 5u);
  EXPECT_EQ(Program.stepOutputs().size(), 1u);
  ASSERT_EQ(Program.feedbacks().size(), 1u);
  AdvDiffProgram A = buildAdvDiffProgram();
  EXPECT_EQ(Program.feedbacks()[0].Source, A.PhiOut);
  EXPECT_EQ(Program.feedbacks()[0].Target, A.Phi);
  // Everything but the advected scalar is read-only across steps.
  EXPECT_EQ(Program.staticInputs(),
            (std::vector<ArrayId>{A.U1, A.U2, A.U3, A.Kappa}));
  EXPECT_FALSE(Program.isStaticInput(A.Phi));
  EXPECT_FALSE(Program.isStaticInput(A.PhiOut));
}

TEST(AdvDiffTest, HaloDepthIsTwo) {
  EXPECT_EQ(advDiffHaloDepth(), 2);
  EXPECT_EQ(advdiff().HaloDepth, 2);
}

TEST(AdvDiffTest, KernelsCoverProgram) {
  const WorkloadSpec &Spec = advdiff();
  EXPECT_TRUE(Spec.Kernels(KernelVariant::Reference)
                  .coversProgram(Spec.Program));
}

TEST(AdvDiffTest, ConservesScalarUnderPeriodicBoundaries) {
  const WorkloadSpec &Spec = advdiff();
  AdvDiffProgram A = buildAdvDiffProgram();
  Domain Dom = makeDomain();
  SerialStepper Stepper(Spec.Program, Spec.Kernels(KernelVariant::Reference),
                        Dom);
  initWorkload(Spec, Stepper, /*Seed=*/4242);
  double Before = Stepper.array(A.Phi).sumRegion(Dom.coreBox());
  Stepper.run(10);
  double After = Stepper.array(A.Phi).sumRegion(Dom.coreBox());
  EXPECT_NEAR(After, Before, 1e-10 * std::fabs(Before));
}

TEST(AdvDiffTest, DiffusionContractsTheRange) {
  // Pure diffusion (no advection): max decreases, min increases. Bespoke
  // initial conditions (zero velocity), so not the registered init.
  AdvDiffProgram A = buildAdvDiffProgram();
  Domain Dom = makeDomain();
  SerialStepper Stepper(A.Program, buildAdvDiffKernels(), Dom);
  SplitMix64 Rng(7);
  for (int I = 0; I != NI; ++I)
    for (int J = 0; J != NJ; ++J)
      for (int K = 0; K != NK; ++K)
        Stepper.array(A.Phi).at(I, J, K) = Rng.nextInRange(0.0, 1.0);
  Stepper.array(A.Kappa).fill(0.1);
  Stepper.prepareInputs();

  auto rangeOf = [&](const Array3D &Arr) {
    double Lo = 1e300, Hi = -1e300;
    for (int I = 0; I != NI; ++I)
      for (int J = 0; J != NJ; ++J)
        for (int K = 0; K != NK; ++K) {
          Lo = std::min(Lo, Arr.at(I, J, K));
          Hi = std::max(Hi, Arr.at(I, J, K));
        }
    return std::pair<double, double>{Lo, Hi};
  };
  auto [Lo0, Hi0] = rangeOf(Stepper.array(A.Phi));
  Stepper.run(20);
  auto [Lo1, Hi1] = rangeOf(Stepper.array(A.Phi));
  EXPECT_GT(Lo1, Lo0);
  EXPECT_LT(Hi1, Hi0);
}

TEST(AdvDiffTest, ConstantFieldIsAFixedPoint) {
  AdvDiffProgram A = buildAdvDiffProgram();
  Domain Dom = makeDomain();
  SerialStepper Stepper(A.Program, buildAdvDiffKernels(), Dom);
  Stepper.array(A.Phi).fill(2.5);
  Stepper.array(A.Kappa).fill(0.05);
  Stepper.array(A.U1).fill(0.3);
  Stepper.array(A.U2).fill(0.1);
  Stepper.array(A.U3).fill(-0.2);
  Stepper.prepareInputs();
  Stepper.run(5);
  Box3 Core = Dom.coreBox();
  for (int I = Core.Lo[0]; I != Core.Hi[0]; ++I)
    for (int J = Core.Lo[1]; J != Core.Hi[1]; ++J)
      for (int K = Core.Lo[2]; K != Core.Hi[2]; ++K)
        EXPECT_NEAR(Stepper.array(A.Phi).at(I, J, K), 2.5, 1e-13);
}

TEST(AdvDiffTest, AllStrategiesMatchTheSerialOracle) {
  const WorkloadSpec &Spec = advdiff();
  Domain Dom = makeDomain();
  auto Oracle = serialOracle(Spec, Dom, 4, /*Seed=*/4242);
  for (Strategy Strat : {Strategy::Original, Strategy::Block31D,
                         Strategy::IslandsOfCores}) {
    ExecutionPlan Plan = makeTestPlan(
        Spec.Program, Dom, Strat, /*TemporalDepth=*/1,
        /*ElideBarriers=*/false,
        /*Sockets=*/Strat == Strategy::IslandsOfCores ? 3 : 2);
    PlanVerification V = verifyPlan(Plan, Spec.Program);
    ASSERT_TRUE(V.Ok) << V.FirstError;

    auto Exec = makeWorkloadExecutor(Spec, Dom, std::move(Plan),
                                     KernelVariant::Reference, {},
                                     /*Seed=*/4242);
    Exec->run(4);
    EXPECT_EQ(
        maxNewestStateDiff(Spec.Program, *Exec, *Oracle, Dom.coreBox()),
        0.0)
        << strategyName(Strat);
  }
}

TEST(AdvDiffTest, ExtraElementsScaleWithTheShallowerCone) {
  // The advection-diffusion cone (depth 2) is shallower than MPDATA's
  // (depth 3): its per-boundary redundancy must be smaller on the same
  // grid.
  const WorkloadSpec &Spec = advdiff();
  Box3 Target = Box3::fromExtents(128, 64, 32);
  ExtraElementsReport R =
      countExtraElements(Spec.Program, Target, partition1D(Target, 4, 0));
  EXPECT_GT(R.extraFraction(), 0.0);
  EXPECT_LT(R.extraFraction(), 0.05);
}

TEST(AdvDiffTest, SimulatorPricesThisProgramToo) {
  const WorkloadSpec &Spec = advdiff();
  MachineModel Uv = makeSgiUv2000();
  Box3 Grid = Box3::fromExtents(1024, 512, 64);
  PlanConfig Config;
  Config.Sockets = 14;
  Config.Strat = Strategy::IslandsOfCores;
  ExecutionPlan Islands = buildPlan(Spec.Program, Grid, Uv, Config);
  Config.Strat = Strategy::Original;
  ExecutionPlan Original = buildPlan(Spec.Program, Grid, Uv, Config);
  SimResult RI = simulate(Islands, Spec.Program, Uv, 50);
  SimResult RO = simulate(Original, Spec.Program, Uv, 50);
  // Lower arithmetic intensity than MPDATA, but islands still win.
  EXPECT_LT(RI.TotalSeconds, RO.TotalSeconds);
  EXPECT_GT(RI.FlopsPerStep, 0);
}
