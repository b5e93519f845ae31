//===- tests/generic_runtime_test.cpp - Generic runtime layer tests -------===//
//
// Direct tests of the application-agnostic layer: KernelTable,
// SerialStepper and ProgramExecutor — including running MPDATA through
// the generic path and checking it against a direct stage loop.
//
//===----------------------------------------------------------------------===//

#include "core/PlanBuilder.h"
#include "exec/ProgramExecutor.h"
#include "machine/MachineModel.h"
#include "mpdata/InitialConditions.h"
#include "mpdata/Kernels.h"
#include "stencil/FieldStore.h"
#include "stencil/HaloAnalysis.h"
#include "stencil/SerialStepper.h"

#include <gtest/gtest.h>

using namespace icores;

TEST(KernelTableTest, CoverageTracking) {
  MpdataProgram M = buildMpdataProgram();
  KernelTable Empty(M.Program.numStages());
  EXPECT_FALSE(Empty.coversProgram(M.Program));
  EXPECT_FALSE(Empty.isSet(0));

  KernelTable Full = buildMpdataKernels();
  EXPECT_TRUE(Full.coversProgram(M.Program));
  for (unsigned S = 0; S != M.Program.numStages(); ++S)
    EXPECT_TRUE(Full.isSet(static_cast<StageId>(S)));

  KernelTable WrongSize(3);
  EXPECT_FALSE(WrongSize.coversProgram(M.Program));
}

TEST(KernelTableTest, EmptyRegionSkipsTheKernel) {
  KernelTable Table(1);
  int Calls = 0;
  Table.set(0, [&Calls](FieldStore &, const Box3 &) { ++Calls; });
  FieldStore Fields(1);
  Table.run(Fields, 0, Box3());
  EXPECT_EQ(Calls, 0);
  Table.run(Fields, 0, Box3::fromExtents(1, 1, 1));
  EXPECT_EQ(Calls, 1);
}

namespace {

/// The test workload's initial tracer blob.
GaussianBlob testBlob(const Domain &Dom) {
  GaussianBlob Blob;
  Blob.CenterI = Dom.ni() / 3.0;
  Blob.CenterJ = Dom.nj() / 2.0;
  Blob.CenterK = Dom.nk() / 2.0;
  Blob.Sigma = 2.5;
  return Blob;
}

/// Initializes an MPDATA workload through the generic array(ArrayId) API.
template <typename Runner>
void initMpdata(Runner &R, const MpdataProgram &M, const Domain &Dom) {
  fillGaussian(R.array(M.XIn), Dom, testBlob(Dom));
  R.array(M.U1).fill(0.25);
  R.array(M.U2).fill(-0.2);
  R.array(M.U3).fill(0.1);
  R.array(M.H).fill(1.0);
  R.prepareInputs();
}

/// The generic runners' independent oracle: MPDATA's stages called
/// directly through runMpdataStage over their global cone regions, with
/// no KernelTable or SerialStepper involved.
Array3D mpdataOracle(const Domain &Dom, int Steps) {
  MpdataProgram M = buildMpdataProgram();
  RegionRequirements Req = computeRequirements(M.Program, Dom.coreBox());
  FieldStore Fields(M.Program.numArrays());
  for (unsigned A = 0; A != M.Program.numArrays(); ++A)
    Fields.allocateOwned(static_cast<ArrayId>(A), Dom.allocBox());
  fillGaussian(Fields.get(M.XIn), Dom, testBlob(Dom));
  setConstantVelocity(Fields.get(M.U1), Fields.get(M.U2), Fields.get(M.U3),
                      Dom, 0.25, -0.2, 0.1);
  Fields.get(M.H).fill(1.0);
  for (ArrayId In : {M.U1, M.U2, M.U3, M.H})
    Dom.fillHalo(Fields.get(In));
  for (int Step = 0; Step != Steps; ++Step) {
    Dom.fillHalo(Fields.get(M.XIn));
    for (unsigned S = 0; S != M.Program.numStages(); ++S)
      runMpdataStage(M, Fields, static_cast<StageId>(S), Req.StageRegion[S]);
    std::swap(Fields.get(M.XIn), Fields.get(M.XOut));
  }
  Array3D Out(Dom.allocBox());
  Out.copyRegionFrom(Fields.get(M.XIn), Dom.coreBox());
  return Out;
}

} // namespace

TEST(SerialStepperTest, MpdataThroughGenericPathMatchesDirectStageLoop) {
  MpdataProgram M = buildMpdataProgram();
  Domain Dom(18, 12, 8, mpdataHaloDepth());
  SerialStepper Stepper(M.Program, buildMpdataKernels(), Dom);
  initMpdata(Stepper, M, Dom);
  Stepper.run(4);
  Array3D Oracle = mpdataOracle(Dom, 4);
  EXPECT_EQ(Stepper.array(M.XIn).maxAbsDiff(Oracle, Dom.coreBox()), 0.0);
}

TEST(SerialStepperTest, RejectsShallowHalo) {
  MpdataProgram M = buildMpdataProgram();
  Domain Shallow(16, 16, 16, 1); // MPDATA needs 3.
  EXPECT_DEATH(SerialStepper(M.Program, buildMpdataKernels(), Shallow),
               "halo");
}

TEST(SerialStepperTest, RejectsIncompleteKernelTable) {
  MpdataProgram M = buildMpdataProgram();
  Domain Dom(16, 12, 8, mpdataHaloDepth());
  KernelTable Incomplete(M.Program.numStages()); // Nothing registered.
  EXPECT_DEATH(SerialStepper(M.Program, std::move(Incomplete), Dom),
               "kernel table");
}

TEST(SerialStepperTest, IntermediatesAreNotExposed) {
  MpdataProgram M = buildMpdataProgram();
  Domain Dom(16, 12, 8, mpdataHaloDepth());
  SerialStepper Stepper(M.Program, buildMpdataKernels(), Dom);
  EXPECT_DEATH(Stepper.array(M.Actual), "not a step input or output");
}

TEST(ProgramExecutorTest, MpdataThroughGenericPathMatchesDirectStageLoop) {
  MpdataProgram M = buildMpdataProgram();
  Domain Dom(18, 12, 8, mpdataHaloDepth());
  MachineModel Machine = makeToyMachine();
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = 2;
  ExecutionPlan Plan = buildPlan(M.Program, Dom.coreBox(), Machine, Config);
  ProgramExecutor Exec(M.Program, buildMpdataKernels(KernelVariant::Optimized),
                       Dom, std::move(Plan));
  initMpdata(Exec, M, Dom);
  Exec.run(4);
  Array3D Oracle = mpdataOracle(Dom, 4);
  EXPECT_EQ(Exec.array(M.XIn).maxAbsDiff(Oracle, Dom.coreBox()), 0.0);
}

TEST(ProgramExecutorTest, RejectsMismatchedPlanTarget) {
  MpdataProgram M = buildMpdataProgram();
  Domain Dom(16, 12, 8, mpdataHaloDepth());
  MachineModel Machine = makeToyMachine();
  PlanConfig Config;
  Config.Strat = Strategy::Original;
  Config.Sockets = 1;
  // Plan for a different grid than the domain.
  ExecutionPlan Plan = buildPlan(M.Program, Box3::fromExtents(8, 8, 8),
                                 Machine, Config);
  EXPECT_DEATH(ProgramExecutor(M.Program, buildMpdataKernels(), Dom,
                               std::move(Plan)),
               "plan target");
}

TEST(ProgramExecutorTest, FeedbackLeavesStateInTheTargetArray) {
  // After run(), the newest state must be readable through the feedback
  // target (xIn), and another run() must continue from it.
  MpdataProgram M = buildMpdataProgram();
  Domain Dom(16, 12, 8, mpdataHaloDepth());
  MachineModel Machine = makeToyMachine();
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = 2;

  auto make = [&]() {
    ExecutionPlan Plan =
        buildPlan(M.Program, Dom.coreBox(), Machine, Config);
    auto Exec = std::make_unique<ProgramExecutor>(
        M.Program, buildMpdataKernels(), Dom, std::move(Plan));
    initMpdata(*Exec, M, Dom);
    return Exec;
  };
  auto Split = make();
  Split->run(2);
  Split->run(3);
  auto Whole = make();
  Whole->run(5);
  EXPECT_EQ(Split->array(M.XIn).maxAbsDiff(Whole->array(M.XIn),
                                           Dom.coreBox()),
            0.0);
}
