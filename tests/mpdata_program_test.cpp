//===- tests/mpdata_program_test.cpp - MPDATA IR structure tests ----------===//

#include "mpdata/MpdataProgram.h"

#include <gtest/gtest.h>

using namespace icores;

TEST(MpdataProgramTest, HasSeventeenStages) {
  MpdataProgram M = buildMpdataProgram();
  EXPECT_EQ(M.Program.numStages(), 17u);
}

TEST(MpdataProgramTest, Validates) {
  MpdataProgram M = buildMpdataProgram();
  std::string Error;
  EXPECT_TRUE(M.Program.validate(Error)) << Error;
}

TEST(MpdataProgramTest, FiveInputsOneOutput) {
  // The paper (Sect. 3.1): a step loads five 3D input arrays and saves one
  // output array.
  MpdataProgram M = buildMpdataProgram();
  EXPECT_EQ(M.Program.stepInputs().size(), 5u);
  EXPECT_EQ(M.Program.stepOutputs().size(), 1u);
  EXPECT_EQ(M.Program.stepOutputs()[0], M.XOut);
  // Only the transported field evolves; velocities and density are static.
  EXPECT_EQ(M.Program.staticInputs(),
            (std::vector<ArrayId>{M.U1, M.U2, M.U3, M.H}));
  EXPECT_FALSE(M.Program.isStaticInput(M.XIn));
}

TEST(MpdataProgramTest, StageOrder) {
  MpdataProgram M = buildMpdataProgram();
  EXPECT_EQ(M.SFlux1, 0);
  EXPECT_EQ(M.SUpwind, 3);
  EXPECT_EQ(M.SMinMax, 4);
  EXPECT_EQ(M.SVel1, 5);
  EXPECT_EQ(M.SCp, 8);
  EXPECT_EQ(M.SLim1, 10);
  EXPECT_EQ(M.SGFlux1, 13);
  EXPECT_EQ(M.SOut, 16);
}

TEST(MpdataProgramTest, MinMaxIsTheFusedMultiOutputStage) {
  MpdataProgram M = buildMpdataProgram();
  const StageDef &S = M.Program.stage(M.SMinMax);
  ASSERT_EQ(S.Outputs.size(), 2u);
  EXPECT_EQ(M.Program.producerOf(M.Mx), M.SMinMax);
  EXPECT_EQ(M.Program.producerOf(M.Mn), M.SMinMax);
}

TEST(MpdataProgramTest, HeterogeneousPatterns) {
  // "Heterogeneous stencils": the stages genuinely differ in reach.
  MpdataProgram M = buildMpdataProgram();
  const StageDef &Flux = M.Program.stage(M.SFlux1);
  const StageDef &Vel = M.Program.stage(M.SVel1);
  // flux1 reads xIn at {-1,0} along i only.
  EXPECT_EQ(Flux.Inputs[0].MinOff, (std::array<int, 3>{-1, 0, 0}));
  EXPECT_EQ(Flux.Inputs[0].MaxOff, (std::array<int, 3>{0, 0, 0}));
  // pseudoVel1 reads actual across all three dimensions.
  EXPECT_EQ(Vel.Inputs[0].MinOff, (std::array<int, 3>{-1, -1, -1}));
  EXPECT_EQ(Vel.Inputs[0].MaxOff, (std::array<int, 3>{0, 1, 1}));
}

TEST(MpdataProgramTest, FlopWeightsArePositiveAndSubstantial) {
  MpdataProgram M = buildMpdataProgram();
  for (unsigned S = 0; S != M.Program.numStages(); ++S)
    EXPECT_GT(M.Program.stage(static_cast<StageId>(S)).FlopsPerPoint, 0);
  // MPDATA with the non-oscillatory option is flop-heavy: a couple of
  // hundred flops per point per step.
  EXPECT_GE(M.Program.totalFlopsPerPoint(), 150);
  EXPECT_LE(M.Program.totalFlopsPerPoint(), 400);
}

TEST(MpdataProgramTest, DimensionSymmetry) {
  // The three flux stages are permutations of each other.
  MpdataProgram M = buildMpdataProgram();
  for (int D = 0; D != 3; ++D) {
    StageId Id = D == 0 ? M.SFlux1 : (D == 1 ? M.SFlux2 : M.SFlux3);
    const StageDef &S = M.Program.stage(Id);
    EXPECT_EQ(S.Inputs[0].MinOff[D], -1);
    EXPECT_EQ(S.Inputs[0].MaxOff[D], 0);
    EXPECT_EQ(S.FlopsPerPoint, M.Program.stage(M.SFlux1).FlopsPerPoint);
  }
}
