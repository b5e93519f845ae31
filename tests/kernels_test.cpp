//===- tests/kernels_test.cpp - MPDATA kernel unit/property tests ---------===//

#include "stencil/FieldStore.h"
#include "mpdata/Kernels.h"
#include "mpdata/MpdataProgram.h"
#include "stencil/HaloAnalysis.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace icores;

namespace {

/// Fixture with a small field store where every array covers a generous
/// box around a small target region.
struct KernelFixture : public ::testing::Test {
  MpdataProgram M = buildMpdataProgram();
  Box3 Target = Box3::fromExtents(6, 6, 6);
  Box3 Alloc = Target.grownAll(4);
  FieldStore Fields{M.Program.numArrays()};

  void SetUp() override {
    for (unsigned A = 0; A != M.Program.numArrays(); ++A)
      Fields.allocateOwned(static_cast<ArrayId>(A), Alloc);
  }

  void fillAll(ArrayId Id, double Value) { Fields.get(Id).fill(Value); }

  void fillRandom(ArrayId Id, uint64_t Seed, double Lo, double Hi) {
    Array3D &A = Fields.get(Id);
    SplitMix64 Rng(Seed);
    for (int I = Alloc.Lo[0]; I != Alloc.Hi[0]; ++I)
      for (int J = Alloc.Lo[1]; J != Alloc.Hi[1]; ++J)
        for (int K = Alloc.Lo[2]; K != Alloc.Hi[2]; ++K)
          A.at(I, J, K) = Rng.nextInRange(Lo, Hi);
  }
};

} // namespace

TEST_F(KernelFixture, UpwindFluxPositiveVelocityTakesLeftState) {
  fillAll(M.U1, 0.5);
  Array3D &X = Fields.get(M.XIn);
  X.fill(1.0);
  X.at(1, 2, 2) = 4.0; // Left neighbour of (2,2,2).
  runMpdataStage(M, Fields, M.SFlux1, Target);
  // f1(2) = 0.5 * x(1) = 2.0 (donor cell: upwind side).
  EXPECT_DOUBLE_EQ(Fields.get(M.F1).at(2, 2, 2), 0.5 * 4.0);
  // Elsewhere: 0.5 * 1.0.
  EXPECT_DOUBLE_EQ(Fields.get(M.F1).at(4, 4, 4), 0.5);
}

TEST_F(KernelFixture, UpwindFluxNegativeVelocityTakesRightState) {
  fillAll(M.U1, -0.5);
  Array3D &X = Fields.get(M.XIn);
  X.fill(1.0);
  X.at(2, 2, 2) = 4.0;
  runMpdataStage(M, Fields, M.SFlux1, Target);
  // f1(2) = -0.5 * x(2) = -2.0.
  EXPECT_DOUBLE_EQ(Fields.get(M.F1).at(2, 2, 2), -0.5 * 4.0);
}

TEST_F(KernelFixture, ZeroVelocityGivesZeroFlux) {
  fillAll(M.U2, 0.0);
  fillRandom(M.XIn, 1, 0.0, 2.0);
  runMpdataStage(M, Fields, M.SFlux2, Target);
  for (int I = 0; I != 6; ++I)
    for (int J = 0; J != 6; ++J)
      for (int K = 0; K != 6; ++K)
        EXPECT_DOUBLE_EQ(Fields.get(M.F2).at(I, J, K), 0.0);
}

TEST_F(KernelFixture, UpwindUpdateIsFluxDifference) {
  fillRandom(M.F1, 2, -1.0, 1.0);
  fillRandom(M.F2, 3, -1.0, 1.0);
  fillRandom(M.F3, 4, -1.0, 1.0);
  fillAll(M.XIn, 2.0);
  fillAll(M.H, 2.0); // Density divides the divergence.
  runMpdataStage(M, Fields, M.SUpwind, Target);
  const Array3D &F1 = Fields.get(M.F1);
  const Array3D &F2 = Fields.get(M.F2);
  const Array3D &F3 = Fields.get(M.F3);
  double Div = (F1.at(3, 2, 2) - F1.at(2, 2, 2)) +
               (F2.at(2, 3, 2) - F2.at(2, 2, 2)) +
               (F3.at(2, 2, 3) - F3.at(2, 2, 2));
  EXPECT_DOUBLE_EQ(Fields.get(M.Actual).at(2, 2, 2), 2.0 - Div / 2.0);
}

TEST_F(KernelFixture, MinMaxBracketsNeighborhood) {
  fillRandom(M.XIn, 5, 0.0, 1.0);
  fillRandom(M.Actual, 6, 0.0, 1.0);
  runMpdataStage(M, Fields, M.SMinMax, Target);
  const Array3D &Mx = Fields.get(M.Mx);
  const Array3D &Mn = Fields.get(M.Mn);
  const Array3D &X = Fields.get(M.XIn);
  const Array3D &Act = Fields.get(M.Actual);
  for (int I = 0; I != 6; ++I)
    for (int J = 0; J != 6; ++J)
      for (int K = 0; K != 6; ++K) {
        EXPECT_LE(Mn.at(I, J, K), Mx.at(I, J, K));
        EXPECT_LE(Mn.at(I, J, K), X.at(I, J, K));
        EXPECT_LE(Mn.at(I, J, K), Act.at(I, J, K));
        EXPECT_GE(Mx.at(I, J, K), X.at(I, J, K));
        EXPECT_GE(Mx.at(I, J, K), Act.at(I, J, K));
      }
}

TEST_F(KernelFixture, PseudoVelocityVanishesForUniformField) {
  // A constant scalar field has no gradients: the antidiffusive velocity
  // must be exactly zero everywhere.
  fillAll(M.Actual, 3.0);
  fillRandom(M.U1, 7, -0.4, 0.4);
  fillRandom(M.U2, 8, -0.4, 0.4);
  fillRandom(M.U3, 9, -0.4, 0.4);
  for (StageId S : {M.SVel1, M.SVel2, M.SVel3})
    runMpdataStage(M, Fields, S, Target);
  for (ArrayId V : {M.V1, M.V2, M.V3})
    for (int I = 0; I != 6; ++I)
      for (int J = 0; J != 6; ++J)
        for (int K = 0; K != 6; ++K)
          EXPECT_DOUBLE_EQ(Fields.get(V).at(I, J, K), 0.0);
}

TEST_F(KernelFixture, PseudoVelocityVanishesForUnitCourant) {
  // |C|(1-|C|) = 0 at C = 1 and the cross terms vanish without transverse
  // velocity: the corrective step degenerates, making C=1 advection exact.
  fillRandom(M.Actual, 10, 0.5, 1.5);
  fillAll(M.U1, 1.0);
  fillAll(M.U2, 0.0);
  fillAll(M.U3, 0.0);
  runMpdataStage(M, Fields, M.SVel1, Target);
  for (int I = 0; I != 6; ++I)
    for (int J = 0; J != 6; ++J)
      for (int K = 0; K != 6; ++K)
        EXPECT_DOUBLE_EQ(Fields.get(M.V1).at(I, J, K), 0.0);
}

TEST_F(KernelFixture, LimitedVelocityNeverExceedsUnlimited) {
  fillRandom(M.Actual, 11, 0.1, 1.0);
  fillRandom(M.V1, 12, -0.3, 0.3);
  fillRandom(M.Cp, 13, 0.0, 2.0);
  fillRandom(M.Cn, 14, 0.0, 2.0);
  runMpdataStage(M, Fields, M.SLim1, Target);
  for (int I = 0; I != 6; ++I)
    for (int J = 0; J != 6; ++J)
      for (int K = 0; K != 6; ++K) {
        double V = Fields.get(M.V1).at(I, J, K);
        double Vm = Fields.get(M.V1m).at(I, J, K);
        EXPECT_LE(std::fabs(Vm), std::fabs(V) + 1e-15);
        // Limiting never flips the transport direction.
        EXPECT_GE(Vm * V, -1e-30);
      }
}

TEST_F(KernelFixture, EmptyRegionIsANoOp) {
  fillAll(M.F1, 42.0);
  runMpdataStage(M, Fields, M.SFlux1, Box3());
  EXPECT_DOUBLE_EQ(Fields.get(M.F1).at(0, 0, 0), 42.0);
}

namespace {

/// Property test: every kernel's reads stay inside the window declared in
/// the IR, for both kernel variants. All arrays are poisoned with NaN;
/// only the declared read regions get finite values. Any out-of-window
/// read propagates NaN into the output.
///
/// NaN poisoning is a fast smoke test but NOT a complete access check:
/// min/max chains and sign-selected donor-cell branches can mask a NaN,
/// and it cannot see over-declared windows or writes outside the region.
/// The authoritative check is the perturbation-probing audit in
/// stencil/AccessAudit.h (exercised in lint_test.cpp and by the
/// `mpdata_cli lint` mode), which this test complements, not replaces.
class StageAccessPattern
    : public ::testing::TestWithParam<std::tuple<int, KernelVariant>> {};

} // namespace

TEST_P(StageAccessPattern, KernelReadsMatchDeclaredWindows) {
  MpdataProgram M = buildMpdataProgram();
  StageId Stage = std::get<0>(GetParam());
  KernelVariant Variant = std::get<1>(GetParam());
  Box3 Target = Box3::fromExtents(5, 5, 5);
  Box3 Alloc = Target.grownAll(4);

  FieldStore Fields(M.Program.numArrays());
  double NaN = std::nan("");
  for (unsigned A = 0; A != M.Program.numArrays(); ++A) {
    Fields.allocateOwned(static_cast<ArrayId>(A), Alloc);
    Fields.get(static_cast<ArrayId>(A)).fill(NaN);
  }

  // Give finite values exactly on the declared read regions.
  SplitMix64 Rng(99);
  for (const StageInput &In : M.Program.stage(Stage).Inputs) {
    Box3 Read = In.readRegion(Target);
    Array3D &A = Fields.get(In.Array);
    for (int I = Read.Lo[0]; I != Read.Hi[0]; ++I)
      for (int J = Read.Lo[1]; J != Read.Hi[1]; ++J)
        for (int K = Read.Lo[2]; K != Read.Hi[2]; ++K)
          A.at(I, J, K) = Rng.nextInRange(0.1, 1.0);
  }

  runMpdataStage(M, Fields, Stage, Target, Variant);

  for (ArrayId Out : M.Program.stage(Stage).Outputs) {
    const Array3D &A = Fields.get(Out);
    for (int I = 0; I != 5; ++I)
      for (int J = 0; J != 5; ++J)
        for (int K = 0; K != 5; ++K)
          EXPECT_TRUE(std::isfinite(A.at(I, J, K)))
              << "stage " << M.Program.stage(Stage).Name
              << " read outside its declared window near (" << I << "," << J
              << "," << K << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStages, StageAccessPattern,
    ::testing::Combine(::testing::Range(0, 17),
                       ::testing::Values(KernelVariant::Reference,
                                         KernelVariant::Simd)),
    [](const ::testing::TestParamInfo<std::tuple<int, KernelVariant>>
           &Info) {
      MpdataProgram M = buildMpdataProgram();
      return M.Program.stage(std::get<0>(Info.param)).Name + "_" +
             kernelVariantName(std::get<1>(Info.param));
    });
