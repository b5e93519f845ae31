//===- tests/solver_test.cpp - MPDATA physics validation ------------------===//

#include "MpdataHarness.h"

#include "mpdata/InitialConditions.h"
#include "stencil/SerialStepper.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace icores;

namespace {

const MpdataProgram M = buildMpdataProgram();

/// Sets constant Courant numbers and h = 1, then refreshes the input
/// halos (xIn must already be seeded).
void setConstantCoefficients(SerialStepper &S, double C1, double C2,
                             double C3) {
  setConstantVelocity(S.array(M.U1), S.array(M.U2), S.array(M.U3),
                      S.domain(), C1, C2, C3);
  S.array(M.H).fill(1.0);
  S.prepareInputs();
}

} // namespace

TEST(SolverTest, HaloDepthIsThree) { EXPECT_EQ(mpdataHaloDepth(), 3); }

TEST(SolverTest, ConservesMassUnderConstantVelocity) {
  SerialStepper Solver(M.Program, buildMpdataKernels(),
                       Domain(16, 12, 8, mpdataHaloDepth()));
  GaussianBlob Blob;
  Blob.CenterI = 8.0;
  Blob.CenterJ = 6.0;
  Blob.CenterK = 4.0;
  Blob.Sigma = 2.0;
  fillGaussian(Solver.array(M.XIn), Solver.domain(), Blob);
  setConstantCoefficients(Solver, 0.2, -0.15, 0.1);
  double Before = conservedMass(Solver, M);
  Solver.run(10);
  EXPECT_NEAR(conservedMass(Solver, M), Before, 1e-10 * std::fabs(Before));
}

TEST(SolverTest, ConservesWeightedMassWithVariableDensity) {
  SerialStepper Solver(M.Program, buildMpdataKernels(),
                       Domain(12, 12, 6, mpdataHaloDepth()));
  fillRandomPositive(Solver.array(M.XIn), Solver.domain(), 17, 0.2, 1.2);
  // Smooth positive density variation.
  Box3 Core = Solver.domain().coreBox();
  for (int I = Core.Lo[0]; I != Core.Hi[0]; ++I)
    for (int J = Core.Lo[1]; J != Core.Hi[1]; ++J)
      for (int K = Core.Lo[2]; K != Core.Hi[2]; ++K)
        Solver.array(M.H).at(I, J, K) =
            1.0 + 0.3 * std::sin(2.0 * M_PI * I / 12.0);
  setConstantVelocity(Solver.array(M.U1), Solver.array(M.U2),
                      Solver.array(M.U3), Solver.domain(), 0.15, 0.1, -0.1);
  Solver.prepareInputs();
  double Before = conservedMass(Solver, M);
  Solver.run(8);
  EXPECT_NEAR(conservedMass(Solver, M), Before, 1e-10 * std::fabs(Before));
}

TEST(SolverTest, PreservesPositivity) {
  // "Positive definite" is MPDATA's defining property.
  SerialStepper Solver(M.Program, buildMpdataKernels(),
                       Domain(16, 8, 8, mpdataHaloDepth()));
  GaussianBlob Blob;
  Blob.CenterI = 4.0;
  Blob.CenterJ = 4.0;
  Blob.CenterK = 4.0;
  Blob.Sigma = 1.5;
  Blob.Background = 0.0; // Sharp blob on a zero background.
  fillGaussian(Solver.array(M.XIn), Solver.domain(), Blob);
  setConstantCoefficients(Solver, 0.3, 0.2, 0.1);
  Solver.run(20);
  Box3 Core = Solver.domain().coreBox();
  for (int I = Core.Lo[0]; I != Core.Hi[0]; ++I)
    for (int J = Core.Lo[1]; J != Core.Hi[1]; ++J)
      for (int K = Core.Lo[2]; K != Core.Hi[2]; ++K)
        EXPECT_GE(Solver.array(M.XIn).at(I, J, K), -1e-14);
}

TEST(SolverTest, NonOscillatoryBoundsRespected) {
  // The limited scheme must not produce new extrema: values stay within
  // the initial global min/max.
  SerialStepper Solver(M.Program, buildMpdataKernels(),
                       Domain(12, 12, 8, mpdataHaloDepth()));
  seedMpdata(Solver, M, 3, 0.5, 2.5, 0.25, -0.2, 0.15);
  Solver.run(12);
  Box3 Core = Solver.domain().coreBox();
  for (int I = Core.Lo[0]; I != Core.Hi[0]; ++I)
    for (int J = Core.Lo[1]; J != Core.Hi[1]; ++J)
      for (int K = Core.Lo[2]; K != Core.Hi[2]; ++K) {
        EXPECT_GE(Solver.array(M.XIn).at(I, J, K), 0.5 - 1e-12);
        EXPECT_LE(Solver.array(M.XIn).at(I, J, K), 2.5 + 1e-12);
      }
}

TEST(SolverTest, UnitCourantShiftsExactly) {
  // With C = (1,0,0) the donor-cell pass is an exact one-cell shift and
  // the corrective pass degenerates: after N steps the field returns to
  // itself on a ring of size N.
  SerialStepper Solver(M.Program, buildMpdataKernels(),
                       Domain(8, 4, 4, mpdataHaloDepth()));
  fillRandomPositive(Solver.array(M.XIn), Solver.domain(), 23, 0.1, 2.0);
  Array3D Initial(Solver.domain().allocBox());
  Initial.copyRegionFrom(Solver.array(M.XIn), Solver.domain().coreBox());
  setConstantCoefficients(Solver, 1.0, 0.0, 0.0);
  Solver.run(8); // Full period around the periodic i-axis.
  EXPECT_LT(Solver.array(M.XIn).maxAbsDiff(Initial, Solver.domain().coreBox()),
            1e-12);
}

TEST(SolverTest, UnitCourantSingleStepShift) {
  SerialStepper Solver(M.Program, buildMpdataKernels(),
                       Domain(8, 4, 4, mpdataHaloDepth()));
  fillRandomPositive(Solver.array(M.XIn), Solver.domain(), 29, 0.1, 2.0);
  Array3D Initial(Solver.domain().allocBox());
  Initial.copyRegionFrom(Solver.array(M.XIn), Solver.domain().coreBox());
  setConstantCoefficients(Solver, 1.0, 0.0, 0.0);
  Solver.run(1);
  Box3 Core = Solver.domain().coreBox();
  for (int I = Core.Lo[0]; I != Core.Hi[0]; ++I)
    for (int J = Core.Lo[1]; J != Core.Hi[1]; ++J)
      for (int K = Core.Lo[2]; K != Core.Hi[2]; ++K)
        EXPECT_NEAR(Solver.array(M.XIn).at(I, J, K),
                    Initial.at(Domain::wrapIndex(I - 1, 8), J, K), 1e-13);
}

TEST(SolverTest, CorrectedSchemeBeatsFirstOrderUpwind) {
  // The whole point of MPDATA's stages 5..17: the corrective iteration
  // reduces the numerical diffusion of plain upwind.
  const int N = 24;
  const int Steps = 24;
  const double C = 0.5;

  auto runCase = [&](bool FirstOrder) {
    Domain Dom(N, 8, 8, mpdataHaloDepth());
    SerialStepper Solver = FirstOrder
                               ? SerialStepper(mpdataUpwindProgram(M),
                                               mpdataUpwindKernels(M), Dom)
                               : SerialStepper(M.Program, buildMpdataKernels(),
                                               Dom);
    GaussianBlob Blob;
    Blob.CenterI = 6.0;
    Blob.CenterJ = 4.0;
    Blob.CenterK = 4.0;
    Blob.Sigma = 2.0;
    fillGaussian(Solver.array(M.XIn), Solver.domain(), Blob);
    setConstantCoefficients(Solver, C, 0.0, 0.0);
    Solver.run(Steps);
    GaussianBlob Exact = Blob.translated(C * Steps, 0.0, 0.0);
    return l2ErrorVsBlob(Solver.array(M.XIn), Solver.domain(), Exact);
  };

  double UpwindError = runCase(true);
  double CorrectedError = runCase(false);
  EXPECT_LT(CorrectedError, 0.7 * UpwindError);
}

TEST(SolverTest, RotationKeepsConstantFieldConstant) {
  // The rotational velocity field is discretely divergence-free, so a
  // constant scalar field is a fixed point of the scheme.
  SerialStepper Solver(M.Program, buildMpdataKernels(),
                       Domain(16, 16, 4, mpdataHaloDepth()));
  Solver.array(M.XIn).fill(1.0);
  setRotationalVelocity(Solver.array(M.U1), Solver.array(M.U2),
                        Solver.array(M.U3), Solver.domain(), 0.02, 8.0, 8.0);
  Solver.array(M.H).fill(1.0);
  Solver.prepareInputs();
  Solver.run(5);
  Box3 Core = Solver.domain().coreBox();
  for (int I = Core.Lo[0]; I != Core.Hi[0]; ++I)
    for (int J = Core.Lo[1]; J != Core.Hi[1]; ++J)
      for (int K = Core.Lo[2]; K != Core.Hi[2]; ++K)
        EXPECT_NEAR(Solver.array(M.XIn).at(I, J, K), 1.0, 1e-12);
}

TEST(SolverTest, ZeroVelocityIsIdentity) {
  SerialStepper Solver(M.Program, buildMpdataKernels(),
                       Domain(10, 10, 6, mpdataHaloDepth()));
  fillRandomPositive(Solver.array(M.XIn), Solver.domain(), 31, 0.5, 1.5);
  Array3D Initial(Solver.domain().allocBox());
  Initial.copyRegionFrom(Solver.array(M.XIn), Solver.domain().coreBox());
  setConstantCoefficients(Solver, 0.0, 0.0, 0.0);
  Solver.run(5);
  EXPECT_LT(Solver.array(M.XIn).maxAbsDiff(Initial, Solver.domain().coreBox()),
            1e-14);
}

TEST(SolverTest, BlobPeakMovesDownstream) {
  const int N = 32;
  SerialStepper Solver(M.Program, buildMpdataKernels(),
                       Domain(N, 8, 8, mpdataHaloDepth()));
  GaussianBlob Blob;
  Blob.CenterI = 8.0;
  Blob.CenterJ = 4.0;
  Blob.CenterK = 4.0;
  Blob.Sigma = 2.5;
  Blob.Background = 0.0;
  fillGaussian(Solver.array(M.XIn), Solver.domain(), Blob);
  setConstantCoefficients(Solver, 0.4, 0.0, 0.0);
  Solver.run(20); // Peak should move by ~8 cells.
  int PeakI = -1;
  double PeakValue = -1.0;
  for (int I = 0; I != N; ++I) {
    double V = Solver.array(M.XIn).at(I, 4, 4);
    if (V > PeakValue) {
      PeakValue = V;
      PeakI = I;
    }
  }
  EXPECT_NEAR(PeakI, 16, 2);
}
