//===- tests/boundary_test.cpp - Open-boundary behaviour tests ------------===//

#include "core/PlanBuilder.h"
#include "exec/ProgramExecutor.h"
#include "machine/MachineModel.h"
#include "mpdata/InitialConditions.h"
#include "mpdata/Kernels.h"
#include "stencil/SerialStepper.h"

#include <gtest/gtest.h>

using namespace icores;

namespace {

const MpdataProgram M = buildMpdataProgram();

} // namespace

TEST(BoundaryTest, ZeroGradientFillClampsToEdge) {
  Domain D(4, 4, 4, 2, BoundaryMode::ZeroGradient);
  Array3D A(D.allocBox());
  for (int I = 0; I != 4; ++I)
    for (int J = 0; J != 4; ++J)
      for (int K = 0; K != 4; ++K)
        A.at(I, J, K) = I * 100 + J * 10 + K;
  D.fillHalo(A);
  EXPECT_EQ(A.at(-1, 2, 2), A.at(0, 2, 2));
  EXPECT_EQ(A.at(-2, -2, -2), A.at(0, 0, 0));
  EXPECT_EQ(A.at(5, 3, 3), A.at(3, 3, 3));
  EXPECT_EQ(A.at(2, 5, -1), A.at(2, 3, 0));
}

TEST(BoundaryTest, ModeDispatch) {
  Domain Periodic(4, 4, 4, 1, BoundaryMode::Periodic);
  Domain Open(4, 4, 4, 1, BoundaryMode::ZeroGradient);
  EXPECT_EQ(Periodic.boundaryMode(), BoundaryMode::Periodic);
  EXPECT_EQ(Open.boundaryMode(), BoundaryMode::ZeroGradient);
  Array3D A(Periodic.allocBox());
  A.at(0, 0, 0) = 1.0;
  A.at(3, 3, 3) = 8.0;
  Periodic.fillHalo(A);
  EXPECT_EQ(A.at(-1, -1, -1), 8.0); // Wraps.
  Open.fillHalo(A);
  EXPECT_EQ(A.at(-1, -1, -1), 1.0); // Clamps.
}

TEST(BoundaryTest, OpenBoundaryUniformFieldIsFixedPoint) {
  Domain Dom(12, 10, 8, mpdataHaloDepth(), BoundaryMode::ZeroGradient);
  SerialStepper Solver(M.Program, buildMpdataKernels(), Dom);
  Solver.array(M.XIn).fill(1.5);
  setConstantVelocity(Solver.array(M.U1), Solver.array(M.U2),
                      Solver.array(M.U3), Solver.domain(), 0.3, 0.2, 0.1);
  Solver.array(M.H).fill(1.0);
  Solver.prepareInputs();
  Solver.run(6);
  Box3 Core = Solver.domain().coreBox();
  for (int I = Core.Lo[0]; I != Core.Hi[0]; ++I)
    for (int J = Core.Lo[1]; J != Core.Hi[1]; ++J)
      for (int K = Core.Lo[2]; K != Core.Hi[2]; ++K)
        EXPECT_NEAR(Solver.array(M.XIn).at(I, J, K), 1.5, 1e-13);
}

TEST(BoundaryTest, OpenBoundaryStaysPositiveAndBounded) {
  Domain Dom(16, 8, 8, mpdataHaloDepth(), BoundaryMode::ZeroGradient);
  SerialStepper Solver(M.Program, buildMpdataKernels(), Dom);
  fillRandomPositive(Solver.array(M.XIn), Solver.domain(), 19, 0.2, 1.8);
  setConstantVelocity(Solver.array(M.U1), Solver.array(M.U2),
                      Solver.array(M.U3), Solver.domain(), 0.3, -0.2, 0.1);
  Solver.array(M.H).fill(1.0);
  Solver.prepareInputs();
  Solver.run(10);
  Box3 Core = Solver.domain().coreBox();
  for (int I = Core.Lo[0]; I != Core.Hi[0]; ++I)
    for (int J = Core.Lo[1]; J != Core.Hi[1]; ++J)
      for (int K = Core.Lo[2]; K != Core.Hi[2]; ++K) {
        EXPECT_GE(Solver.array(M.XIn).at(I, J, K), 0.2 - 1e-12);
        EXPECT_LE(Solver.array(M.XIn).at(I, J, K), 1.8 + 1e-12);
      }
}

TEST(BoundaryTest, StrategiesAgreeUnderOpenBoundaries) {
  // The islands transformation is boundary-agnostic: strategies stay
  // bit-identical with zero-gradient halos too.
  Domain Dom(20, 12, 8, mpdataHaloDepth(), BoundaryMode::ZeroGradient);
  SerialStepper Solver(M.Program, buildMpdataKernels(), Dom);
  seedMpdata(Solver, M, 23, 0.1, 2.0, 0.25, -0.2, 0.15);
  Solver.run(3);

  for (Strategy Strat : {Strategy::Original, Strategy::Block31D,
                         Strategy::IslandsOfCores}) {
    MachineModel Machine = makeToyMachine();
    Machine.NumSockets = 3;
    PlanConfig Config;
    Config.Strat = Strat;
    Config.Sockets = Strat == Strategy::IslandsOfCores ? 3 : 2;
    ExecutionPlan Plan =
        buildPlan(M.Program, Dom.coreBox(), Machine, Config);
    ProgramExecutor Exec(M.Program, buildMpdataKernels(), Dom,
                         std::move(Plan));
    seedMpdata(Exec, M, 23, 0.1, 2.0, 0.25, -0.2, 0.15);
    Exec.run(3);
    EXPECT_EQ(Exec.array(M.XIn).maxAbsDiff(Solver.array(M.XIn),
                                           Dom.coreBox()),
              0.0)
        << strategyName(Strat);
  }
}

TEST(BoundaryTest, SubSocketIslandsMatchReference) {
  // Islands-per-socket (future work) with periodic boundaries.
  Domain Dom(20, 12, 8, mpdataHaloDepth());
  SerialStepper Solver(M.Program, buildMpdataKernels(), Dom);
  seedMpdata(Solver, M, 29, 0.1, 2.0, 0.25, -0.2, 0.15);
  Solver.run(3);

  MachineModel Machine = makeToyMachine(); // 2 sockets x 2 cores.
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = 2;
  Config.IslandsPerSocket = 2; // 4 single-thread islands.
  ExecutionPlan Plan = buildPlan(M.Program, Dom.coreBox(), Machine, Config);
  EXPECT_EQ(Plan.Islands.size(), 4u);
  EXPECT_EQ(Plan.Islands[0].NumThreads, 1);
  EXPECT_EQ(Plan.Islands[3].HomeSocket, 1);

  ProgramExecutor Exec(M.Program, buildMpdataKernels(), Dom,
                       std::move(Plan));
  seedMpdata(Exec, M, 29, 0.1, 2.0, 0.25, -0.2, 0.15);
  Exec.run(3);
  EXPECT_EQ(Exec.array(M.XIn).maxAbsDiff(Solver.array(M.XIn), Dom.coreBox()),
            0.0);
}
