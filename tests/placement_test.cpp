//===- tests/placement_test.cpp - NUMA data-placement tests ---------------===//
//
// The placement layer's load-bearing guarantees:
//
//  - every placement policy is a pure data-layout change: results stay
//    bit-identical to the serial reference across strategies, kernel
//    backends and temporal depths;
//  - the executor's remote-traffic estimate, the standalone estimator and
//    the simulator's projection are one number (parity by construction);
//  - the first-touch arena segments tile the shared allocation;
//  - ExecStats carries the v4 placement fields, pin failures are counted
//    but never fatal, and Array3D's untouched-allocation/placed-flag
//    machinery behaves as the executor relies on.
//
//===----------------------------------------------------------------------===//

#include "core/PlacementMap.h"
#include "core/PlanBuilder.h"
#include "core/ScheduleOptimizer.h"
#include "exec/Affinity.h"
#include "exec/ProgramExecutor.h"
#include "grid/Placement.h"
#include "machine/MachineModel.h"
#include "mpdata/InitialConditions.h"
#include "mpdata/Kernels.h"
#include "sim/Simulator.h"
#include "stencil/SerialStepper.h"

#include <gtest/gtest.h>

using namespace icores;

namespace {

constexpr int GridNI = 20;
constexpr int GridNJ = 14;
constexpr int GridNK = 8;
constexpr int TimeSteps = 4;
constexpr int Islands = 2;
const MpdataProgram M = buildMpdataProgram();

Array3D referenceResult() {
  SerialStepper Solver(M.Program, buildMpdataKernels(),
                       Domain(GridNI, GridNJ, GridNK, mpdataHaloDepth()));
  seedMpdata(Solver, M, 77, 0.1, 2.0, 0.3, -0.25, 0.2);
  Solver.run(TimeSteps);
  Array3D Result(Solver.domain().allocBox());
  Result.copyRegionFrom(Solver.array(M.XIn), Solver.domain().coreBox());
  return Result;
}

ExecutionPlan makePlan(Strategy Strat, int Depth, PlacementPolicy Place,
                       MachineModel &Host, int NumIslands = Islands) {
  Host = makeToyMachine();
  Host.NumSockets = NumIslands;
  PlanConfig Config;
  Config.Strat = Strat;
  Config.Sockets = NumIslands;
  Config.TemporalDepth = Depth;
  Config.Placement = Place;
  ExecutionPlan Plan =
      buildPlan(M.Program, Box3::fromExtents(GridNI, GridNJ, GridNK), Host,
                Config);
  optimizeBarriers(M.Program, Plan);
  return Plan;
}

/// Runs the threaded executor with the placement init epoch armed and
/// returns the core-box result (plus the executor for stats inspection
/// via the out-params).
Array3D placedResult(Strategy Strat, int Depth, PlacementPolicy Place,
                     KernelVariant Kernels, ExecStats *StatsOut = nullptr,
                     int64_t *RemotePerStepOut = nullptr) {
  MachineModel Host;
  ExecutionPlan Plan = makePlan(Strat, Depth, Place, Host);
  Domain Dom(GridNI, GridNJ, GridNK, mpdataHaloDepth());
  ExecutorOptions Opts;
  Opts.Placement = Place;
  if (Place != PlacementPolicy::None)
    Opts.Pinning = computeThreadPlacement(Plan, Host);
  ProgramExecutor Exec(M.Program, buildMpdataKernels(Kernels), Dom,
                       std::move(Plan), Opts);
  seedMpdata(Exec, M, 77, 0.1, 2.0, 0.3, -0.25, 0.2);
  Exec.run(TimeSteps);
  if (StatsOut)
    *StatsOut = Exec.stats();
  if (RemotePerStepOut)
    *RemotePerStepOut = Exec.remoteBytesPerStep();
  Array3D Result(Exec.domain().allocBox());
  Result.copyRegionFrom(Exec.array(M.XIn), Exec.domain().coreBox());
  return Result;
}

Box3 coreBox() { return Box3::fromExtents(GridNI, GridNJ, GridNK); }

} // namespace

TEST(PlacementTest, BitExactAcrossPoliciesStrategiesAndDepths) {
  Array3D Reference = referenceResult();
  for (PlacementPolicy Place :
       {PlacementPolicy::None, PlacementPolicy::FirstTouch,
        PlacementPolicy::Interleave})
    for (Strategy Strat : {Strategy::Block31D, Strategy::IslandsOfCores})
      for (int Depth : {1, 2})
        for (KernelVariant Kernels :
             {KernelVariant::Reference, KernelVariant::Simd}) {
          Array3D Result = placedResult(Strat, Depth, Place, Kernels);
          EXPECT_EQ(Result.maxAbsDiff(Reference, coreBox()), 0.0)
              << placementPolicyName(Place) << " " << strategyName(Strat)
              << " T=" << Depth << " kernels "
              << kernelVariantName(Kernels);
        }
}

TEST(PlacementTest, ExecutorEstimatorAndSimulatorAgreeExactly) {
  for (PlacementPolicy Place :
       {PlacementPolicy::None, PlacementPolicy::FirstTouch,
        PlacementPolicy::Interleave})
    for (int Depth : {1, 2}) {
      MachineModel Host;
      ExecutionPlan Plan =
          makePlan(Strategy::IslandsOfCores, Depth, Place, Host);
      int64_t Estimated =
          estimateRemoteBytesPerStep(Plan, M.Program, Place);
      int64_t Projected = simulate(Plan, M.Program, Host, TimeSteps)
                              .PlacementRemoteBytesPerStep;
      int64_t Measured = 0;
      placedResult(Strategy::IslandsOfCores, Depth, Place,
                   KernelVariant::Reference, nullptr, &Measured);
      EXPECT_EQ(Measured, Estimated)
          << placementPolicyName(Place) << " T=" << Depth;
      EXPECT_EQ(Projected, Estimated)
          << placementPolicyName(Place) << " T=" << Depth;
    }
}

TEST(PlacementTest, FirstTouchMovesLessRemoteTrafficThanAlternatives) {
  int64_t Remote[3] = {0, 0, 0};
  const PlacementPolicy Policies[] = {PlacementPolicy::None,
                                      PlacementPolicy::FirstTouch,
                                      PlacementPolicy::Interleave};
  for (size_t P = 0; P != 3; ++P)
    placedResult(Strategy::IslandsOfCores, 1, Policies[P],
                 KernelVariant::Reference, nullptr, &Remote[P]);
  EXPECT_LT(Remote[1], Remote[0]); // first-touch < serial init
  EXPECT_LT(Remote[1], Remote[2]); // first-touch < interleave
}

TEST(PlacementTest, ArenaSegmentsTileTheSharedAllocation) {
  MachineModel Host;
  ExecutionPlan Plan =
      makePlan(Strategy::IslandsOfCores, 1, PlacementPolicy::FirstTouch,
               Host);
  PlacementMap Map = buildPlacementMap(Plan, PlacementPolicy::FirstTouch);
  ASSERT_EQ(Map.Segments.size(), Plan.Islands.size());
  Domain Dom(GridNI, GridNJ, GridNK, mpdataHaloDepth());
  Box3 Alloc = Dom.allocBox();
  int64_t Covered = 0;
  for (size_t A = 0; A != Map.Segments.size(); ++A) {
    Box3 SegA = Map.arenaSegment(static_cast<int>(A), Alloc);
    Covered += SegA.numPoints();
    for (size_t B = A + 1; B != Map.Segments.size(); ++B) {
      Box3 SegB = Map.arenaSegment(static_cast<int>(B), Alloc);
      EXPECT_TRUE(SegA.intersect(SegB).empty())
          << "segments " << A << " and " << B << " overlap";
    }
  }
  EXPECT_EQ(Covered, Alloc.numPoints());
  // Per-socket ownership partitions any region.
  int64_t Local = 0;
  for (int Socket : Map.ActiveSockets)
    Local += Map.localPoints(Alloc, Socket);
  EXPECT_EQ(Local, Alloc.numPoints());
  EXPECT_EQ(Map.HomeNode, Plan.Islands[0].HomeSocket);
}

TEST(PlacementTest, SingleIslandFallbackProjectsZeroRemoteBytes) {
  for (PlacementPolicy Place :
       {PlacementPolicy::None, PlacementPolicy::FirstTouch,
        PlacementPolicy::Interleave}) {
    MachineModel Host;
    ExecutionPlan Plan = makePlan(Strategy::IslandsOfCores, 1, Place, Host,
                                  /*NumIslands=*/1);
    EXPECT_EQ(estimateRemoteBytesPerStep(Plan, M.Program, Place), 0)
        << placementPolicyName(Place);
  }
}

TEST(PlacementTest, StatsCarrySchemaV4PlacementFields) {
  ExecStats Stats;
  int64_t RemotePerStep = 0;
  placedResult(Strategy::IslandsOfCores, 1, PlacementPolicy::FirstTouch,
               KernelVariant::Reference, &Stats, &RemotePerStep);
  EXPECT_EQ(Stats.Placement, "firsttouch");
  EXPECT_GT(Stats.PagesFirstTouched, 0);
  EXPECT_GE(Stats.PinFailures, 0);
  EXPECT_EQ(Stats.RemoteBytesEst, RemotePerStep * TimeSteps);

  placedResult(Strategy::IslandsOfCores, 1, PlacementPolicy::None,
               KernelVariant::Reference, &Stats, &RemotePerStep);
  EXPECT_EQ(Stats.Placement, "none");
  EXPECT_EQ(Stats.PagesFirstTouched, 0);
}

TEST(PlacementTest, BogusPinningCountsFailuresAndStaysExact) {
  // Cores far beyond any host: every pin attempt is rejected; the run
  // must count one failure per worker, warn (once), and still reproduce
  // the reference bit-exactly — placement degrades, correctness never.
  MachineModel Host;
  ExecutionPlan Plan = makePlan(Strategy::IslandsOfCores, 1,
                                PlacementPolicy::FirstTouch, Host);
  std::vector<ThreadPlacement> Pinning = computeThreadPlacement(Plan, Host);
  for (size_t T = 0; T != Pinning.size(); ++T)
    Pinning[T].GlobalCore = (1 << 20) + static_cast<int>(T);
  int64_t Workers = static_cast<int64_t>(Pinning.size());

  Domain Dom(GridNI, GridNJ, GridNK, mpdataHaloDepth());
  ExecutorOptions Opts;
  Opts.Placement = PlacementPolicy::FirstTouch;
  Opts.Pinning = std::move(Pinning);
  ProgramExecutor Exec(M.Program, buildMpdataKernels(), Dom,
                       std::move(Plan), Opts);
  seedMpdata(Exec, M, 77, 0.1, 2.0, 0.3, -0.25, 0.2);
  Exec.run(TimeSteps);

  EXPECT_EQ(Exec.stats().PinFailures, Workers);
  Array3D Reference = referenceResult();
  EXPECT_EQ(Exec.array(M.XIn).maxAbsDiff(Reference, coreBox()), 0.0);
}

TEST(PlacementTest, HugePageAdviceKeepsResultsExact) {
  MachineModel Host;
  ExecutionPlan Plan = makePlan(Strategy::IslandsOfCores, 1,
                                PlacementPolicy::FirstTouch, Host);
  Domain Dom(GridNI, GridNJ, GridNK, mpdataHaloDepth());
  ExecutorOptions Opts;
  Opts.Placement = PlacementPolicy::FirstTouch;
  Opts.HugePages = true;
  Opts.Pinning = computeThreadPlacement(Plan, Host);
  ProgramExecutor Exec(M.Program, buildMpdataKernels(), Dom,
                       std::move(Plan), Opts);
  seedMpdata(Exec, M, 77, 0.1, 2.0, 0.3, -0.25, 0.2);
  Exec.run(TimeSteps);
  Array3D Reference = referenceResult();
  EXPECT_EQ(Exec.array(M.XIn).maxAbsDiff(Reference, coreBox()), 0.0);
}

TEST(PlacementTest, ParsePolicyAcceptsAllSpellings) {
  PlacementPolicy P;
  EXPECT_TRUE(parsePlacementPolicy("none", P));
  EXPECT_EQ(P, PlacementPolicy::None);
  EXPECT_TRUE(parsePlacementPolicy("serial", P));
  EXPECT_EQ(P, PlacementPolicy::None);
  EXPECT_TRUE(parsePlacementPolicy("firsttouch", P));
  EXPECT_EQ(P, PlacementPolicy::FirstTouch);
  EXPECT_TRUE(parsePlacementPolicy("first-touch", P));
  EXPECT_EQ(P, PlacementPolicy::FirstTouch);
  EXPECT_TRUE(parsePlacementPolicy("interleave", P));
  EXPECT_EQ(P, PlacementPolicy::Interleave);
  EXPECT_FALSE(parsePlacementPolicy("bogus", P));
}

TEST(Array3DPlacementTest, ResetUntouchedTracksThePlacedFlag) {
  Box3 Space = Box3::fromExtents(8, 8, 8);
  Array3D A;
  A.resetUntouched(Space, Array3D::VectorPadK);
  EXPECT_TRUE(A.allocated());
  EXPECT_FALSE(A.placed());
  A.fill(0.0); // The caller's obligation: zero before reading.
  A.markPlaced();
  EXPECT_TRUE(A.placed());

  // Same-shape reset keeps the allocation — and the placement.
  A.reset(Space, Array3D::VectorPadK);
  EXPECT_TRUE(A.placed());

  // Reallocation (new shape) is the one path that loses residency.
  A.reset(Box3::fromExtents(4, 4, 4));
  EXPECT_FALSE(A.placed());

  A.resetUntouched(Space, Array3D::VectorPadK);
  EXPECT_FALSE(A.placed());
}

TEST(Array3DPlacementTest, HugePageAdviceIsBestEffort) {
  Array3D A;
  A.resetUntouched(Box3::fromExtents(64, 64, 64));
  A.adviseHugePages(); // Must not crash or fail hard, whatever the host.
  A.fill(1.5);
  EXPECT_EQ(A.at(3, 4, 5), 1.5);

  Array3D Tiny;
  Tiny.resetUntouched(Box3::fromExtents(1, 1, 1));
  EXPECT_FALSE(Tiny.adviseHugePages()); // Under a page: advice declined.
}
