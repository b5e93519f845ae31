//===- tests/executor_test.cpp - Strategy equivalence tests ---------------===//
//
// The load-bearing validation of the islands-of-cores transformation: every
// strategy, partitioning and team size must reproduce the serial reference
// solver bit-for-bit (the kernels are pointwise with fixed evaluation
// order, so redundant recomputation is exactly equivalent to halo
// exchange).
//
//===----------------------------------------------------------------------===//

#include "MpdataHarness.h"

#include "core/PlanBuilder.h"
#include "exec/ProgramExecutor.h"
#include "exec/RegionSplit.h"
#include "machine/MachineModel.h"
#include "mpdata/InitialConditions.h"
#include "stencil/SerialStepper.h"

#include <gtest/gtest.h>

using namespace icores;

namespace {

constexpr int GridNI = 20;
constexpr int GridNJ = 14;
constexpr int GridNK = 8;
constexpr int TimeSteps = 3;
const MpdataProgram M = buildMpdataProgram();

/// Runs the serial oracle on the shared workload.
Array3D referenceResult() {
  SerialStepper Solver(M.Program, buildMpdataKernels(),
                       Domain(GridNI, GridNJ, GridNK, mpdataHaloDepth()));
  seedMpdata(Solver, M, 1234, 0.1, 2.0, 0.3, -0.25, 0.2);
  Solver.run(TimeSteps);
  Array3D Result(Solver.domain().allocBox());
  Result.copyRegionFrom(Solver.array(M.XIn), Solver.domain().coreBox());
  return Result;
}

/// Runs an executor with the same workload under \p Config.
Array3D executorResult(const PlanConfig &Config, const MachineModel &Machine,
                       KernelVariant Kernels = KernelVariant::Reference) {
  Domain Dom(GridNI, GridNJ, GridNK, mpdataHaloDepth());
  ExecutionPlan Plan = buildPlan(M.Program, Dom.coreBox(), Machine, Config);
  ProgramExecutor Exec(M.Program, buildMpdataKernels(Kernels), Dom,
                       std::move(Plan));
  seedMpdata(Exec, M, 1234, 0.1, 2.0, 0.3, -0.25, 0.2);
  Exec.run(TimeSteps);
  Array3D Result(Dom.allocBox());
  Result.copyRegionFrom(Exec.array(M.XIn), Dom.coreBox());
  return Result;
}

Box3 coreBox() { return Box3::fromExtents(GridNI, GridNJ, GridNK); }

/// Parameter: (strategy, sockets, variant, use2D, kernel backend).
struct EquivalenceCase {
  Strategy Strat;
  int Sockets;
  PartitionVariant Variant;
  bool Use2D;
  KernelVariant Kernels = KernelVariant::Reference;
  const char *Name;
};

class StrategyEquivalence
    : public ::testing::TestWithParam<EquivalenceCase> {};

} // namespace

TEST_P(StrategyEquivalence, MatchesReferenceBitExactly) {
  const EquivalenceCase &C = GetParam();
  MachineModel Machine = makeToyMachine();
  Machine.NumSockets = C.Sockets; // Enough sockets for the case.

  PlanConfig Config;
  Config.Strat = C.Strat;
  Config.Sockets = C.Sockets;
  Config.Variant = C.Variant;
  if (C.Use2D) {
    auto [Pi, Pj] = factorForGrid(C.Sockets);
    Config.GridPartsI = Pi;
    Config.GridPartsJ = Pj;
  }

  Array3D Reference = referenceResult();
  Array3D Result = executorResult(Config, Machine, C.Kernels);
  EXPECT_EQ(Result.maxAbsDiff(Reference, coreBox()), 0.0)
      << "strategy " << strategyName(C.Strat) << " sockets " << C.Sockets
      << " kernels " << kernelVariantName(C.Kernels);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyEquivalence,
    ::testing::Values(
        EquivalenceCase{Strategy::Original, 1, PartitionVariant::A, false,
                        KernelVariant::Reference, "original_p1"},
        EquivalenceCase{Strategy::Original, 2, PartitionVariant::A, false,
                        KernelVariant::Reference, "original_p2"},
        EquivalenceCase{Strategy::Block31D, 1, PartitionVariant::A, false,
                        KernelVariant::Reference, "block31d_p1"},
        EquivalenceCase{Strategy::Block31D, 3, PartitionVariant::A, false,
                        KernelVariant::Reference, "block31d_p3"},
        EquivalenceCase{Strategy::IslandsOfCores, 1, PartitionVariant::A,
                        false, KernelVariant::Reference, "islands_p1"},
        EquivalenceCase{Strategy::IslandsOfCores, 2, PartitionVariant::A,
                        false, KernelVariant::Reference, "islands_p2_varA"},
        EquivalenceCase{Strategy::IslandsOfCores, 2, PartitionVariant::B,
                        false, KernelVariant::Reference, "islands_p2_varB"},
        EquivalenceCase{Strategy::IslandsOfCores, 4, PartitionVariant::A,
                        false, KernelVariant::Reference, "islands_p4_varA"},
        EquivalenceCase{Strategy::IslandsOfCores, 4, PartitionVariant::B,
                        false, KernelVariant::Reference, "islands_p4_varB"},
        EquivalenceCase{Strategy::IslandsOfCores, 4, PartitionVariant::A,
                        true, KernelVariant::Reference, "islands_p4_grid2x2"},
        EquivalenceCase{Strategy::IslandsOfCores, 6, PartitionVariant::A,
                        true, KernelVariant::Reference, "islands_p6_grid3x2"},
        // Every strategy must also be bit-exact under the Optimized and
        // Simd backends (ISSUE 4: all variants x all strategies).
        EquivalenceCase{Strategy::Original, 2, PartitionVariant::A, false,
                        KernelVariant::Optimized, "original_p2_opt"},
        EquivalenceCase{Strategy::Original, 2, PartitionVariant::A, false,
                        KernelVariant::Simd, "original_p2_simd"},
        EquivalenceCase{Strategy::Block31D, 3, PartitionVariant::A, false,
                        KernelVariant::Optimized, "block31d_p3_opt"},
        EquivalenceCase{Strategy::Block31D, 3, PartitionVariant::A, false,
                        KernelVariant::Simd, "block31d_p3_simd"},
        EquivalenceCase{Strategy::IslandsOfCores, 4, PartitionVariant::B,
                        false, KernelVariant::Optimized,
                        "islands_p4_varB_opt"},
        EquivalenceCase{Strategy::IslandsOfCores, 4, PartitionVariant::B,
                        false, KernelVariant::Simd, "islands_p4_varB_simd"},
        EquivalenceCase{Strategy::IslandsOfCores, 4, PartitionVariant::A,
                        true, KernelVariant::Simd,
                        "islands_p4_grid2x2_simd"}),
    [](const ::testing::TestParamInfo<EquivalenceCase> &Info) {
      return Info.param.Name;
    });

TEST(ExecutorTest, ConservesMass) {
  MachineModel Machine = makeToyMachine();
  Domain Dom(16, 12, 8, mpdataHaloDepth());
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = 2;
  ExecutionPlan Plan = buildPlan(M.Program, Dom.coreBox(), Machine, Config);
  ProgramExecutor Exec(M.Program, buildMpdataKernels(), Dom,
                       std::move(Plan));
  seedMpdata(Exec, M, 77, 0.2, 1.5, 0.2, 0.15, -0.1);
  double Before = conservedMass(Exec, M);
  Exec.run(5);
  EXPECT_NEAR(conservedMass(Exec, M), Before, 1e-10 * Before);
}

TEST(ExecutorTest, SequentialRunsCompose) {
  // run(2) then run(3) must equal run(5).
  MachineModel Machine = makeToyMachine();
  Domain Dom(16, 12, 8, mpdataHaloDepth());
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = 2;

  auto makeExec = [&]() {
    ExecutionPlan Plan =
        buildPlan(M.Program, Dom.coreBox(), Machine, Config);
    auto Exec = std::make_unique<ProgramExecutor>(
        M.Program, buildMpdataKernels(), Dom, std::move(Plan));
    seedMpdata(*Exec, M, 55, 0.2, 1.5, 0.25, 0.1, 0.05);
    return Exec;
  };

  auto Split = makeExec();
  Split->run(2);
  Split->run(3);
  auto Whole = makeExec();
  Whole->run(5);
  EXPECT_EQ(Split->array(M.XIn).maxAbsDiff(Whole->array(M.XIn),
                                           Dom.coreBox()),
            0.0);
}

TEST(ExecutorTest, ZeroStepsIsANoOp) {
  MachineModel Machine = makeToyMachine();
  Domain Dom(12, 10, 8, mpdataHaloDepth());
  PlanConfig Config;
  Config.Strat = Strategy::Original;
  Config.Sockets = 1;
  ExecutionPlan Plan = buildPlan(M.Program, Dom.coreBox(), Machine, Config);
  ProgramExecutor Exec(M.Program, buildMpdataKernels(), Dom,
                       std::move(Plan));
  fillRandomPositive(Exec.array(M.XIn), Dom, 9, 0.2, 1.5);
  Exec.array(M.H).fill(1.0);
  Array3D Before(Dom.allocBox());
  Before.copyRegionFrom(Exec.array(M.XIn), Dom.coreBox());
  Exec.run(0);
  EXPECT_EQ(Exec.array(M.XIn).maxAbsDiff(Before, Dom.coreBox()), 0.0);
}

TEST(RegionSplitTest, CoversRegionDisjointly) {
  Box3 Region(2, 0, 0, 10, 30, 6);
  int Count = 4;
  int64_t Sum = 0;
  for (int T = 0; T != Count; ++T) {
    Box3 Sub = teamSubRegion(Region, T, Count);
    Sum += Sub.numPoints();
    EXPECT_TRUE(Region.containsBox(Sub));
  }
  EXPECT_EQ(Sum, Region.numPoints());
}

TEST(RegionSplitTest, SplitsLongestNonUnitStrideDimension) {
  EXPECT_EQ(teamSplitDim(Box3(0, 0, 0, 10, 30, 6)), 1);
  EXPECT_EQ(teamSplitDim(Box3(0, 0, 0, 50, 30, 6)), 0);
  // Even when k is longest, the split must stay off the unit-stride axis
  // (false sharing; broken contiguous inner loops).
  EXPECT_EQ(teamSplitDim(Box3(0, 0, 0, 5, 5, 9)), 0);
  EXPECT_EQ(teamSplitDim(Box3(0, 0, 0, 3, 5, 64)), 1);
  // Only when both i and j are degenerate may the k axis be cut.
  EXPECT_EQ(teamSplitDim(Box3(0, 0, 0, 1, 1, 9)), 2);
  EXPECT_EQ(teamSplitDim(Box3(0, 0, 0, 1, 4, 9)), 1);
}

TEST(RegionSplitTest, NeverCutsTheKAxisWhenAvoidable) {
  // Sweep k-dominant shapes: no thread boundary may land inside k unless
  // i and j are both degenerate.
  for (int Ni : {1, 2, 7})
    for (int Nj : {1, 3, 8})
      for (int Nk : {16, 33}) {
        Box3 Region = Box3::fromExtents(Ni, Nj, Nk);
        bool MayCutK = Ni <= 1 && Nj <= 1;
        for (int Count : {2, 3, 5})
          for (int T = 0; T != Count; ++T) {
            Box3 Sub = teamSubRegion(Region, T, Count);
            if (Sub.empty() || MayCutK)
              continue;
            EXPECT_EQ(Sub.extent(2), Nk)
                << Ni << "x" << Nj << "x" << Nk << " thread " << T
                << " of " << Count;
          }
      }
}

TEST(RegionSplitTest, MoreThreadsThanCells) {
  Box3 Region(0, 0, 0, 2, 1, 1); // Longest dim extent 2, 5 threads.
  int NonEmpty = 0;
  int64_t Sum = 0;
  for (int T = 0; T != 5; ++T) {
    Box3 Sub = teamSubRegion(Region, T, 5);
    if (!Sub.empty())
      ++NonEmpty;
    Sum += Sub.numPoints();
  }
  EXPECT_EQ(NonEmpty, 2);
  EXPECT_EQ(Sum, Region.numPoints());
}
