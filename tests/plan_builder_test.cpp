//===- tests/plan_builder_test.cpp - Strategy plan construction tests -----===//

#include "core/PlanBuilder.h"
#include "core/PlanVerifier.h"
#include "machine/MachineModel.h"
#include "mpdata/MpdataProgram.h"
#include "stencil/ExtraElements.h"
#include "core/Partition.h"

#include <gtest/gtest.h>

using namespace icores;

namespace {

struct PlanFixture : public ::testing::Test {
  MpdataProgram M = buildMpdataProgram();
  Box3 Target = Box3::fromExtents(64, 32, 8);
  MachineModel Machine = makeToyMachine();
};

} // namespace

TEST_F(PlanFixture, OriginalIsOneIslandOneBlock) {
  PlanConfig Config;
  Config.Strat = Strategy::Original;
  Config.Sockets = 2;
  ExecutionPlan Plan = buildPlan(M.Program, Target, Machine, Config);
  ASSERT_EQ(Plan.Islands.size(), 1u);
  EXPECT_EQ(Plan.Islands[0].NumSockets, 2);
  EXPECT_EQ(Plan.Islands[0].NumThreads, 4);
  ASSERT_EQ(Plan.Islands[0].Blocks.size(), 1u);
  EXPECT_EQ(Plan.Islands[0].Blocks[0].Passes.size(), 17u);
}

TEST_F(PlanFixture, Block31DIsOneIslandManyBlocks) {
  PlanConfig Config;
  Config.Strat = Strategy::Block31D;
  Config.Sockets = 2;
  ExecutionPlan Plan = buildPlan(M.Program, Target, Machine, Config);
  ASSERT_EQ(Plan.Islands.size(), 1u);
  EXPECT_GT(Plan.Islands[0].Blocks.size(), 1u);
}

TEST_F(PlanFixture, IslandsMakeOneIslandPerSocket) {
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = 2;
  ExecutionPlan Plan = buildPlan(M.Program, Target, Machine, Config);
  ASSERT_EQ(Plan.Islands.size(), 2u);
  for (int P = 0; P != 2; ++P) {
    EXPECT_EQ(Plan.Islands[static_cast<size_t>(P)].HomeSocket, P);
    EXPECT_EQ(Plan.Islands[static_cast<size_t>(P)].NumSockets, 1);
    EXPECT_EQ(Plan.Islands[static_cast<size_t>(P)].NumThreads, 2);
  }
  // Parts tile the target along dimension 0 (variant A default).
  EXPECT_EQ(Plan.Islands[0].Part.Hi[0], Plan.Islands[1].Part.Lo[0]);
}

TEST_F(PlanFixture, VariantBSplitsSecondDimension) {
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = 2;
  Config.Variant = PartitionVariant::B;
  ExecutionPlan Plan = buildPlan(M.Program, Target, Machine, Config);
  EXPECT_EQ(Plan.Islands[0].Part.Hi[1], Plan.Islands[1].Part.Lo[1]);
  EXPECT_EQ(Plan.Islands[0].Part.extent(0), Target.extent(0));
}

TEST_F(PlanFixture, TwoDimensionalIslandGrid) {
  MachineModel Big = makeToyMachine();
  Big.NumSockets = 4;
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = 4;
  Config.GridPartsI = 2;
  Config.GridPartsJ = 2;
  ExecutionPlan Plan = buildPlan(M.Program, Target, Big, Config);
  ASSERT_EQ(Plan.Islands.size(), 4u);
  int64_t Sum = 0;
  for (const IslandPlan &Island : Plan.Islands)
    Sum += Island.Part.numPoints();
  EXPECT_EQ(Sum, Target.numPoints());
}

TEST_F(PlanFixture, IslandPlanWorkMatchesExtraElementsAccounting) {
  // The plan's total computed points must agree exactly with the Table 2
  // accounting engine — they share the clipped-cone definition.
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = 2;
  ExecutionPlan Plan = buildPlan(M.Program, Target, Machine, Config);
  ExtraElementsReport Report = countExtraElements(
      M.Program, Target, partition1D(Target, 2, 0));
  EXPECT_EQ(Plan.totalPassPoints(), Report.PartitionedPoints);
}

TEST_F(PlanFixture, OriginalWorkMatchesBaseline) {
  PlanConfig Config;
  Config.Strat = Strategy::Original;
  Config.Sockets = 1;
  ExecutionPlan Plan = buildPlan(M.Program, Target, Machine, Config);
  ExtraElementsReport Report =
      countExtraElements(M.Program, Target, {Target});
  EXPECT_EQ(Plan.totalPassPoints(), Report.BaselinePoints);
}

TEST_F(PlanFixture, Block31DDoesNoRedundantWork) {
  // The skewed high-water-mark schedule makes the blocked plan compute
  // exactly the original's points.
  PlanConfig Config;
  Config.Strat = Strategy::Block31D;
  Config.Sockets = 2;
  ExecutionPlan Plan = buildPlan(M.Program, Target, Machine, Config);
  ExtraElementsReport Report =
      countExtraElements(M.Program, Target, {Target});
  EXPECT_EQ(Plan.totalPassPoints(), Report.BaselinePoints);
}

TEST_F(PlanFixture, TotalFlopsConsistentWithPoints) {
  PlanConfig Config;
  Config.Strat = Strategy::Original;
  Config.Sockets = 1;
  ExecutionPlan Plan = buildPlan(M.Program, Target, Machine, Config);
  // Flops bounded by points * max stage weight and at least points * min.
  int64_t Points = Plan.totalPassPoints();
  EXPECT_GT(Plan.totalFlops(M.Program), Points * 4);
  EXPECT_LT(Plan.totalFlops(M.Program), Points * 41);
}

TEST_F(PlanFixture, RejectsTooManySockets) {
  PlanConfig Config;
  Config.Strat = Strategy::Original;
  Config.Sockets = 3; // Toy machine has 2.
  EXPECT_DEATH(buildPlan(M.Program, Target, Machine, Config),
               "socket count");
}

TEST_F(PlanFixture, CheckPlanConfigNamesTheFirstBrokenRule) {
  PlanConfig Config;
  Config.Sockets = 2;
  EXPECT_EQ(checkPlanConfig(Target, Machine, Config), "");
  EXPECT_EQ(checkPlanConfig(Box3::fromExtents(64, 0, 8), Machine, Config),
            "grid 64x0x8 is empty: every extent must be at least 1");
  Config.Sockets = 0;
  EXPECT_EQ(checkPlanConfig(Target, Machine, Config),
            "socket count 0 must be at least 1");
  Config.Sockets = 3;
  EXPECT_EQ(checkPlanConfig(Target, Machine, Config),
            "socket count 3 exceeds the 2 sockets of the " + Machine.Name +
                " machine");
  Config.Sockets = 2;
  Config.TemporalDepth = 0;
  EXPECT_EQ(checkPlanConfig(Target, Machine, Config),
            "temporal depth 0 must be at least 1");
  Config.TemporalDepth = 1;
  Config.IslandsPerSocket = 3;
  EXPECT_EQ(checkPlanConfig(Target, Machine, Config),
            "3 islands per socket do not divide the 2 cores per socket");
  Config.IslandsPerSocket = 1;
  Config.GridPartsI = 1;
  Config.GridPartsJ = 3;
  EXPECT_EQ(checkPlanConfig(Target, Machine, Config),
            "2D island grid 1x3 does not hold the plan's 2 islands");
  Config.GridPartsJ = 2;
  EXPECT_EQ(checkPlanConfig(Box3::fromExtents(64, 1, 8), Machine, Config),
            "grid 64x1x8: ni=64, nj=1 are narrower than the 2D island grid "
            "1x2");
  Config.GridPartsI = Config.GridPartsJ = 0;
  Config.Variant = PartitionVariant::B;
  EXPECT_EQ(checkPlanConfig(Box3::fromExtents(64, 1, 8), Machine, Config),
            "grid 64x1x8: nj=1 is narrower than the 2 islands of the "
            "variant B split");
  // The islands-only rules do not bind the single-team strategies.
  Config.Strat = Strategy::Block31D;
  EXPECT_EQ(checkPlanConfig(Box3::fromExtents(64, 1, 8), Machine, Config),
            "");
}

// Every toy-machine request the gate accepts builds a plan the verifier
// accepts on the machine's sockets; every request it refuses comes with a
// reason. The sweep covers
// split extents 0-5, sockets 0 to N+1, islands per socket 1-3, temporal
// depths 0-2, both balance policies, both 1D variants and 2D grids.
TEST_F(PlanFixture, CheckPlanConfigAcceptsExactlyWhatBuilds) {
  int Accepted = 0, Rejected = 0;
  const std::pair<int, int> Grids2D[] = {{0, 0}, {2, 1}, {1, 3}};
  for (Strategy Strat : {Strategy::Original, Strategy::Block31D,
                         Strategy::IslandsOfCores})
    for (PartitionVariant Variant : {PartitionVariant::A, PartitionVariant::B})
      for (int Extent = 0; Extent <= 5; ++Extent)
        for (int Sockets = 0; Sockets <= Machine.NumSockets + 1; ++Sockets)
          for (int PerSocket = 1; PerSocket <= 3; ++PerSocket)
            for (int Depth = 0; Depth <= 2; ++Depth)
              for (BalancePolicy Balance :
                   {BalancePolicy::Uniform, BalancePolicy::Cost})
                for (auto [PartsI, PartsJ] : Grids2D) {
                  PlanConfig Config;
                  Config.Strat = Strat;
                  Config.Variant = Variant;
                  Config.Sockets = Sockets;
                  Config.IslandsPerSocket = PerSocket;
                  Config.TemporalDepth = Depth;
                  Config.Balance = Balance;
                  Config.GridPartsI = PartsI;
                  Config.GridPartsJ = PartsJ;
                  Box3 Grid = Variant == PartitionVariant::A
                                  ? Box3::fromExtents(Extent, 4, 3)
                                  : Box3::fromExtents(4, Extent, 3);
                  std::string Reason =
                      checkPlanConfig(Grid, Machine, Config);
                  SCOPED_TRACE(testing::Message()
                               << strategyName(Strat) << " extent "
                               << Extent << " sockets " << Sockets
                               << " per-socket " << PerSocket << " T "
                               << Depth << " grid " << PartsI << "x"
                               << PartsJ << ": " << Reason);
                  if (!Reason.empty()) {
                    ++Rejected;
                    continue;
                  }
                  ++Accepted;
                  ExecutionPlan Plan =
                      buildPlan(M.Program, Grid, Machine, Config);
                  PlanVerification V = verifyPlan(Plan, M.Program);
                  EXPECT_TRUE(V.Ok) << V.FirstError;
                  for (const IslandPlan &Island : Plan.Islands)
                    EXPECT_LE(Island.HomeSocket + Island.NumSockets,
                              Machine.NumSockets);
                }
  EXPECT_GT(Accepted, 0);
  EXPECT_GT(Rejected, 0);
}

TEST_F(PlanFixture, StrategyNames) {
  EXPECT_STREQ(strategyName(Strategy::Original), "original");
  EXPECT_STREQ(strategyName(Strategy::Block31D), "(3+1)D");
  EXPECT_STREQ(strategyName(Strategy::IslandsOfCores), "islands-of-cores");
}
