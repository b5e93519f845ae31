//===- tests/traffic_report_test.cpp - Per-array traffic accounting -------===//

#include "core/PlacementMap.h"
#include "core/PlanBuilder.h"
#include "machine/MachineModel.h"
#include "mpdata/MpdataProgram.h"
#include "sim/Simulator.h"
#include "sim/TrafficReport.h"
#include "support/OStream.h"

#include <gtest/gtest.h>

using namespace icores;

namespace {

struct TrafficFixture : public ::testing::Test {
  MpdataProgram M = buildMpdataProgram();
  MachineModel Uv = makeSgiUv2000();
  Box3 Grid = Box3::fromExtents(256, 128, 32);

  ExecutionPlan plan(Strategy Strat, int Sockets, int Depth) {
    PlanConfig Config;
    Config.Strat = Strat;
    Config.Sockets = Sockets;
    Config.TemporalDepth = Depth;
    return buildPlan(M.Program, Grid, Uv, Config);
  }

  TrafficReport report(Strategy Strat, int Sockets, int Steps = 10,
                       int Depth = 1) {
    return accountTraffic(plan(Strat, Sockets, Depth), M.Program, Uv, Steps);
  }

  SimResult sim(Strategy Strat, int Sockets, int Steps = 10, int Depth = 1) {
    return simulate(plan(Strat, Sockets, Depth), M.Program, Uv, Steps);
  }

  /// The remote column's reference: each island's placement estimate per
  /// array, averaged over the epoch and scaled to the run.
  int64_t remoteReference(Strategy Strat, int Sockets, int Steps,
                          int Depth) {
    ExecutionPlan Plan = plan(Strat, Sockets, Depth);
    PlacementMap Map = buildPlacementMap(Plan, Plan.Placement);
    int64_t Total = 0;
    for (const IslandPlan &Island : Plan.Islands)
      for (const auto &[Array, Bytes] :
           estimateIslandRemoteEpochTraffic(Island, Plan, M.Program, Map)
               .BytesByArray)
        Total += Bytes / Depth * Steps;
    return Total;
  }
};

} // namespace

TEST_F(TrafficFixture, TotalsMatchSimulatorAccounting) {
  for (Strategy Strat : {Strategy::Original, Strategy::Block31D,
                         Strategy::IslandsOfCores}) {
    TrafficReport R = report(Strat, 2);
    SimResult S = sim(Strat, 2);
    EXPECT_EQ(R.totalBytes(), S.totalDramBytes()) << strategyName(Strat);
    EXPECT_EQ(R.remoteBytes(), S.PlacementRemoteBytesPerStep * 10)
        << strategyName(Strat);
    EXPECT_EQ(R.remoteBytes(), remoteReference(Strat, 2, 10, 1));
  }
  // Temporal epochs: one epoch's accounting, averaged over its steps.
  for (int Depth : {2, 4}) {
    TrafficReport R = report(Strategy::IslandsOfCores, 2, 8, Depth);
    SimResult S = sim(Strategy::IslandsOfCores, 2, 8, Depth);
    EXPECT_EQ(R.totalBytes(), S.totalDramBytes()) << "T=" << Depth;
    EXPECT_GT(R.remoteBytes(), 0) << "T=" << Depth;
    EXPECT_EQ(R.remoteBytes(),
              remoteReference(Strategy::IslandsOfCores, 2, 8, Depth))
        << "T=" << Depth;
  }
}

TEST_F(TrafficFixture, OriginalDominatedByIntermediates) {
  TrafficReport R = report(Strategy::Original, 1);
  EXPECT_GT(R.bytesForRole(ArrayRole::Intermediate),
            R.bytesForRole(ArrayRole::StepInput));
  EXPECT_GT(R.bytesForRole(ArrayRole::Intermediate),
            R.bytesForRole(ArrayRole::StepOutput));
}

TEST_F(TrafficFixture, BlockingSlashesIntermediateTraffic) {
  // Cache blocking keeps intermediates resident: only the spill fraction
  // reaches DRAM, cutting their traffic several-fold vs the original.
  TrafficReport Orig = report(Strategy::Original, 1);
  TrafficReport Blocked = report(Strategy::Block31D, 1);
  EXPECT_LT(Blocked.bytesForRole(ArrayRole::Intermediate),
            0.3 * static_cast<double>(
                      Orig.bytesForRole(ArrayRole::Intermediate)));
  // Input and output traffic stay essentially unchanged (one sweep each).
  EXPECT_NEAR(static_cast<double>(Blocked.bytesForRole(ArrayRole::StepOutput)),
              static_cast<double>(Orig.bytesForRole(ArrayRole::StepOutput)),
              0.01 * static_cast<double>(
                         Orig.bytesForRole(ArrayRole::StepOutput)));
}

TEST_F(TrafficFixture, EveryUsedArrayAppears) {
  TrafficReport R = report(Strategy::Original, 1);
  ASSERT_EQ(R.PerArray.size(), M.Program.numArrays());
  for (const ArrayTraffic &A : R.PerArray)
    EXPECT_GT(A.totalBytes(), 0) << A.Name;
}

TEST_F(TrafficFixture, OutputWrittenExactlyOncePerStep) {
  TrafficReport R = report(Strategy::IslandsOfCores, 4, /*Steps=*/10);
  const ArrayTraffic &Out = R.PerArray[static_cast<size_t>(M.XOut)];
  int64_t Expected = Grid.numPoints() * 8 * 10;
  EXPECT_EQ(Out.WriteBytes, Expected);
  EXPECT_EQ(Out.ReadBytes, 0);
}

TEST_F(TrafficFixture, InputReReadGrowsWithIslands) {
  // More islands re-read more cone margin of the shared inputs.
  TrafficReport R2 = report(Strategy::IslandsOfCores, 2);
  TrafficReport R8 = report(Strategy::IslandsOfCores, 8);
  EXPECT_GT(R8.bytesForRole(ArrayRole::StepInput),
            R2.bytesForRole(ArrayRole::StepInput));
}

TEST_F(TrafficFixture, PrintsAlignedTable) {
  TrafficReport R = report(Strategy::Original, 1);
  std::string Buf;
  StringOStream OS(Buf);
  R.print(OS);
  EXPECT_NE(Buf.find("xIn"), std::string::npos);
  EXPECT_NE(Buf.find("total DRAM traffic"), std::string::npos);
}
