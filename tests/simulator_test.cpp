//===- tests/simulator_test.cpp - Performance simulator tests -------------===//

#include "core/PlanBuilder.h"
#include "machine/MachineModel.h"
#include "mpdata/MpdataProgram.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <map>

using namespace icores;

namespace {

struct SimFixture : public ::testing::Test {
  MpdataProgram M = buildMpdataProgram();
  MachineModel Uv = makeSgiUv2000();
  Box3 PaperGrid = Box3::fromExtents(1024, 512, 64);

  SimResult runSim(Strategy Strat, int Sockets,
                   PagePlacement Placement = PagePlacement::FirstTouch,
                   int Steps = 50) {
    PlanConfig Config;
    Config.Strat = Strat;
    Config.Sockets = Sockets;
    Config.Placement = Placement;
    ExecutionPlan Plan = buildPlan(M.Program, PaperGrid, Uv, Config);
    return simulate(Plan, M.Program, Uv, Steps);
  }
};

} // namespace

TEST_F(SimFixture, TimesArePositiveAndFinite) {
  for (Strategy S : {Strategy::Original, Strategy::Block31D,
                     Strategy::IslandsOfCores}) {
    SimResult R = runSim(S, 2);
    EXPECT_GT(R.StepSeconds, 0.0);
    EXPECT_GT(R.TotalSeconds, R.StepSeconds);
    EXPECT_GT(R.FlopsPerStep, 0);
    EXPECT_GT(R.DramBytesPerStep, 0);
  }
}

TEST_F(SimFixture, TotalScalesWithSteps) {
  SimResult R10 = runSim(Strategy::IslandsOfCores, 4,
                         PagePlacement::FirstTouch, 10);
  SimResult R20 = runSim(Strategy::IslandsOfCores, 4,
                         PagePlacement::FirstTouch, 20);
  EXPECT_DOUBLE_EQ(R20.TotalSeconds, 2.0 * R10.TotalSeconds);
  EXPECT_EQ(R10.StepSeconds, R20.StepSeconds);
}

TEST_F(SimFixture, SerialInitOriginalDegradesWithSockets) {
  // Table 1's first row: adding processors makes the serial-init original
  // version *slower*.
  double Prev = runSim(Strategy::Original, 1,
                       PagePlacement::None).TotalSeconds;
  for (int P : {2, 4, 8, 14}) {
    double T = runSim(Strategy::Original, P,
                      PagePlacement::None).TotalSeconds;
    EXPECT_GT(T, Prev) << "P=" << P;
    Prev = T;
  }
}

TEST_F(SimFixture, FirstTouchOriginalScales) {
  // Table 1's second row: with first-touch placement the original version
  // keeps speeding up with P.
  double Prev = runSim(Strategy::Original, 1).TotalSeconds;
  for (int P : {2, 4, 8, 14}) {
    double T = runSim(Strategy::Original, P).TotalSeconds;
    EXPECT_LT(T, Prev) << "P=" << P;
    Prev = T;
  }
}

TEST_F(SimFixture, Pure31DStopsScaling) {
  // Table 1/3: the pure (3+1)D decomposition wins at P=1 but degrades for
  // large P, ending slower than the original.
  double T1 = runSim(Strategy::Block31D, 1).TotalSeconds;
  double TOrig1 = runSim(Strategy::Original, 1).TotalSeconds;
  EXPECT_LT(T1, TOrig1); // 3.37x in the paper.
  double T14 = runSim(Strategy::Block31D, 14).TotalSeconds;
  double TOrig14 = runSim(Strategy::Original, 14).TotalSeconds;
  EXPECT_GT(T14, TOrig14); // ~3.7x slower in the paper.
  EXPECT_GT(T14, T1 / 3.0); // Nowhere near linear scaling.
}

TEST_F(SimFixture, IslandsScaleMonotonically) {
  double Prev = runSim(Strategy::IslandsOfCores, 1).TotalSeconds;
  for (int P = 2; P <= 14; ++P) {
    double T = runSim(Strategy::IslandsOfCores, P).TotalSeconds;
    EXPECT_LT(T, Prev) << "P=" << P;
    Prev = T;
  }
}

TEST_F(SimFixture, IslandsMatch31DAtOneSocket) {
  // With one island the two strategies build the same plan, so the
  // simulated times coincide (Table 3 shows 9.0 s for both).
  SimResult A = runSim(Strategy::Block31D, 1);
  SimResult B = runSim(Strategy::IslandsOfCores, 1);
  EXPECT_DOUBLE_EQ(A.TotalSeconds, B.TotalSeconds);
}

TEST_F(SimFixture, HeadlineSpeedupAtFourteenSockets) {
  // The paper's headline: islands-of-cores accelerates the pure (3+1)D
  // decomposition more than 10x at P=14.
  double T31 = runSim(Strategy::Block31D, 14).TotalSeconds;
  double TIsl = runSim(Strategy::IslandsOfCores, 14).TotalSeconds;
  EXPECT_GT(T31 / TIsl, 8.0);
  EXPECT_LT(T31 / TIsl, 14.0);
}

TEST_F(SimFixture, OverallSpeedupRoughlyConstant) {
  // S_ov (islands vs original) stays near ~2.7-3.0 across P (Table 3).
  for (int P : {2, 6, 10, 14}) {
    double SOv = runSim(Strategy::Original, P).TotalSeconds /
                 runSim(Strategy::IslandsOfCores, P).TotalSeconds;
    EXPECT_GT(SOv, 2.0) << "P=" << P;
    EXPECT_LT(SOv, 4.5) << "P=" << P;
  }
}

TEST_F(SimFixture, UtilizationInPaperBand) {
  // Table 4: ~26-40% of theoretical peak across configurations.
  for (int P : {1, 4, 8, 14}) {
    SimResult R = runSim(Strategy::IslandsOfCores, P);
    double Util = R.sustainedGflops() * 1e9 / Uv.peakFlops(P);
    EXPECT_GT(Util, 0.20) << "P=" << P;
    EXPECT_LT(Util, 0.55) << "P=" << P;
  }
}

TEST_F(SimFixture, BlockedTrafficFarBelowOriginal) {
  // Sect. 3.2: the (3+1)D decomposition cuts main-memory traffic by ~4x
  // (133 GB -> 30 GB on the small grid).
  SimResult Orig = runSim(Strategy::Original, 1);
  SimResult Blocked = runSim(Strategy::Block31D, 1);
  double Ratio = static_cast<double>(Orig.DramBytesPerStep) /
                 static_cast<double>(Blocked.DramBytesPerStep);
  EXPECT_GT(Ratio, 3.0);
  EXPECT_LT(Ratio, 8.0);
}

TEST_F(SimFixture, RemoteTrafficShapes) {
  // Islands exchange nothing within a step except the cold cone margins
  // of the shared inputs; single-island runs exchange nothing at all.
  EXPECT_EQ(runSim(Strategy::IslandsOfCores, 1).RemoteBytesPerStep, 0);
  int64_t Islands = runSim(Strategy::IslandsOfCores, 4).RemoteBytesPerStep;
  EXPECT_GT(Islands, 0);
  // The cone margins are a tiny fraction of the domain.
  SimResult I4 = runSim(Strategy::IslandsOfCores, 4);
  EXPECT_LT(static_cast<double>(I4.RemoteBytesPerStep),
            0.1 * static_cast<double>(I4.DramBytesPerStep));
  EXPECT_GT(runSim(Strategy::Block31D, 4).RemoteBytesPerStep, 0);
  EXPECT_GT(runSim(Strategy::Original, 4).RemoteBytesPerStep, 0);
}

TEST_F(SimFixture, FlopsIncludeRedundantIslandWork) {
  SimResult P1 = runSim(Strategy::IslandsOfCores, 1);
  SimResult P14 = runSim(Strategy::IslandsOfCores, 14);
  EXPECT_GT(P14.FlopsPerStep, P1.FlopsPerStep);
  // But only by a few percent (Table 2: 3.21% at 14 islands).
  double Overhead = static_cast<double>(P14.FlopsPerStep) /
                        static_cast<double>(P1.FlopsPerStep) -
                    1.0;
  EXPECT_LT(Overhead, 0.08);
}

TEST_F(SimFixture, ActiveSocketsReported) {
  EXPECT_EQ(runSim(Strategy::IslandsOfCores, 5).ActiveSockets, 5);
  EXPECT_EQ(runSim(Strategy::Original, 3).ActiveSockets, 3);
}

TEST_F(SimFixture, DefaultKernelVariantIsSimd) {
  // The 4-arg overload models the Simd backend; the calibrated
  // KernelEfficiency corresponds to it (factor 1.0), so every historical
  // simulated number is unchanged by the SimOptions extension.
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = 4;
  ExecutionPlan Plan = buildPlan(M.Program, PaperGrid, Uv, Config);
  SimResult Legacy = simulate(Plan, M.Program, Uv, 10);
  SimOptions Opts;
  Opts.Kernels = KernelVariant::Simd;
  SimResult Explicit = simulate(Plan, M.Program, Uv, 10, Opts);
  EXPECT_DOUBLE_EQ(Legacy.TotalSeconds, Explicit.TotalSeconds);
  EXPECT_EQ(Legacy.FlopsPerStep, Explicit.FlopsPerStep);
}

TEST_F(SimFixture, SlowerKernelBackendsCostMoreTime) {
  // The throughput factors come from bench/bench_kernels: ref < simd
  // Gflop/s, so simulated times must order the other way. Traffic and
  // flop counts are layout-independent and stay identical.
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = 4;
  ExecutionPlan Plan = buildPlan(M.Program, PaperGrid, Uv, Config);
  SimOptions Opts;
  std::map<KernelVariant, SimResult> R;
  for (KernelVariant V : {KernelVariant::Reference, KernelVariant::Simd}) {
    Opts.Kernels = V;
    R.emplace(V, simulate(Plan, M.Program, Uv, 10, Opts));
  }
  EXPECT_GT(R.at(KernelVariant::Reference).TotalSeconds,
            R.at(KernelVariant::Simd).TotalSeconds);
  EXPECT_EQ(R.at(KernelVariant::Reference).DramBytesPerStep,
            R.at(KernelVariant::Simd).DramBytesPerStep);
  EXPECT_EQ(R.at(KernelVariant::Reference).FlopsPerStep,
            R.at(KernelVariant::Simd).FlopsPerStep);
}

TEST_F(SimFixture, ThroughputFactorsAreOrderedAndNormalized) {
  double FRef = kernelThroughputFactor(KernelVariant::Reference);
  double FSimd = kernelThroughputFactor(KernelVariant::Simd);
  EXPECT_LT(FRef, FSimd);
  EXPECT_DOUBLE_EQ(FSimd, 1.0);
}
