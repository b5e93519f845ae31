//===- tests/dist_test.cpp - Distributed (MPI-style) extension tests ------===//

#include "TestMatrix.h"

#include "apps/Workloads.h"
#include "dist/ClusterSim.h"
#include "dist/DistributedSolver.h"
#include "dist/RankComm.h"
#include "fault/FaultInjector.h"
#include "fault/Watchdog.h"
#include "mpdata/MpdataProgram.h"
#include "support/Error.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

using namespace icores;

TEST(RankCommTest, SelfSendReceives) {
  CommWorld World(1);
  RankComm Comm(World, 0);
  double Out[3] = {1.0, 2.0, 3.0};
  double In[3] = {0, 0, 0};
  Comm.send(0, 7, Out, 3);
  Comm.recv(0, 7, In, 3);
  EXPECT_EQ(In[0], 1.0);
  EXPECT_EQ(In[2], 3.0);
}

TEST(RankCommTest, FifoOrderPerChannel) {
  CommWorld World(1);
  RankComm Comm(World, 0);
  for (double V : {1.0, 2.0, 3.0})
    Comm.send(0, 1, &V, 1);
  for (double Expected : {1.0, 2.0, 3.0}) {
    double V = 0.0;
    Comm.recv(0, 1, &V, 1);
    EXPECT_EQ(V, Expected);
  }
}

TEST(RankCommTest, TagsSeparateChannels) {
  CommWorld World(1);
  RankComm Comm(World, 0);
  double A = 1.0, B = 2.0, V = 0.0;
  Comm.send(0, 10, &A, 1);
  Comm.send(0, 20, &B, 1);
  Comm.recv(0, 20, &V, 1);
  EXPECT_EQ(V, 2.0);
  Comm.recv(0, 10, &V, 1);
  EXPECT_EQ(V, 1.0);
}

TEST(RankCommTest, CrossThreadPingPong) {
  CommWorld World(2);
  double Result = 0.0;
  std::thread T1([&] {
    RankComm Comm(World, 0);
    double V = 42.0;
    Comm.send(1, 0, &V, 1);
    Comm.recv(1, 1, &V, 1);
    Result = V;
  });
  std::thread T2([&] {
    RankComm Comm(World, 1);
    double V = 0.0;
    Comm.recv(0, 0, &V, 1);
    V += 1.0;
    Comm.send(0, 1, &V, 1);
  });
  T1.join();
  T2.join();
  EXPECT_EQ(Result, 43.0);
}

TEST(RankCommTest, BarrierSynchronizesAllRanks) {
  const int Ranks = 4;
  CommWorld World(Ranks);
  std::atomic<int> Arrived{0};
  std::atomic<bool> Violated{false};
  std::vector<std::thread> Threads;
  for (int R = 0; R != Ranks; ++R)
    Threads.emplace_back([&, R] {
      RankComm Comm(World, R);
      ++Arrived;
      Comm.barrier();
      if (Arrived.load() != Ranks)
        Violated = true;
      Comm.barrier(); // Reusable.
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_FALSE(Violated.load());
}

namespace {

/// Shared workload for distributed-vs-reference comparisons: the
/// registered MPDATA spec, seeded alike on every runner.
struct DistWorkload {
  int NI = 24, NJ = 10, NK = 6;
  int Steps = 3;
  uint64_t Seed = 5;
  const WorkloadSpec &Spec = *builtinWorkloads().find("mpdata");
  ArrayId Psi = buildMpdataProgram().XIn;

  Array3D reference() const {
    auto Oracle =
        serialOracle(Spec, workloadDomain(Spec, NI, NJ, NK), Steps, Seed);
    Box3 Core = Box3::fromExtents(NI, NJ, NK);
    Array3D Result(Core);
    Result.copyRegionFrom(Oracle->array(Psi), Core);
    return Result;
  }

  DistributedResult run(int PI, int PJ, FaultInjector *Injector = nullptr,
                        const CommTimeouts &Timeouts = {}) const {
    return runDistributed(Spec, KernelVariant::Reference, PI, PJ, NI, NJ, NK,
                          Steps, Seed, Injector, Timeouts);
  }
};

class DistributedEquivalence : public ::testing::TestWithParam<int> {};

} // namespace

TEST_P(DistributedEquivalence, MatchesReferenceBitExactly) {
  DistWorkload W;
  int Ranks = GetParam();
  Array3D Reference = W.reference();
  DistributedResult R = W.run(Ranks, 1);
  ASSERT_TRUE(R.Ok) << R.RankErrors.front();
  EXPECT_EQ(R.array(W.Psi).maxAbsDiff(Reference,
                                      Box3::fromExtents(W.NI, W.NJ, W.NK)),
            0.0)
      << "ranks=" << Ranks;
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistributedEquivalence,
                         ::testing::Values(1, 2, 3, 4, 6),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           return "ranks" + std::to_string(Info.param);
                         });

namespace {

class Distributed2DEquivalence
    : public ::testing::TestWithParam<std::pair<int, int>> {};

} // namespace

TEST_P(Distributed2DEquivalence, MatchesReferenceBitExactly) {
  // 2D rank grids (the paper's other future-work item): two-phase halo
  // exchange with corners, cone recomputation in both dimensions.
  auto [PI, PJ] = GetParam();
  DistWorkload W;
  Array3D Reference = W.reference();
  DistributedResult R = W.run(PI, PJ);
  ASSERT_TRUE(R.Ok) << R.RankErrors.front();
  EXPECT_EQ(R.array(W.Psi).maxAbsDiff(Reference,
                                      Box3::fromExtents(W.NI, W.NJ, W.NK)),
            0.0)
      << "grid " << PI << "x" << PJ;
}

INSTANTIATE_TEST_SUITE_P(
    RankGrids, Distributed2DEquivalence,
    ::testing::Values(std::pair{1, 2}, std::pair{2, 2}, std::pair{3, 2},
                      std::pair{4, 2}, std::pair{2, 3}),
    [](const ::testing::TestParamInfo<std::pair<int, int>> &Info) {
      return "grid" + std::to_string(Info.param.first) + "x" +
             std::to_string(Info.param.second);
    });

namespace {

/// Tight retry budget for the directed fault tests: drops are re-fetched
/// from the retransmit log on the first timeout tick.
CommTimeouts tightTimeouts() {
  CommTimeouts T;
  T.InitialBackoffSeconds = 2e-4;
  T.MaxBackoffSeconds = 4e-3;
  T.MaxRetries = 120;
  return T;
}

/// A plan injecting exactly one fault class at rate 1.0 — every message
/// of the run takes that fault, at every protocol boundary the workload
/// crosses (halo exchange, reduction, the paired collective sends).
FaultPlan saturatedPlan(double FaultPlan::*Rate) {
  FaultPlan Plan;
  Plan.Seed = 1;
  Plan.*Rate = 1.0;
  Plan.MaxDelaySeconds = 5e-4;
  return Plan;
}

class DirectedMessageFaults
    : public ::testing::TestWithParam<std::pair<double FaultPlan::*,
                                                const char *>> {};

} // namespace

TEST_P(DirectedMessageFaults, HaloExchangeRecoversBitExactly) {
  // Every message of the halo-exchange protocol suffers this fault class;
  // the run must still match the fault-free result bit for bit.
  auto [Rate, Name] = GetParam();
  Watchdog Dog(60.0, std::string("dist_test: directed ") + Name);
  DistWorkload W;
  Array3D Reference = W.reference();
  FaultInjector Injector(saturatedPlan(Rate));
  DistributedResult R = W.run(2, 1, &Injector, tightTimeouts());
  ASSERT_TRUE(R.Ok) << Name << ": " << R.RankErrors.front();
  EXPECT_EQ(R.array(W.Psi).maxAbsDiff(Reference,
                                      Box3::fromExtents(W.NI, W.NJ, W.NK)),
            0.0)
      << Name;
  EXPECT_GT(R.Faults.Injected, 0) << Name;
  EXPECT_GT(R.Faults.Recovered, 0) << Name;
}

INSTANTIATE_TEST_SUITE_P(
    FaultClasses, DirectedMessageFaults,
    ::testing::Values(std::pair{&FaultPlan::DropRate, "drop"},
                      std::pair{&FaultPlan::DelayRate, "delay"},
                      std::pair{&FaultPlan::DuplicateRate, "duplicate"},
                      std::pair{&FaultPlan::CorruptRate, "corrupt"}),
    [](const ::testing::TestParamInfo<
        std::pair<double FaultPlan::*, const char *>> &Info) {
      return Info.param.second;
    });

TEST(RankCommFaultTest, AllreduceSurvivesEveryRecoverableFaultClass) {
  // The reduction rides the resilient point-to-point path: saturate each
  // fault class in turn and demand the exact deterministic sum.
  Watchdog Dog(60.0, "dist_test: allreduce under faults");
  for (double FaultPlan::*Rate :
       {&FaultPlan::DropRate, &FaultPlan::DelayRate,
        &FaultPlan::DuplicateRate, &FaultPlan::CorruptRate}) {
    FaultInjector Injector(saturatedPlan(Rate));
    const int Ranks = 3;
    CommWorld World(Ranks);
    World.arm(&Injector);
    World.setTimeouts(tightTimeouts());
    std::vector<double> Sums(Ranks, 0.0);
    std::vector<std::thread> Threads;
    for (int R = 0; R != Ranks; ++R)
      Threads.emplace_back([&, R] {
        RankComm Comm(World, R);
        Sums[static_cast<size_t>(R)] =
            Comm.allreduceSum(static_cast<double>(R + 1) * 1.25);
      });
    for (std::thread &T : Threads)
      T.join();
    for (int R = 0; R != Ranks; ++R)
      EXPECT_EQ(Sums[static_cast<size_t>(R)], 1.25 + 2.5 + 3.75)
          << "rank " << R;
  }
}

TEST(RankCommFaultTest, ZeroPayloadMessagesSurviveFaults) {
  // Zero-length payloads cross the checksum/corruption path (corruption
  // must skip an empty payload) and the retransmit log.
  Watchdog Dog(60.0, "dist_test: zero-payload");
  for (bool Armed : {false, true}) {
    FaultPlan Plan;
    Plan.Seed = 3;
    Plan.DropRate = Armed ? 1.0 : 0.0;
    Plan.CorruptRate = Armed ? 1.0 : 0.0;
    FaultInjector Injector(Plan);
    CommWorld World(1);
    if (Armed) {
      World.arm(&Injector);
      World.setTimeouts(tightTimeouts());
    }
    RankComm Comm(World, 0);
    Comm.send(0, 5, nullptr, 0);
    Comm.recv(0, 5, nullptr, 0);
    double V = 9.0, Out = 0.0;
    Comm.send(0, 6, &V, 1);
    Comm.recv(0, 6, &Out, 1);
    EXPECT_EQ(Out, 9.0) << (Armed ? "armed" : "unarmed");
  }
}

TEST(RankCommFaultTest, SingleRankSelfSendRecoversFromDrops) {
  Watchdog Dog(60.0, "dist_test: single-rank self-send");
  FaultInjector Injector(saturatedPlan(&FaultPlan::DropRate));
  CommWorld World(1);
  World.arm(&Injector);
  World.setTimeouts(tightTimeouts());
  RankComm Comm(World, 0);
  for (double V : {1.5, 2.5, 3.5}) {
    Comm.send(0, 2, &V, 1);
    double Out = 0.0;
    Comm.recv(0, 2, &Out, 1);
    EXPECT_EQ(Out, V);
  }
  EXPECT_EQ(Injector.stats().Injected, 3);
  EXPECT_EQ(Injector.stats().Recovered, 3);
}

TEST(RankCommFaultTest, ChecksumDetectsEveryFlippedBit) {
  double Payload[2] = {1.0, -2.0};
  uint64_t Clean = commChecksum(Payload, 2);
  for (int Bit = 0; Bit != 128; ++Bit) {
    double Copy[2] = {Payload[0], Payload[1]};
    reinterpret_cast<unsigned char *>(Copy)[Bit / 8] ^=
        static_cast<unsigned char>(1u << (Bit % 8));
    EXPECT_NE(commChecksum(Copy, 2), Clean) << "bit " << Bit;
  }
}

TEST(RankCommFaultTest, PoisonedWorldFailsBlockedRecvFast) {
  // The abnormal-exit regression: a peer that dies must not leave a
  // blocked recv() waiting out its full ~30 s default retry budget — the
  // poison broadcast has to wake and fail it immediately.
  Watchdog Dog(60.0, "dist_test: poisoned world");
  CommWorld World(2);
  std::atomic<bool> Failed{false};
  std::atomic<double> WaitedSeconds{0.0};
  std::thread Victim([&] {
    RankComm Comm(World, 1);
    double V = 0.0;
    auto Start = std::chrono::steady_clock::now();
    try {
      Comm.recv(0, 0, &V, 1); // Rank 0 will never send.
    } catch (const Error &E) {
      Failed = E.kind() == Error::Kind::WorldPoisoned;
    }
    WaitedSeconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - Start)
                        .count();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  World.poison(0, "rank 0 aborted (test)");
  Victim.join();
  EXPECT_TRUE(Failed.load());
  EXPECT_LT(WaitedSeconds.load(), 10.0); // Far below the retry budget.
  EXPECT_TRUE(World.poisoned());
  EXPECT_NE(World.poisonReason().find("aborted"), std::string::npos);
}

TEST(RankCommFaultTest, PoisonedWorldReleasesBarrierAndBlocksSend) {
  Watchdog Dog(60.0, "dist_test: poisoned barrier");
  CommWorld World(2);
  std::atomic<bool> BarrierThrew{false};
  std::thread Waiter([&] {
    RankComm Comm(World, 1);
    try {
      Comm.barrier(); // Rank 0 never arrives.
    } catch (const Error &E) {
      BarrierThrew = E.kind() == Error::Kind::WorldPoisoned;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  World.poison(0, "rank 0 aborted (test)");
  Waiter.join();
  EXPECT_TRUE(BarrierThrew.load());
  // Later traffic fails fast too.
  RankComm Comm(World, 0);
  double V = 1.0;
  EXPECT_THROW(Comm.send(1, 0, &V, 1), Error);
}

TEST(RankCommFaultTest, GlobalMassIsIdenticalOnEveryRank) {
  Watchdog Dog(60.0, "dist_test: global mass");
  DistWorkload W;
  const int Ranks = 2;
  CommWorld World(Ranks);
  std::vector<double> Masses(Ranks, -1.0);
  std::vector<std::thread> Threads;
  for (int R = 0; R != Ranks; ++R)
    Threads.emplace_back([&, R] {
      RankComm Comm(World, R);
      DistributedRank Rank(Comm, W.Spec, KernelVariant::Reference, W.NI,
                           W.NJ, W.NK, Ranks, 1, W.Seed);
      Rank.prepareInputs();
      // The registered init sets h = 1, so the sum of psi is the mass.
      Masses[static_cast<size_t>(R)] = Rank.globalSum(W.Psi);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Masses[0], Masses[1]);
  EXPECT_GT(Masses[0], 0.0);
}

TEST(ClusterSimTest, TwoDimensionalGridCutsRedundantWork) {
  // At 16 nodes the 1D decomposition makes 224 sliver islands; a 4x4 node
  // grid keeps parts chunkier and must waste fewer redundant flops and
  // run faster.
  MpdataProgram M = buildMpdataProgram();
  ClusterModel Cluster;
  Cluster.Node = makeSgiUv2000();
  Cluster.NumNodes = 16;
  Box3 Grid = Box3::fromExtents(1024, 1024, 64);
  ClusterSimResult R1D = simulateCluster(M.Program, Grid, Cluster, 14, 50);
  ClusterSimResult R2D =
      simulateCluster2D(M.Program, Grid, Cluster, 4, 4, 14, 50);
  EXPECT_LT(R2D.FlopsPerStep, R1D.FlopsPerStep);
  EXPECT_LT(R2D.TotalSeconds, R1D.TotalSeconds);
}

TEST(ClusterSimTest, SingleNodeMatchesLocalIslandsOrder) {
  MpdataProgram M = buildMpdataProgram();
  ClusterModel Cluster;
  Cluster.Node = makeSgiUv2000();
  Cluster.NumNodes = 1;
  Box3 Grid = Box3::fromExtents(1024, 512, 64);
  ClusterSimResult R = simulateCluster(M.Program, Grid, Cluster, 14, 50);
  EXPECT_EQ(R.CommSecondsPerStep, 0.0);
  EXPECT_GT(R.TotalSeconds, 0.5);
  EXPECT_LT(R.TotalSeconds, 3.0); // Near the single-machine islands time.
}

TEST(ClusterSimTest, ThroughputGrowsButEfficiencyDecays) {
  MpdataProgram M = buildMpdataProgram();
  ClusterModel Cluster;
  Cluster.Node = makeSgiUv2000();
  Box3 Grid = Box3::fromExtents(1024, 512, 64);
  double Prev = 1e300;
  double Gflops1 = 0.0;
  for (int N : {1, 2, 4, 8}) {
    Cluster.NumNodes = N;
    ClusterSimResult R = simulateCluster(M.Program, Grid, Cluster, 14, 50);
    EXPECT_LT(R.TotalSeconds, Prev) << "N=" << N;
    Prev = R.TotalSeconds;
    if (N == 1)
      Gflops1 = R.sustainedGflops();
  }
  Cluster.NumNodes = 8;
  ClusterSimResult R8 = simulateCluster(M.Program, Grid, Cluster, 14, 50);
  // Redundant cone work of 112 thin 1D islands erodes efficiency: well
  // below linear (motivates the 2D decomposition of future work).
  EXPECT_LT(R8.sustainedGflops(), 8.0 * Gflops1);
}

TEST(ClusterSimTest, SlowNetworkAddsCommTime) {
  MpdataProgram M = buildMpdataProgram();
  ClusterModel Fast;
  Fast.Node = makeSgiUv2000();
  Fast.NumNodes = 4;
  ClusterModel Slow = Fast;
  Slow.NetworkBandwidth /= 100.0;
  Box3 Grid = Box3::fromExtents(1024, 512, 64);
  ClusterSimResult RF = simulateCluster(M.Program, Grid, Fast, 14, 50);
  ClusterSimResult RS = simulateCluster(M.Program, Grid, Slow, 14, 50);
  EXPECT_GT(RS.CommSecondsPerStep, RF.CommSecondsPerStep * 10.0);
  EXPECT_GT(RS.TotalSeconds, RF.TotalSeconds);
}
