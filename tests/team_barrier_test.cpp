//===- tests/team_barrier_test.cpp - Combining-tree barrier tests ---------===//
//
// Correctness of exec/TeamBarrier across spin limits: rendezvous
// semantics (no thread passes until all arrive, memory effects visible
// after release), immediate reusability across many rounds, uneven tree
// shapes (team sizes that do not fill the arity-4 nodes), and the wake
// reporting that feeds ExecStats' spin-vs-sleep counters.
//
//===----------------------------------------------------------------------===//

#include "exec/TeamBarrier.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

using namespace icores;

namespace {

/// One spin limit under test. gtest prints the parameter's bytes into
/// each discovered test name, so Id keeps a fixed number per case
/// (hybrid 1, block 2, hybrid_spin4 3) and the names stay stable.
struct PolicyCase {
  int Id;
  int SpinLimit;
  const char *Name;
};

class TeamBarrierPolicy : public ::testing::TestWithParam<PolicyCase> {};

} // namespace

TEST_P(TeamBarrierPolicy, SingleThreadReturnsImmediately) {
  TeamBarrier B(1, GetParam().SpinLimit);
  for (int Round = 0; Round != 100; ++Round)
    EXPECT_EQ(B.arriveAndWait(0), TeamBarrier::Wake::Spin)
        << "the sole arriver publishes the epoch itself";
}

TEST_P(TeamBarrierPolicy, RendezvousIsCorrectAcrossRounds) {
  // Team sizes straddling the arity-4 node boundaries: 2 (one partial
  // leaf), 5 (two leaves, one singleton), 13 (two tree levels, last leaf
  // holding a single thread).
  constexpr int Rounds = 200;
  for (int N : {2, 5, 13}) {
    TeamBarrier B(N, GetParam().SpinLimit);
    std::vector<int64_t> Values(static_cast<size_t>(N), 0);
    std::atomic<int> Mismatches{0};

    auto Body = [&](int T) {
      for (int64_t Round = 0; Round != Rounds; ++Round) {
        // Phase 1: publish this thread's contribution; the barrier must
        // make it visible to everyone before phase 2 reads it.
        Values[static_cast<size_t>(T)] = Round * N + T;
        B.arriveAndWait(T);
        int64_t Sum = 0;
        for (int I = 0; I != N; ++I)
          Sum += Values[static_cast<size_t>(I)];
        int64_t Want = Round * N * N + N * (N - 1) / 2;
        if (Sum != Want)
          Mismatches.fetch_add(1, std::memory_order_relaxed);
        // Phase 2 barrier: nobody starts the next round's writes while a
        // straggler still sums this round's values.
        B.arriveAndWait(T);
      }
    };
    std::vector<std::thread> Threads;
    for (int T = 0; T != N; ++T)
      Threads.emplace_back(Body, T);
    for (std::thread &Th : Threads)
      Th.join();
    EXPECT_EQ(Mismatches.load(), 0) << "team size " << N;
  }
}

TEST_P(TeamBarrierPolicy, WakeReportingIsConsistent) {
  constexpr int N = 4, Rounds = 50;
  TeamBarrier B(N, GetParam().SpinLimit);
  std::atomic<int64_t> SpinWakes{0}, SleepWakes{0};
  auto Body = [&](int T) {
    for (int Round = 0; Round != Rounds; ++Round) {
      if (B.arriveAndWait(T) == TeamBarrier::Wake::Spin)
        SpinWakes.fetch_add(1, std::memory_order_relaxed);
      else
        SleepWakes.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> Threads;
  for (int T = 0; T != N; ++T)
    Threads.emplace_back(Body, T);
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(SpinWakes.load() + SleepWakes.load(), int64_t{N} * Rounds);
  // Each round's last arriver publishes the epoch itself and never waits.
  EXPECT_GE(SpinWakes.load(), Rounds);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, TeamBarrierPolicy,
    ::testing::Values(
        PolicyCase{1, TeamBarrier::DefaultSpinLimit, "hybrid"},
        // A tiny spin budget forces the futex path to actually run.
        PolicyCase{3, 4, "hybrid_spin4"},
        // No spin at all: every waiter that is not released at once sleeps.
        PolicyCase{2, 0, "block"}),
    [](const ::testing::TestParamInfo<PolicyCase> &Info) {
      return Info.param.Name;
    });

TEST(TeamBarrierTest, StaggeredArrivalsStillRelease) {
  // One deliberately slow thread per round: everyone else must reach the
  // sleep path (tiny spin budget) and still be released.
  constexpr int N = 3, Rounds = 20;
  TeamBarrier B(N, /*SpinLimit=*/1);
  std::atomic<int> Released{0};
  auto Body = [&](int T) {
    for (int Round = 0; Round != Rounds; ++Round) {
      if (T == Round % N)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      B.arriveAndWait(T);
      Released.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> Threads;
  for (int T = 0; T != N; ++T)
    Threads.emplace_back(Body, T);
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(Released.load(), N * Rounds);
}
