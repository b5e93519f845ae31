//===- tests/protocol_check_test.cpp - Protocol model checking ------------===//
//
// Bounded model checking of the two runtime synchronization protocols:
// the TeamBarrier sense-reversal tree must be deadlock- and
// lost-wakeup-free over every interleaving (and the seeded model mutants
// that notify before publishing or block without the atomic re-check must
// be caught), and the extracted RankComm schedules must terminate with no
// cyclic wait or orphaned message, including when any rank dies mid-run.
//
//===----------------------------------------------------------------------===//

#include "apps/Workloads.h"
#include "dist/CommSchedule.h"
#include "support/Diagnostics.h"
#include "verify/ProtocolCheck.h"

#include <gtest/gtest.h>

using namespace icores;

namespace {

const WorkloadSpec &mpdataSpec() {
  return *builtinWorkloads().find("mpdata");
}

//===----------------------------------------------------------------------===//
// TeamBarrier model
//===----------------------------------------------------------------------===//

TEST(ProtocolCheckTest, BarrierModelIsDeadlockFreeAcrossThreadCounts) {
  for (int N : {1, 2, 3, 4, 5}) {
    BarrierModelOptions Opts;
    Opts.NumThreads = N;
    Opts.Crossings = 2;
    DiagnosticEngine Diags;
    BarrierCheckResult R = checkTeamBarrierProtocol(Opts, Diags);
    EXPECT_TRUE(R.Ok) << N << " threads: " << R.Witness;
    EXPECT_FALSE(R.Deadlock);
    EXPECT_GT(R.StatesExplored, 0);
    EXPECT_EQ(Diags.numErrors(), 0u) << Diags.firstErrorMessage();
  }
}

TEST(ProtocolCheckTest, BarrierModelSurvivesSpuriousWakeups) {
  BarrierModelOptions Opts;
  Opts.NumThreads = 3;
  Opts.Crossings = 2;
  Opts.SpuriousBudget = 2;
  DiagnosticEngine Diags;
  BarrierCheckResult R = checkTeamBarrierProtocol(Opts, Diags);
  EXPECT_TRUE(R.Ok) << R.Witness;
}

TEST(ProtocolCheckTest, NotifyBeforePublishMutantDeadlocks) {
  // The classic lost wakeup: the root wakes sleepers before publishing
  // the new epoch, a sleeper re-checks the stale epoch and goes back to
  // sleep with nobody left to wake it. The model must find the trace.
  BarrierModelOptions Opts;
  Opts.NumThreads = 2;
  Opts.Crossings = 2;
  Opts.MutantNotifyBeforePublish = true;
  DiagnosticEngine Diags;
  BarrierCheckResult R = checkTeamBarrierProtocol(Opts, Diags);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Deadlock);
  EXPECT_FALSE(R.Witness.empty());
  EXPECT_TRUE(Diags.hasFinding("protocol.barrier.deadlock"));
}

TEST(ProtocolCheckTest, BlockWithoutRecheckMutantDeadlocks) {
  BarrierModelOptions Opts;
  Opts.NumThreads = 2;
  Opts.Crossings = 2;
  Opts.MutantBlockWithoutRecheck = true;
  DiagnosticEngine Diags;
  BarrierCheckResult R = checkTeamBarrierProtocol(Opts, Diags);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Deadlock);
}

TEST(ProtocolCheckTest, StateCapFailsExplicitly) {
  BarrierModelOptions Opts;
  Opts.NumThreads = 4;
  Opts.Crossings = 2;
  Opts.MaxStates = 10; // Far below the real state count.
  DiagnosticEngine Diags;
  BarrierCheckResult R = checkTeamBarrierProtocol(Opts, Diags);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.StateCapHit);
  EXPECT_FALSE(R.Deadlock);
  EXPECT_TRUE(Diags.hasFinding("protocol.barrier.state-cap"));
}

//===----------------------------------------------------------------------===//
// RankComm schedules
//===----------------------------------------------------------------------===//

TEST(ProtocolCheckTest, MpdataCommScheduleIsCleanAcrossGrids) {
  // Every registered workload's schedule, MPDATA's included.
  for (const WorkloadSpec &Spec : builtinWorkloads().workloads())
    for (auto [PI, PJ] : {std::pair<int, int>{1, 1}, {2, 1}, {2, 2}}) {
      std::vector<RankCommSchedule> S =
          buildCommSchedule(Spec, PI, PJ, 16, 16, 8, 2);
      ASSERT_EQ(S.size(), static_cast<size_t>(PI * PJ));
      DiagnosticEngine Diags;
      CommCheckResult R = checkCommSchedule(S, Diags);
      EXPECT_TRUE(R.Ok) << Spec.Name << " " << PI << "x" << PJ << ": "
                        << R.Witness;
      EXPECT_EQ(R.OrphanedMessages, 0) << Spec.Name;
      EXPECT_GT(R.OpsExecuted, 0) << Spec.Name;
      // MPDATA exchanges u1, u2, u3 and h once and xIn every step; each
      // exchange is two dimensions of two sends and two recvs.
      if (Spec.Name == "mpdata") {
        EXPECT_EQ(S[0].Ops.size(), (4u + 2u) * 8u + 1u);
      }
    }
}

TEST(ProtocolCheckTest, EveryRankDeathStillTerminates) {
  std::vector<RankCommSchedule> S =
      buildCommSchedule(mpdataSpec(), 2, 2, 16, 16, 8, 2);
  for (int Dead = 0; Dead != 4; ++Dead) {
    DiagnosticEngine Diags;
    CommCheckResult R = checkCommSchedule(S, Diags, Dead, /*DeathOp=*/1);
    EXPECT_TRUE(R.Ok) << "rank " << Dead << " dying: " << R.Witness;
  }
}

TEST(ProtocolCheckTest, DroppedSendIsACyclicWait) {
  std::vector<RankCommSchedule> S =
      buildCommSchedule(mpdataSpec(), 2, 1, 16, 16, 8, 1);
  // Erase rank 0's first send: its peer's matching recv can never
  // complete, so the run wedges (recvs block, sends are buffered).
  for (size_t I = 0; I != S[0].Ops.size(); ++I)
    if (S[0].Ops[I].K == CommOp::Kind::Send) {
      S[0].Ops.erase(S[0].Ops.begin() + static_cast<long>(I));
      break;
    }
  DiagnosticEngine Diags;
  CommCheckResult R = checkCommSchedule(S, Diags);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Deadlock);
  EXPECT_TRUE(Diags.hasFinding("protocol.comm.deadlock"));
}

TEST(ProtocolCheckTest, DroppedRecvIsAnOrphanedMessage) {
  std::vector<RankCommSchedule> S =
      buildCommSchedule(mpdataSpec(), 2, 1, 16, 16, 8, 1);
  for (size_t I = 0; I != S[1].Ops.size(); ++I)
    if (S[1].Ops[I].K == CommOp::Kind::Recv) {
      S[1].Ops.erase(S[1].Ops.begin() + static_cast<long>(I));
      break;
    }
  DiagnosticEngine Diags;
  CommCheckResult R = checkCommSchedule(S, Diags);
  EXPECT_FALSE(R.Ok);
  EXPECT_GT(R.OrphanedMessages, 0);
  EXPECT_TRUE(Diags.hasFinding("protocol.comm.orphan-message"));
}

TEST(ProtocolCheckTest, ShrunkPayloadIsASizeMismatch) {
  std::vector<RankCommSchedule> S =
      buildCommSchedule(mpdataSpec(), 2, 1, 16, 16, 8, 1);
  for (CommOp &Op : S[0].Ops)
    if (Op.K == CommOp::Kind::Send) {
      Op.Count -= 1;
      break;
    }
  DiagnosticEngine Diags;
  CommCheckResult R = checkCommSchedule(S, Diags);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(Diags.hasFinding("protocol.comm.size-mismatch"));
}

} // namespace
