//===- tests/fault_injection_test.cpp - Chaos subsystem tests -------------===//
//
// The chaos/property harness of the fault-injection subsystem (src/fault):
// plan determinism, spec parsing, and the two runtime contracts — a
// recoverable fault plan must leave a distributed run bit-identical to the
// fault-free run, and an unrecoverable one must end in a structured
// icores::Error naming the injected fault, never in a deadlock (every
// blocking scenario runs under a Watchdog).
//
//===----------------------------------------------------------------------===//

#include "apps/Workloads.h"
#include "core/PlanBuilder.h"
#include "dist/DistributedSolver.h"
#include "exec/ProgramExecutor.h"
#include "fault/FaultInjector.h"
#include "fault/Watchdog.h"
#include "machine/MachineModel.h"
#include "mpdata/InitialConditions.h"
#include "mpdata/Kernels.h"
#include "support/Error.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace icores;

namespace {

/// Tight retry budget for chaos runs: the retransmit log answers a
/// re-request on the first timeout tick, so recoverable runs stay far
/// from exhaustion while lethal ones fail in well under a second.
CommTimeouts tightTimeouts() {
  CommTimeouts T;
  T.InitialBackoffSeconds = 2e-4;
  T.MaxBackoffSeconds = 4e-3;
  T.MaxRetries = 120;
  return T;
}

/// Small distributed workload shared by the property tests: the
/// registered MPDATA spec on two ranks.
struct ChaosWorkload {
  int PI = 2, PJ = 1;
  int NI = 14, NJ = 8, NK = 4;
  int Steps = 1;
  uint64_t Seed = 5;
  const WorkloadSpec &Spec = *builtinWorkloads().find("mpdata");
  ArrayId Psi = buildMpdataProgram().XIn;

  Box3 core() const { return Box3::fromExtents(NI, NJ, NK); }

  DistributedResult run(FaultInjector *Injector) const {
    return runDistributed(Spec, KernelVariant::Reference, PI, PJ, NI, NJ, NK,
                          Steps, Seed, Injector,
                          Injector ? tightTimeouts() : CommTimeouts());
  }
};

/// A random recoverable plan: every rate a pure function of the seed.
FaultPlan randomRecoverablePlan(uint64_t Seed) {
  FaultPlan Plan;
  Plan.Seed = Seed;
  SplitMix64 Rng(Seed ^ 0xfa017ULL);
  Plan.DropRate = Rng.nextInRange(0.0, 0.2);
  Plan.DelayRate = Rng.nextInRange(0.0, 0.2);
  Plan.DuplicateRate = Rng.nextInRange(0.0, 0.2);
  Plan.CorruptRate = Rng.nextInRange(0.0, 0.2);
  Plan.MaxDelaySeconds = 5e-4;
  return Plan;
}

std::vector<std::string> sortedTrace(const FaultInjector &Injector) {
  std::vector<std::string> T = Injector.trace();
  std::sort(T.begin(), T.end());
  return T;
}

bool mentions(const std::vector<std::string> &Entries, const char *What) {
  for (const std::string &E : Entries)
    if (E.find(What) != std::string::npos)
      return true;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// FaultPlan: pure, seeded decisions.
//===----------------------------------------------------------------------===//

TEST(FaultPlanTest, DecisionsArePureFunctionsOfSeedAndSite) {
  FaultPlan Plan;
  Plan.Seed = 42;
  Plan.DropRate = Plan.DelayRate = Plan.DuplicateRate = Plan.CorruptRate =
      Plan.LoseRate = 0.3;
  Plan.StallRate = Plan.WakeRate = 0.3;
  for (uint64_t Seq = 0; Seq != 200; ++Seq) {
    MessageFaultDecision A = Plan.messageFaults(0, 1, 7, Seq, 16);
    MessageFaultDecision B = Plan.messageFaults(0, 1, 7, Seq, 16);
    EXPECT_EQ(A.Lose, B.Lose);
    EXPECT_EQ(A.Drop, B.Drop);
    EXPECT_EQ(A.Duplicate, B.Duplicate);
    EXPECT_EQ(A.CorruptBit, B.CorruptBit);
    EXPECT_EQ(A.DelaySeconds, B.DelaySeconds);
    EXPECT_EQ(Plan.workerStall(0, 1, 2, static_cast<int>(Seq)),
              Plan.workerStall(0, 1, 2, static_cast<int>(Seq)));
    EXPECT_EQ(Plan.spuriousWake(1, 0, Seq), Plan.spuriousWake(1, 0, Seq));
  }
}

TEST(FaultPlanTest, DifferentSeedsGiveDifferentFaultSets) {
  FaultPlan A, B;
  A.Seed = 1;
  B.Seed = 2;
  A.DropRate = B.DropRate = 0.5;
  int Differences = 0;
  for (uint64_t Seq = 0; Seq != 64; ++Seq)
    if (A.messageFaults(0, 1, 0, Seq, 8).Drop !=
        B.messageFaults(0, 1, 0, Seq, 8).Drop)
      ++Differences;
  EXPECT_GT(Differences, 0);
}

TEST(FaultPlanTest, AtMostOneMessageFaultClassPerSite) {
  FaultPlan Plan;
  Plan.Seed = 99;
  Plan.DropRate = Plan.DelayRate = Plan.DuplicateRate = Plan.CorruptRate =
      Plan.LoseRate = 0.9;
  for (uint64_t Seq = 0; Seq != 200; ++Seq) {
    MessageFaultDecision D = Plan.messageFaults(1, 0, 3, Seq, 8);
    int Classes = (D.Lose ? 1 : 0) + (D.Drop ? 1 : 0) +
                  (D.Duplicate ? 1 : 0) + (D.CorruptBit >= 0 ? 1 : 0) +
                  (D.DelaySeconds > 0 ? 1 : 0);
    EXPECT_LE(Classes, 1) << "seq " << Seq;
  }
}

TEST(FaultPlanTest, CorruptionSkipsEmptyPayloads) {
  FaultPlan Plan;
  Plan.Seed = 7;
  Plan.CorruptRate = 1.0;
  for (uint64_t Seq = 0; Seq != 32; ++Seq)
    EXPECT_EQ(Plan.messageFaults(0, 1, 0, Seq, 0).CorruptBit, -1);
  // And the bit index always lands inside the payload.
  for (uint64_t Seq = 0; Seq != 64; ++Seq) {
    int Bit = Plan.messageFaults(0, 1, 0, Seq, 3).CorruptBit;
    EXPECT_GE(Bit, 0);
    EXPECT_LT(Bit, 3 * 64);
  }
}

TEST(FaultPlanTest, InactivePlanInjectsNothing) {
  FaultPlan Plan;
  Plan.Seed = 5;
  EXPECT_FALSE(Plan.active());
  for (uint64_t Seq = 0; Seq != 32; ++Seq) {
    EXPECT_FALSE(Plan.messageFaults(0, 1, 0, Seq, 8).any());
    EXPECT_EQ(Plan.workerStall(0, 0, 0, static_cast<int>(Seq)), 0.0);
    EXPECT_FALSE(Plan.spuriousWake(0, 0, Seq));
  }
}

//===----------------------------------------------------------------------===//
// --chaos= spec parsing.
//===----------------------------------------------------------------------===//

TEST(FaultSpecTest, BareSeedArmsDefaultMixedPlan) {
  FaultPlan Plan;
  std::string Err;
  ASSERT_TRUE(parseFaultSpec("123", Plan, Err)) << Err;
  EXPECT_EQ(Plan.Seed, 123u);
  EXPECT_TRUE(Plan.active());
  EXPECT_EQ(Plan.LoseRate, 0.0); // Defaults stay recoverable.
}

TEST(FaultSpecTest, ExplicitRatesParse) {
  FaultPlan Plan;
  std::string Err;
  ASSERT_TRUE(parseFaultSpec("7,drop=0.5,corrupt=0.25,stall=0.1,"
                             "maxstall=0.002",
                             Plan, Err))
      << Err;
  EXPECT_EQ(Plan.Seed, 7u);
  EXPECT_EQ(Plan.DropRate, 0.5);
  EXPECT_EQ(Plan.CorruptRate, 0.25);
  EXPECT_EQ(Plan.StallRate, 0.1);
  EXPECT_EQ(Plan.MaxStallSeconds, 0.002);
  EXPECT_EQ(Plan.DelayRate, 0.0); // Explicit keys disable the defaults.
}

TEST(FaultSpecTest, MalformedSpecsAreRejected) {
  FaultPlan Plan;
  std::string Err;
  EXPECT_FALSE(parseFaultSpec("", Plan, Err));
  EXPECT_FALSE(parseFaultSpec("notanumber", Plan, Err));
  EXPECT_FALSE(parseFaultSpec("1,bogus=0.5", Plan, Err));
  EXPECT_FALSE(parseFaultSpec("1,drop", Plan, Err));
  EXPECT_FALSE(parseFaultSpec("1,drop=1.5", Plan, Err));
  EXPECT_FALSE(parseFaultSpec("1,drop=-0.5", Plan, Err));
}

TEST(FaultSpecTest, UnknownKeysNameTheValidOnes) {
  // A typo'd key must fail the whole parse (no "clean run reported as
  // chaos-enabled") and the error should teach the valid spelling.
  FaultPlan Plan;
  std::string Err;
  ASSERT_FALSE(parseFaultSpec("1,dorp=0.5", Plan, Err));
  EXPECT_NE(Err.find("unknown chaos field 'dorp'"), std::string::npos) << Err;
  EXPECT_NE(Err.find("drop"), std::string::npos) << Err;
}

TEST(FaultSpecTest, LatencyBoundsAloneKeepDefaultMixedPlan) {
  // maxdelay/maxstall only bound injected latencies; they are not rates.
  // A spec giving only bounds used to suppress the bare-seed defaults,
  // yielding an all-zero plan that injected nothing while the run banner
  // still said chaos was on.
  FaultPlan Plan;
  std::string Err;
  ASSERT_TRUE(parseFaultSpec("9,maxstall=0.001,maxdelay=0.004", Plan, Err))
      << Err;
  EXPECT_TRUE(Plan.active());
  EXPECT_EQ(Plan.DropRate, 0.05);
  EXPECT_EQ(Plan.StallRate, 0.05);
  EXPECT_EQ(Plan.MaxStallSeconds, 0.001);
  EXPECT_EQ(Plan.MaxDelaySeconds, 0.004);
}

TEST(FaultSpecTest, DuplicateKeysAreRejected) {
  FaultPlan Plan;
  std::string Err;
  ASSERT_FALSE(parseFaultSpec("1,drop=0.5,drop=0", Plan, Err));
  EXPECT_NE(Err.find("duplicate chaos field 'drop'"), std::string::npos)
      << Err;
  ASSERT_FALSE(parseFaultSpec("1,maxstall=0.1,maxstall=0.2", Plan, Err));
  EXPECT_NE(Err.find("duplicate"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Property: recovered distributed runs are bit-identical to fault-free.
//===----------------------------------------------------------------------===//

TEST(FaultInjectionProperty, HundredRandomPlansRecoverBitExactly) {
  Watchdog Dog(120.0, "fault_injection_test: 100-plan property sweep");
  ChaosWorkload W;
  DistributedResult Baseline = W.run(nullptr);
  ASSERT_TRUE(Baseline.Ok);

  for (uint64_t Seed = 0; Seed != 100; ++Seed) {
    FaultPlan Plan = randomRecoverablePlan(Seed * 2654435761ULL + 17);
    FaultInjector Injector(Plan);
    DistributedResult R = W.run(&Injector);
    ASSERT_TRUE(R.Ok) << "seed " << Seed << ": "
                      << R.RankErrors.front();
    ASSERT_EQ(R.array(W.Psi).maxAbsDiff(Baseline.array(W.Psi), W.core()),
              0.0)
        << "seed " << Seed << " diverged under recoverable faults";
  }
}

TEST(FaultInjectionProperty, SameSeedReplaysIdenticalFaultMultiset) {
  Watchdog Dog(60.0, "fault_injection_test: replay determinism");
  ChaosWorkload W;
  for (uint64_t Seed : {3u, 17u, 4242u}) {
    FaultPlan Plan = randomRecoverablePlan(Seed);
    FaultInjector A(Plan), B(Plan);
    DistributedResult RA = W.run(&A);
    DistributedResult RB = W.run(&B);
    ASSERT_TRUE(RA.Ok && RB.Ok) << "seed " << Seed;
    EXPECT_EQ(sortedTrace(A), sortedTrace(B)) << "seed " << Seed;
    EXPECT_GT(A.stats().Injected, 0) << "seed " << Seed;
  }
}

TEST(FaultInjectionTest, UnrecoverableLossFailsStructurally) {
  Watchdog Dog(60.0, "fault_injection_test: lose-armed run");
  ChaosWorkload W;
  FaultPlan Plan;
  Plan.Seed = 11;
  Plan.LoseRate = 1.0; // Every message dies: exhaustion is certain.
  FaultInjector Injector(Plan);
  DistributedResult R = W.run(&Injector);
  ASSERT_FALSE(R.Ok);
  ASSERT_FALSE(R.RankErrors.empty());
  EXPECT_NE(R.RankErrors.front().find("exhausted"), std::string::npos)
      << R.RankErrors.front();
  ASSERT_FALSE(R.ErrorTrace.empty());
  EXPECT_TRUE(mentions(R.ErrorTrace, "lose"));
  EXPECT_GT(R.Faults.Retries, 0);
}

TEST(FaultInjectionTest, PartialLossEitherRecoversOrNamesTheFault) {
  // The acceptance contract of tools/chaos_runner, in miniature: at a
  // moderate lose rate a run either completes bit-exactly or dies with a
  // structured error whose trace names a lost message.
  Watchdog Dog(60.0, "fault_injection_test: partial loss");
  ChaosWorkload W;
  DistributedResult Baseline = W.run(nullptr);
  ASSERT_TRUE(Baseline.Ok);
  for (uint64_t Seed = 0; Seed != 8; ++Seed) {
    FaultPlan Plan;
    Plan.Seed = Seed;
    Plan.DropRate = 0.1;
    Plan.LoseRate = 0.1;
    FaultInjector Injector(Plan);
    DistributedResult R = W.run(&Injector);
    if (R.Ok)
      EXPECT_EQ(R.array(W.Psi).maxAbsDiff(Baseline.array(W.Psi), W.core()),
                0.0)
          << "seed " << Seed;
    else
      EXPECT_TRUE(mentions(R.ErrorTrace, "lose")) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Executor chaos: stalls and spurious wakeups perturb timing, not data.
//===----------------------------------------------------------------------===//

namespace {

Array3D executorChaosRun(FaultInjector *Chaos,
                         TeamBarrier::WaitPolicy Policy) {
  MpdataProgram M = buildMpdataProgram();
  Domain Dom(16, 12, 6, mpdataHaloDepth());
  MachineModel Machine = makeToyMachine();
  Machine.NumSockets = 2;
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = 2;
  ExecutionPlan Plan =
      buildPlan(M.Program, Dom.coreBox(), Machine, Config);
  ExecutorOptions Opts;
  Opts.BarrierPolicy = Policy;
  Opts.BarrierSpinLimit = 64; // Reach the sleep path quickly.
  Opts.Chaos = Chaos;
  ProgramExecutor Exec(M.Program, buildMpdataKernels(), Dom,
                       std::move(Plan), Opts);
  seedMpdata(Exec, M, 77, 0.1, 2.0, 0.3, -0.25, 0.2);
  Exec.run(3);
  Array3D Result(Exec.domain().allocBox());
  Result.copyRegionFrom(Exec.array(M.XIn), Exec.domain().coreBox());
  return Result;
}

} // namespace

TEST(FaultInjectionTest, ExecutorChaosStaysBitExact) {
  Watchdog Dog(60.0, "fault_injection_test: executor chaos");
  Array3D Clean =
      executorChaosRun(nullptr, TeamBarrier::WaitPolicy::Hybrid);
  FaultPlan Plan;
  Plan.Seed = 21;
  Plan.StallRate = 0.3;
  Plan.WakeRate = 0.5;
  Plan.MaxStallSeconds = 5e-4;
  Plan.StallTimeoutSeconds = 1e-4; // Injected stalls trip the detector.
  FaultInjector Injector(Plan);
  Array3D Chaotic =
      executorChaosRun(&Injector, TeamBarrier::WaitPolicy::Hybrid);
  EXPECT_EQ(Chaotic.maxAbsDiff(Clean, Box3::fromExtents(16, 12, 6)), 0.0);
  FaultStats FS = Injector.stats();
  EXPECT_GT(FS.Injected, 0);
  EXPECT_TRUE(mentions(Injector.trace(), "stall"));
}

TEST(FaultInjectionTest, SpuriousWakesSurviveEveryWaitPolicy) {
  Watchdog Dog(60.0, "fault_injection_test: spurious wakes");
  for (TeamBarrier::WaitPolicy Policy :
       {TeamBarrier::WaitPolicy::Spin, TeamBarrier::WaitPolicy::Hybrid,
        TeamBarrier::WaitPolicy::Block}) {
    Array3D Clean = executorChaosRun(nullptr, Policy);
    FaultPlan Plan;
    Plan.Seed = 31;
    Plan.WakeRate = 1.0; // Every crossing forces a spurious notify.
    FaultInjector Injector(Plan);
    Array3D Chaotic = executorChaosRun(&Injector, Policy);
    EXPECT_EQ(Chaotic.maxAbsDiff(Clean, Box3::fromExtents(16, 12, 6)),
              0.0)
        << waitPolicyName(Policy);
    EXPECT_TRUE(mentions(Injector.trace(), "wake"))
        << waitPolicyName(Policy);
  }
}

TEST(FaultInjectionTest, ExecutorMirrorsFaultCountersIntoStatsV5) {
  Watchdog Dog(60.0, "fault_injection_test: stats v3 mirror");
  FaultPlan Plan;
  Plan.Seed = 13;
  Plan.StallRate = 0.5;
  Plan.MaxStallSeconds = 5e-4;
  Plan.StallTimeoutSeconds = 1e-4;
  FaultInjector Injector(Plan);

  MpdataProgram M = buildMpdataProgram();
  Domain Dom(16, 12, 6, mpdataHaloDepth());
  MachineModel Machine = makeToyMachine();
  Machine.NumSockets = 2;
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = 2;
  ExecutionPlan Plan2 =
      buildPlan(M.Program, Dom.coreBox(), Machine, Config);
  ExecutorOptions Opts;
  Opts.Chaos = &Injector;
  ProgramExecutor Exec(M.Program, buildMpdataKernels(), Dom,
                       std::move(Plan2), Opts);
  seedMpdata(Exec, M, 77, 0.1, 2.0, 0.3, -0.25, 0.2);
  Exec.run(2);

  const ExecStats &Stats = Exec.stats();
  EXPECT_EQ(Stats.FaultsInjected, Injector.stats().Injected);
  EXPECT_GT(Stats.FaultsInjected, 0);
  std::string Json = Stats.toJsonString();
  EXPECT_NE(Json.find("\"schema\": \"icores.exec_stats.v5\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"faults_injected\""), std::string::npos);
  EXPECT_NE(Json.find("\"timeouts\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Watchdog: disarms cleanly when the guarded scope finishes.
//===----------------------------------------------------------------------===//

TEST(WatchdogTest, DisarmsWhenScopeExitsInTime) {
  // A hang here would abort the whole process, which *is* the assertion.
  Watchdog Dog(30.0, "watchdog self-test");
  SUCCEED();
}
