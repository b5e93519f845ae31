//===- tests/chaos_soak_test.cpp - Randomized chaos soak (tier 2) ---------===//
//
// A time-budgeted randomized sweep of the chaos subsystem, built as its
// own executable and labelled `soak` in ctest so tier-1 runs keep it on a
// ~2-second budget while CI's TSan job stretches it to 30 seconds via the
// ICORES_SOAK_SECONDS environment variable.
//
// Each iteration draws a fresh seed and cycles through the cross product
// of plan strategy x kernel backend x barrier wait policy, running the
// threaded executor under stall/wake chaos — and every few iterations a
// distributed run under message chaos — asserting bit-exactness against
// the fault-free result each time. The interesting property is not any
// single configuration but that no (strategy, backend, policy, seed)
// combination deadlocks or diverges under injected faults.
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
#include "stencil/SerialStepper.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>

using namespace icores;

namespace {

/// Wall-clock budget: ICORES_SOAK_SECONDS, default 2 (tier-1 friendly).
double soakBudgetSeconds() {
  const char *Env = std::getenv("ICORES_SOAK_SECONDS");
  if (!Env || !*Env)
    return 2.0;
  double Val = std::strtod(Env, nullptr);
  return Val > 0 ? Val : 2.0;
}

constexpr int GridNI = 16, GridNJ = 12, GridNK = 6, TimeSteps = 2;

Array3D referenceResult() {
  const MpdataProgram M = buildMpdataProgram();
  SerialStepper Solver(M.Program, buildMpdataKernels(),
                       Domain(GridNI, GridNJ, GridNK, mpdataHaloDepth()));
  seedMpdata(Solver, M, 555, 0.1, 2.0, 0.3, -0.25, 0.2);
  Solver.run(TimeSteps);
  Array3D Result(Solver.domain().allocBox());
  Result.copyRegionFrom(Solver.array(M.XIn), Solver.domain().coreBox());
  return Result;
}

Array3D chaoticExecutorRun(Strategy Strat, KernelVariant Kernels,
                           TeamBarrier::WaitPolicy Policy,
                           FaultInjector &Injector) {
  MpdataProgram M = buildMpdataProgram();
  Domain Dom(GridNI, GridNJ, GridNK, mpdataHaloDepth());
  MachineModel Machine = makeToyMachine();
  Machine.NumSockets = 2;
  PlanConfig Config;
  Config.Strat = Strat;
  Config.Sockets = 2;
  ExecutionPlan Plan =
      buildPlan(M.Program, Dom.coreBox(), Machine, Config);
  ExecutorOptions Opts;
  Opts.BarrierPolicy = Policy;
  Opts.BarrierSpinLimit = 64; // Exercise the sleep path, not just spins.
  Opts.Chaos = &Injector;
  ProgramExecutor Exec(M.Program, buildMpdataKernels(Kernels), Dom,
                       std::move(Plan), Opts);
  seedMpdata(Exec, M, 555, 0.1, 2.0, 0.3, -0.25, 0.2);
  Exec.run(TimeSteps);
  Array3D Result(Exec.domain().allocBox());
  Result.copyRegionFrom(Exec.array(M.XIn), Exec.domain().coreBox());
  return Result;
}

} // namespace

TEST(ChaosSoakTest, RandomizedSweepStaysBitExact) {
  using Clock = std::chrono::steady_clock;
  const double Budget = soakBudgetSeconds();
  Watchdog Dog(Budget + 120.0, "chaos_soak_test: randomized sweep");
  const Clock::time_point Start = Clock::now();

  const Strategy Strategies[] = {Strategy::Original, Strategy::Block31D,
                                 Strategy::IslandsOfCores};
  const KernelVariant Backends[] = {KernelVariant::Reference,
                                    KernelVariant::Optimized,
                                    KernelVariant::Simd};
  const TeamBarrier::WaitPolicy Policies[] = {
      TeamBarrier::WaitPolicy::Spin, TeamBarrier::WaitPolicy::Hybrid,
      TeamBarrier::WaitPolicy::Block};

  Array3D Reference = referenceResult();
  Box3 Core = Box3::fromExtents(GridNI, GridNJ, GridNK);

  // Distributed slice shared state (fault-free baseline computed once).
  const WorkloadSpec &Spec = *builtinWorkloads().find("mpdata");
  const ArrayId Psi = buildMpdataProgram().XIn;
  auto distRun = [&](FaultInjector *Injector, const CommTimeouts &T) {
    return runDistributed(Spec, KernelVariant::Reference, 2, 1, GridNI,
                          GridNJ, GridNK, 1, /*Seed=*/9, Injector, T);
  };
  DistributedResult DistBaseline = distRun(nullptr, CommTimeouts());
  ASSERT_TRUE(DistBaseline.Ok);
  CommTimeouts Tight;
  Tight.InitialBackoffSeconds = 2e-4;
  Tight.MaxBackoffSeconds = 4e-3;
  Tight.MaxRetries = 120;

  int Iterations = 0;
  int64_t FaultsInjected = 0;
  SplitMix64 SeedRng(0x50a1c0deULL);
  while (std::chrono::duration<double>(Clock::now() - Start).count() <
         Budget) {
    const uint64_t Seed = SeedRng.next();
    const int I = Iterations++;
    Strategy Strat = Strategies[I % 3];
    KernelVariant Kernels = Backends[(I / 3) % 3];
    TeamBarrier::WaitPolicy Policy = Policies[(I / 9) % 3];

    FaultPlan Plan;
    Plan.Seed = Seed;
    Plan.StallRate = 0.1;
    Plan.WakeRate = 0.3;
    Plan.MaxStallSeconds = 2e-4;
    Plan.StallTimeoutSeconds = 1e-4;
    FaultInjector Injector(Plan);

    // The clean run of the same backend is the oracle: stall/wake chaos
    // perturbs timing only, so results must agree with the serial
    // reference bit for bit (every backend already does — tier 1).
    Array3D Result = chaoticExecutorRun(Strat, Kernels, Policy, Injector);
    ASSERT_EQ(Result.maxAbsDiff(Reference, Core), 0.0)
        << "seed " << Seed << " strat " << static_cast<int>(Strat)
        << " kernels " << static_cast<int>(Kernels) << " policy "
        << waitPolicyName(Policy);
    FaultsInjected += Injector.stats().Injected;

    if (I % 4 == 3) {
      // Distributed slice: message chaos on a 2-rank run.
      FaultPlan DistPlan;
      DistPlan.Seed = Seed;
      DistPlan.DropRate = 0.1;
      DistPlan.DelayRate = 0.1;
      DistPlan.DuplicateRate = 0.1;
      DistPlan.CorruptRate = 0.1;
      DistPlan.MaxDelaySeconds = 5e-4;
      FaultInjector DistInjector(DistPlan);
      DistributedResult R = distRun(&DistInjector, Tight);
      ASSERT_TRUE(R.Ok) << "seed " << Seed << ": "
                        << R.RankErrors.front();
      ASSERT_EQ(R.array(Psi).maxAbsDiff(DistBaseline.array(Psi), Core), 0.0)
          << "seed " << Seed;
      FaultsInjected += DistInjector.stats().Injected;
    }
  }

  // A soak that never injected anything tested nothing.
  EXPECT_GT(Iterations, 0);
  EXPECT_GT(FaultsInjected, 0);
  std::printf("chaos soak: %d iterations, %lld faults injected in %.1fs "
              "budget\n",
              Iterations, static_cast<long long>(FaultsInjected), Budget);
}
