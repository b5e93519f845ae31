//===- tests/workload_conformance_test.cpp - Registry conformance ---------===//
//
// The workload conformance contract (DESIGN.md §15): every workload
// registered in the built-in WorkloadRegistry is swept through the full
// execution matrix — strategies x kernel backends x temporal depths x
// balance policies x stealing — and must
//
//  - reproduce the serial stepper bit-exactly (newest state AND every
//    per-step reduction value), under periodic and, at T = 1,
//    zero-gradient boundaries,
//  - carry IR access windows the kernel audit finds exactly tight
//    (no under-declared reads, no slack),
//  - pass the lint suite (program validation, audit, plan dataflow
//    verification, schedule race check) for every strategy's plan,
//  - price identically in the simulator and the executor
//    (projectedSharedBytesPerStep == sharedBytesPerStep, and the
//    barriers crossed per epoch == the simulator's barrier counts),
//  - replay deterministically under seeded chaos faults,
//  - run distributed on rank grids 1x1, 2x1 and 2x2 bit-exactly (a
//    workload with reductions must instead fail with a structured
//    error, since distributed runs do not fold reductions yet).
//
// The harness is registry-driven: registering a new workload in
// src/apps/Workloads.cpp makes it appear here with zero test-code
// changes. Set ICORES_CONFORMANCE_QUICK=1 to shrink the matrix (reference
// backend, depths 1-2) for smoke CI runs.
//
//===----------------------------------------------------------------------===//

#include "TestMatrix.h"

#include "apps/Workloads.h"
#include "core/BalanceModel.h"
#include "core/PlanVerifier.h"
#include "dist/DistributedSolver.h"
#include "exec/EpochScript.h"
#include "exec/ExecObserver.h"
#include "exec/LintSuite.h"
#include "exec/ScheduleCheck.h"
#include "fault/FaultInjector.h"
#include "sim/Simulator.h"
#include "stencil/AccessAudit.h"
#include "stencil/HaloAnalysis.h"
#include "support/Diagnostics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

using namespace icores;

namespace {

constexpr int NI = 20, NJ = 14, NK = 8;
constexpr int Steps = 4; // Divisible by every swept temporal depth.
constexpr uint64_t Seed = 7;

bool quickMode() {
  const char *E = std::getenv("ICORES_CONFORMANCE_QUICK");
  return E && *E && std::string(E) != "0";
}

std::vector<int> sweepDepths() {
  return quickMode() ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
}

const std::vector<Strategy> &allStrategies() {
  static const std::vector<Strategy> S = {
      Strategy::Original, Strategy::Block31D, Strategy::IslandsOfCores};
  return S;
}

/// Workload-name-parameterized fixture; the instantiation below is the
/// only place the registry is enumerated.
class WorkloadConformance : public ::testing::TestWithParam<std::string> {
protected:
  const WorkloadSpec &spec() const {
    const WorkloadSpec *Spec = builtinWorkloads().find(GetParam());
    EXPECT_NE(Spec, nullptr);
    return *Spec;
  }

  std::vector<KernelVariant> sweepVariants() const {
    return quickMode() ? std::vector<KernelVariant>{KernelVariant::Reference}
                       : spec().Variants;
  }

  Domain domain() const { return workloadDomain(spec(), NI, NJ, NK); }
};

} // namespace

TEST_P(WorkloadConformance, RegistrationContractHolds) {
  const WorkloadSpec &Spec = spec();
  DiagnosticEngine Diags;
  EXPECT_TRUE(Spec.Program.validate(Diags)) << Diags.firstErrorMessage();
  EXPECT_FALSE(Spec.Name.empty());
  EXPECT_FALSE(Spec.Variants.empty());
  ASSERT_TRUE(static_cast<bool>(Spec.Kernels));
  ASSERT_TRUE(static_cast<bool>(Spec.Init));
  for (KernelVariant V : Spec.Variants)
    EXPECT_TRUE(Spec.Kernels(V).coversProgram(Spec.Program))
        << kernelVariantName(V);
  // The declared halo depth covers the program's dependence cone.
  std::array<int, 3> Depth =
      inputHaloDepth(Spec.Program, Box3::fromExtents(8, 8, 8));
  for (int D = 0; D != 3; ++D)
    EXPECT_LE(Depth[D], Spec.HaloDepth) << "dimension " << D;
  // Every declared reduction has a callable combiner bound.
  for (const ReductionDef &Def : Spec.Program.reductions()) {
    bool Bound = false;
    for (const ReductionBinding &B : Spec.Reductions)
      Bound |= B.Name == Def.Name && static_cast<bool>(B.Combine);
    EXPECT_TRUE(Bound) << "reduction " << Def.Name;
  }
}

TEST_P(WorkloadConformance, SerialOracleIsSeedDeterministic) {
  const WorkloadSpec &Spec = spec();
  Domain Dom = domain();
  auto A = serialOracle(Spec, Dom, Steps, Seed);
  auto B = serialOracle(Spec, Dom, Steps, Seed);
  EXPECT_EQ(maxNewestStateDiff(Spec.Program, *A, *B, Dom.coreBox()), 0.0);
  EXPECT_TRUE(reductionHistoriesMatch(Spec.Program, *A, *B));
  // The init actually depends on the seed: a different seed must move
  // the state (otherwise "seeded" determinism is vacuous).
  auto C = serialOracle(Spec, Dom, Steps, Seed + 1);
  EXPECT_GT(maxNewestStateDiff(Spec.Program, *A, *C, Dom.coreBox()), 0.0);
}

TEST_P(WorkloadConformance, ThreadedPlansAreBitExactAcrossTheMatrix) {
  const WorkloadSpec &Spec = spec();
  Domain Dom = domain();
  auto Oracle = serialOracle(Spec, Dom, Steps, Seed);
  for (Strategy Strat : allStrategies())
    for (int T : sweepDepths())
      for (KernelVariant V : sweepVariants()) {
        ExecutionPlan Plan = makeTestPlan(Spec.Program, Dom, Strat, T);
        PlanVerification PV = verifyPlan(Plan, Spec.Program);
        ASSERT_TRUE(PV.Ok) << strategyName(Strat) << " T=" << T << ": "
                           << PV.FirstError;
        DiagnosticEngine Races;
        EXPECT_TRUE(checkPlanRaces(Spec.Program, Plan, Races))
            << strategyName(Strat) << " T=" << T << ": "
            << Races.firstErrorMessage();
        auto Exec =
            makeWorkloadExecutor(Spec, Dom, std::move(Plan), V, {}, Seed);
        Exec->run(Steps);
        EXPECT_EQ(
            maxNewestStateDiff(Spec.Program, *Exec, *Oracle, Dom.coreBox()),
            0.0)
            << strategyName(Strat) << " T=" << T << " variant="
            << kernelVariantName(V);
        EXPECT_TRUE(reductionHistoriesMatch(Spec.Program, *Exec, *Oracle))
            << strategyName(Strat) << " T=" << T << " variant="
            << kernelVariantName(V);
      }
}

TEST_P(WorkloadConformance, ZeroGradientPlansAreBitExactAtDepthOne) {
  // Open boundaries clamp the halos instead of wrapping them, so the
  // executor's per-worker halo slabs run their clamp path here. Temporal
  // blocking requires periodic boundaries, so only T = 1 is swept.
  const WorkloadSpec &Spec = spec();
  Domain Dom =
      workloadDomain(Spec, NI, NJ, NK, BoundaryMode::ZeroGradient);
  auto Oracle = serialOracle(Spec, Dom, Steps, Seed);
  // The clamped halos must move the state, or this is the periodic case.
  auto Periodic = serialOracle(Spec, domain(), Steps, Seed);
  EXPECT_GT(
      maxNewestStateDiff(Spec.Program, *Oracle, *Periodic, Dom.coreBox()),
      0.0);
  for (Strategy Strat : allStrategies())
    for (KernelVariant V : sweepVariants()) {
      auto Exec = makeWorkloadExecutor(
          Spec, Dom, makeTestPlan(Spec.Program, Dom, Strat), V, {}, Seed);
      Exec->run(Steps);
      EXPECT_EQ(
          maxNewestStateDiff(Spec.Program, *Exec, *Oracle, Dom.coreBox()),
          0.0)
          << strategyName(Strat) << " variant=" << kernelVariantName(V);
      EXPECT_TRUE(reductionHistoriesMatch(Spec.Program, *Exec, *Oracle))
          << strategyName(Strat) << " variant=" << kernelVariantName(V);
    }
}

TEST_P(WorkloadConformance, ElisionBalanceAndStealingPreserveBitExactness) {
  const WorkloadSpec &Spec = spec();
  Domain Dom = domain();
  auto Oracle = serialOracle(Spec, Dom, Steps, Seed);
  for (int Sockets : {2, 4})
    for (BalancePolicy Balance :
         {BalancePolicy::Uniform, BalancePolicy::Cost})
      for (bool Stealing : {false, true}) {
        ExecutionPlan Plan =
            makeTestPlan(Spec.Program, Dom, Strategy::IslandsOfCores,
                         /*TemporalDepth=*/2, /*ElideBarriers=*/true,
                         Sockets, Balance);
        // Elision must never remove a barrier the race check needs.
        DiagnosticEngine Races;
        EXPECT_TRUE(checkPlanRaces(Spec.Program, Plan, Races))
            << Races.firstErrorMessage();
        ExecutorOptions Opts;
        Opts.Stealing = Stealing;
        auto Exec = makeWorkloadExecutor(Spec, Dom, std::move(Plan),
                                         KernelVariant::Reference, Opts,
                                         Seed);
        Exec->run(Steps);
        EXPECT_EQ(
            maxNewestStateDiff(Spec.Program, *Exec, *Oracle, Dom.coreBox()),
            0.0)
            << "sockets=" << Sockets << " balance="
            << balancePolicyName(Balance) << " stealing=" << Stealing;
        EXPECT_TRUE(reductionHistoriesMatch(Spec.Program, *Exec, *Oracle))
            << "sockets=" << Sockets << " balance="
            << balancePolicyName(Balance) << " stealing=" << Stealing;
      }
}

TEST_P(WorkloadConformance, AccessWindowsAreExactlyTight) {
  // Zero findings, not merely zero errors: slack windows and unused
  // declared inputs are warnings, and the conformance bar is exactness.
  const WorkloadSpec &Spec = spec();
  for (KernelVariant V : sweepVariants()) {
    DiagnosticEngine Diags;
    EXPECT_TRUE(auditProgramAccess(Spec.Program, Spec.Kernels(V), Diags, {},
                                   kernelVariantName(V)));
    EXPECT_EQ(Diags.numFindings(), 0u)
        << kernelVariantName(V) << ": " << Diags.firstErrorMessage();
  }
}

TEST_P(WorkloadConformance, LintSuiteAcceptsEveryStrategy) {
  const WorkloadSpec &Spec = spec();
  Domain Dom = domain();

  std::vector<KernelTable> Tables;
  std::vector<KernelVariant> Variants = sweepVariants();
  Tables.reserve(Variants.size());
  std::vector<LintKernelSet> KernelSets;
  for (KernelVariant V : Variants) {
    Tables.push_back(Spec.Kernels(V));
    KernelSets.push_back({kernelVariantName(V), &Tables.back()});
  }

  std::vector<ExecutionPlan> Plans;
  Plans.reserve(allStrategies().size());
  std::vector<LintPlanSet> PlanSets;
  for (Strategy Strat : allStrategies()) {
    Plans.push_back(makeTestPlan(Spec.Program, Dom, Strat, 2));
    PlanSets.push_back({strategyName(Strat), &Plans.back()});
  }

  DiagnosticEngine Diags;
  EXPECT_TRUE(runLintSuite(Spec.Program, KernelSets, PlanSets, Diags));
  EXPECT_EQ(Diags.numFindings(), 0u) << Diags.firstErrorMessage();
}

TEST_P(WorkloadConformance, SimulatorSharedTrafficMatchesExecutor) {
  // The simulator prices plans without running them; its shared-traffic
  // projection must equal the executor's transfer accounting exactly for
  // every registered program shape.
  const WorkloadSpec &Spec = spec();
  Domain Dom = domain();
  for (Strategy Strat : allStrategies())
    for (int T : sweepDepths()) {
      ExecutionPlan Plan = makeTestPlan(Spec.Program, Dom, Strat, T);
      int64_t Projected = projectedSharedBytesPerStep(Plan, Spec.Program);
      auto Exec = makeWorkloadExecutor(Spec, Dom, std::move(Plan));
      EXPECT_EQ(Projected, Exec->sharedBytesPerStep())
          << strategyName(Strat) << " T=" << T;
    }
}

namespace {

/// Counts barrier arrivals per observer site (0 is the global barrier,
/// island + 1 that island's team barrier).
class BarrierCounter : public ExecObserver {
public:
  explicit BarrierCounter(size_t Sites) : Arrivals(Sites) {}
  int64_t arrivals(size_t Site) const { return Arrivals[Site].load(); }

  void onBarrierArrive(uint64_t Site, int, int) override {
    Arrivals[static_cast<size_t>(Site)].fetch_add(1);
  }
  void onBarrierDepart(uint64_t, int) override {}
  void onPass(int, const StencilProgram &, FieldStore &, StageId,
              const Box3 &) override {}
  void onImport(int, const Array3D &, const Array3D &, const Box3 &, int,
                int, int) override {}
  void onSlide(int, const Array3D &, const SlideShare &) override {}
  void onHaloFill(int, const Domain &, const Array3D &, int, int) override {}

private:
  std::vector<std::atomic<int64_t>> Arrivals;
};

} // namespace

TEST_P(WorkloadConformance, SimulatorBarrierCountsMatchExecutor) {
  // The executor runs the islands' epoch scripts and the simulator prices
  // them: the barriers the workers cross per epoch, the scripts' barrier
  // ops and the simulator's per-epoch counts must all agree.
  const WorkloadSpec &Spec = spec();
  Domain Dom = domain();
  MachineModel Machine = makeToyMachine();
  Machine.NumSockets = std::max(Machine.NumSockets, 2);
  constexpr int Epochs = 2;
  for (Strategy Strat : allStrategies())
    for (int T : sweepDepths())
      for (bool Elide : {false, true}) {
        ExecutionPlan Plan = makeTestPlan(Spec.Program, Dom, Strat, T, Elide);
        const SimResult Sim = simulate(Plan, Spec.Program, Machine, T);
        const std::vector<EpochScript> Scripts =
            buildEpochScripts(Spec.Program, Plan);
        BarrierCounter Counter(Plan.Islands.size() + 1);
        ExecutorOptions Opts;
        Opts.Observer = &Counter;
        auto Exec = makeWorkloadExecutor(Spec, Dom, Plan,
                                         KernelVariant::Reference, Opts);
        Exec->run(Epochs * T);
        const std::string Where = std::string(strategyName(Strat)) +
                                  " T=" + std::to_string(T) +
                                  (Elide ? " elided" : "");

        int64_t Workers = 0, TeamOps = 0;
        for (size_t I = 0; I != Plan.Islands.size(); ++I) {
          const int64_t Team = Plan.Islands[I].NumThreads;
          Workers += Team;
          const int64_t Ops = Scripts[I].count(EpochOp::Kind::TeamBarrier);
          TeamOps += Ops;
          EXPECT_EQ(Counter.arrivals(I + 1), Ops * Team * Epochs)
              << Where << " island " << I;
          EXPECT_EQ(Scripts[I].count(EpochOp::Kind::GlobalBarrier),
                    Sim.GlobalBarriersPerEpoch)
              << Where << " island " << I;
        }
        EXPECT_EQ(Sim.TeamBarriersPerEpoch, TeamOps) << Where;
        EXPECT_EQ(Counter.arrivals(0),
                  Sim.GlobalBarriersPerEpoch * Workers * Epochs)
            << Where;
      }
}

TEST_P(WorkloadConformance, ChaosReplayIsDeterministic) {
  // Same fault seed + same plan => bit-identical state, identical
  // reduction histories, identical injector counters — and chaos must
  // not perturb the data away from the serial answer.
  const WorkloadSpec &Spec = spec();
  Domain Dom = domain();
  auto run = [&](uint64_t FaultSeed) {
    FaultPlan FP;
    FP.Seed = FaultSeed;
    FP.StallRate = 0.2;
    FP.WakeRate = 0.2;
    FP.MaxStallSeconds = 2e-4;
    FaultInjector Injector(FP);
    ExecutorOptions Opts;
    Opts.Chaos = &Injector;
    auto Exec = makeWorkloadExecutor(
        Spec, Dom,
        makeTestPlan(Spec.Program, Dom, Strategy::IslandsOfCores, 2),
        KernelVariant::Reference, Opts, Seed);
    Exec->run(Steps);
    struct Result {
      std::vector<Array3D> State; // One snapshot per newest-state array.
      std::vector<std::vector<double>> Reductions;
      int64_t Injected = 0;
    };
    Result R;
    for (ArrayId Id : newestStateArrays(Spec.Program)) {
      Array3D Snap(Dom.allocBox());
      Snap.copyRegionFrom(Exec->array(Id), Dom.coreBox());
      R.State.push_back(std::move(Snap));
    }
    for (size_t I = 0; I != Spec.Program.reductions().size(); ++I)
      R.Reductions.push_back(Exec->reductionHistory(I));
    R.Injected = Injector.stats().Injected;
    return R;
  };
  auto A = run(42);
  auto B = run(42);
  ASSERT_EQ(A.State.size(), B.State.size());
  for (size_t I = 0; I != A.State.size(); ++I)
    EXPECT_EQ(A.State[I].maxAbsDiff(B.State[I], Dom.coreBox()), 0.0);
  EXPECT_EQ(A.Reductions, B.Reductions);
  EXPECT_EQ(A.Injected, B.Injected);
  auto Oracle = serialOracle(Spec, Dom, Steps, Seed);
  std::vector<ArrayId> Ids = newestStateArrays(Spec.Program);
  for (size_t I = 0; I != Ids.size(); ++I)
    EXPECT_EQ(A.State[I].maxAbsDiff(Oracle->array(Ids[I]), Dom.coreBox()),
              0.0);
}

TEST_P(WorkloadConformance, DistributedRanksAreBitExact) {
  const WorkloadSpec &Spec = spec();
  Domain Dom = domain();
  for (KernelVariant V : sweepVariants()) {
    auto Oracle = serialOracle(Spec, Dom, Steps, Seed, V);
    for (auto [PI, PJ] : {std::pair<int, int>{1, 1}, {2, 1}, {2, 2}}) {
      DistributedResult R =
          runDistributed(Spec, V, PI, PJ, NI, NJ, NK, Steps, Seed);
      if (!Spec.Program.reductions().empty()) {
        ASSERT_FALSE(R.Ok) << PI << "x" << PJ;
        EXPECT_NE(R.RankErrors.front().find("declares reductions"),
                  std::string::npos)
            << R.RankErrors.front();
        continue;
      }
      ASSERT_TRUE(R.Ok) << PI << "x" << PJ << ": " << R.RankErrors.front();
      EXPECT_EQ(maxNewestStateDiff(Spec.Program, R, *Oracle, Dom.coreBox()),
                0.0)
          << PI << "x" << PJ << " variant=" << kernelVariantName(V);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadConformance,
    ::testing::ValuesIn(builtinWorkloads().names()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      std::string Name = Info.param;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });
