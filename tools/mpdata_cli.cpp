//===- tools/mpdata_cli.cpp - Command-line experiment driver --------------===//
//
// A single binary exposing the library's main entry points to the shell:
//
//   mpdata_cli simulate  --strategy=islands --sockets=14 --machine=uv2000
//                        [--ni --nj --nk --steps --variant --place]
//   mpdata_cli execute   --strategy=islands --islands=2
//                        [--ni --nj --nk --steps --kernels=simd]
//                        [--profile=stats.json --pin --no-elide]
//                        [--chaos=SEED[,stall=p,wake=p,...]]
//   mpdata_cli advise    --machine=uv2000 [--sockets --ni --nj --nk --steps]
//   mpdata_cli traffic   --strategy=original [--machine ...]
//   mpdata_cli plan      --strategy=islands [--sockets ...]  (dump the plan)
//   mpdata_cli lint      [--workload=all|NAME] [--strategy=...] [--json]
//                        [--no-audit] [--kernels=ref|simd]
//
// `simulate`, `advise`, `traffic` and `plan` are instantaneous model
// queries; `execute` runs the real threaded numerics on this host and
// verifies them against the serial reference; `lint` is the repository's
// static-analysis driver (program validation, kernel access audit, plan
// dataflow and race checks of each strategy's stock and barrier-elided
// plans; DESIGN.md §7 has the finding taxonomy) and exits nonzero on any
// error finding. Every mode checks its plan request with
// checkPlanConfig() first, so an unplannable grid, socket count, variant,
// balance or temporal depth ends in an `error:` line and exit 1. The
// plan-space proof suite has its own driver, tools/icores_verify.cpp.
//
//===----------------------------------------------------------------------===//

#include "apps/Workloads.h"
#include "core/PlanBuilder.h"
#include "core/PlanPrinter.h"
#include "core/PlanVerifier.h"
#include "core/ScheduleOptimizer.h"
#include "exec/Affinity.h"
#include "exec/LintSuite.h"
#include "exec/ProgramExecutor.h"
#include "fault/FaultInjector.h"
#include "machine/MachineModel.h"
#include "stencil/SerialStepper.h"
#include "stencil/WorkloadRegistry.h"
#include "sim/PlanAdvisor.h"
#include "sim/Simulator.h"
#include "sim/TrafficReport.h"
#include "support/CommandLine.h"
#include "support/Diagnostics.h"
#include "support/Format.h"
#include "support/OStream.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

using namespace icores;

namespace {

void printUsage() {
  std::printf(
      "usage: mpdata_cli <simulate|execute|advise|traffic|plan|lint|"
      "list-workloads> [options]\n"
      "  --workload=NAME             registered workload to drive (default\n"
      "                              mpdata; `mpdata_cli list-workloads`\n"
      "                              prints the manifest). Applies to every\n"
      "                              mode; lint also takes `all` (every\n"
      "                              workload, labels prefixed\n"
      "                              `<workload>/`). execute runs the\n"
      "                              workload's program through the generic\n"
      "                              runtime, checks it bit-exact against\n"
      "                              the serial stepper, and reports each\n"
      "                              declared per-step reduction\n"
      "  --seed=N                    seed for the workload's registered\n"
      "                              initial conditions (default 7)\n"
      "  --machine=uv2000|knc|xeon   machine model (default uv2000)\n"
      "  --strategy=original|31d|islands (default islands)\n"
      "  --sockets=N                 sockets to use (default: all)\n"
      "  --islands=N                 alias for --sockets in execute mode\n"
      "  --variant=A|B               1D island mapping (default A)\n"
      "  --balance=uniform|cost      island slab sizing (default uniform):\n"
      "                              cost equalizes predicted per-island\n"
      "                              work (redundant cones + remote bytes)\n"
      "                              via core/BalanceModel. Applies to\n"
      "                              execute, simulate, traffic, plan and\n"
      "                              lint modes\n"
      "  --steal                     execute mode: arm the work-stealing\n"
      "                              block scheduler (per-island chunk\n"
      "                              deques; stealing never crosses an\n"
      "                              island). Results stay bit-exact\n"
      "  --place=none|firsttouch|interleave\n"
      "                              NUMA page placement (default\n"
      "                              firsttouch). simulate/traffic/plan\n"
      "                              model it; in execute mode a given\n"
      "                              --place arms the executor's placement\n"
      "                              init epoch (firsttouch and interleave\n"
      "                              with worker pinning) so the shared\n"
      "                              arenas are first-touched per island\n"
      "  --kernels=ref|simd          kernel variant: execute mode runs\n"
      "                              it, simulate mode scales the model's\n"
      "                              compute term, lint audits only it\n"
      "                              (default: execute ref, simulate simd,\n"
      "                              lint every backend)\n"
      "  --ni --nj --nk              grid (default 1024x512x64; execute\n"
      "                              mode defaults to 32x24x16)\n"
      "  --steps=N                   time steps (default 50; execute: 10)\n"
      "  --temporal=T                fuse T time steps into one\n"
      "                              cache-resident epoch (temporal\n"
      "                              blocking; default 1). steps must be\n"
      "                              a multiple of T; periodic boundaries\n"
      "                              only. Applies to execute, simulate,\n"
      "                              traffic, plan and lint modes\n"
      "  --profile=FILE              execute mode: record per-stage kernel\n"
      "                              and per-pass barrier-wait times and\n"
      "                              write the ExecStats JSON to FILE\n"
      "                              (see README.md for the schema)\n"
      "  --pin                       execute mode: pin each worker to the\n"
      "                              core the plan assigned it (best\n"
      "                              effort; under every --place)\n"
      "  --no-elide                  execute mode: keep every team barrier\n"
      "                              (skip the schedule optimizer)\n"
      "  --chaos=SEED[,k=v...]       execute mode: arm the deterministic\n"
      "                              fault injector with this seed; keys\n"
      "                              stall=, wake= (rates in [0,1]),\n"
      "                              maxstall= (seconds). A bare seed arms\n"
      "                              a default mixed plan. Results stay\n"
      "                              bit-exact; counters land in the\n"
      "                              --profile JSON (icores.exec_stats.v5)\n"
      "  --json                      lint mode: emit icores.lint.v1 JSON\n"
      "  --no-audit                  lint mode: skip the kernel access "
      "audit\n");
}

bool parseStrategy(const std::string &Name, Strategy &Out) {
  if (Name == "original")
    Out = Strategy::Original;
  else if (Name == "31d" || Name == "3+1d" || Name == "block")
    Out = Strategy::Block31D;
  else if (Name == "islands")
    Out = Strategy::IslandsOfCores;
  else
    return false;
  return true;
}

/// Reads --kernels (\p Default when absent) into \p Out. An unknown name
/// prints an error naming it and the accepted set, and returns false.
bool parseKernelsFlag(const CommandLine &CL, const char *Default,
                      KernelVariant &Out) {
  std::string Name = CL.getString("kernels", Default);
  if (parseKernelVariant(Name, Out))
    return true;
  std::fprintf(stderr,
               "error: unknown kernel variant '%s' (expected ref or simd)\n",
               Name.c_str());
  return false;
}

bool parseMachine(const std::string &Name, MachineModel &Out) {
  if (Name == "uv2000")
    Out = makeSgiUv2000();
  else if (Name == "knc")
    Out = makeXeonPhiKnc();
  else if (Name == "xeon")
    Out = makeXeonE5_2660v2();
  else
    return false;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    printUsage();
    return 1;
  }
  std::string Mode = Argv[1];

  CommandLine CL;
  for (const char *Opt : {"machine", "strategy", "sockets", "islands",
                          "variant", "place", "balance", "steal", "kernels",
                          "ni", "nj", "nk", "steps", "temporal", "profile",
                          "pin", "json", "no-audit", "no-elide", "chaos",
                          "workload", "seed", "help"})
    CL.registerOption(Opt, "");
  std::string Error;
  if (!CL.parse(Argc - 1, Argv + 1, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    printUsage();
    return 1;
  }
  if (Mode == "help" || CL.hasOption("help")) {
    printUsage();
    return 0;
  }

  const WorkloadRegistry &Registry = builtinWorkloads();
  if (Mode == "list-workloads" || Mode == "--list-workloads") {
    // The workload manifest: one name per line (first token), then the
    // description. The CI smoke job executes every name it lists.
    for (const WorkloadSpec &Spec : Registry.workloads())
      std::printf("%-12s %s\n", Spec.Name.c_str(), Spec.Description.c_str());
    return 0;
  }
  // lint alone takes --workload=all: every registered workload, labels
  // prefixed "<workload>/".
  std::string WorkloadName = CL.getString("workload", "mpdata");
  std::vector<const WorkloadSpec *> Workloads;
  if (Mode == "lint" && WorkloadName == "all") {
    for (const WorkloadSpec &Spec : Registry.workloads())
      Workloads.push_back(&Spec);
  } else if (const WorkloadSpec *Spec = Registry.find(WorkloadName)) {
    Workloads.push_back(Spec);
  } else {
    std::fprintf(stderr,
                 "error: unknown workload '%s' (mpdata_cli list-workloads "
                 "prints the manifest)\n",
                 WorkloadName.c_str());
    return 1;
  }
  const WorkloadSpec *Workload = Workloads.front();

  MachineModel Machine;
  if (!parseMachine(CL.getString("machine", "uv2000"), Machine)) {
    std::fprintf(stderr, "error: unknown machine\n");
    return 1;
  }
  Strategy Strat = Strategy::IslandsOfCores;
  if (!parseStrategy(CL.getString("strategy", "islands"), Strat)) {
    std::fprintf(stderr, "error: unknown strategy\n");
    return 1;
  }

  bool Execute = Mode == "execute";
  int Sockets = static_cast<int>(
      CL.getInt("sockets", CL.getInt("islands",
                                     Execute ? 2 : Machine.NumSockets)));
  int NI = static_cast<int>(CL.getInt("ni", Execute ? 32 : 1024));
  int NJ = static_cast<int>(CL.getInt("nj", Execute ? 24 : 512));
  int NK = static_cast<int>(CL.getInt("nk", Execute ? 16 : 64));
  int Steps = static_cast<int>(CL.getInt("steps", Execute ? 10 : 50));
  int Temporal = static_cast<int>(CL.getInt("temporal", 1));

  const StencilProgram &Prog = Workload->Program;
  Box3 Grid = Box3::fromExtents(NI, NJ, NK);
  PlanConfig Config;
  Config.Strat = Strat;
  Config.Sockets = Sockets;
  Config.TemporalDepth = Temporal;
  std::string VariantName = CL.getString("variant", "A");
  if (VariantName == "A") {
    Config.Variant = PartitionVariant::A;
  } else if (VariantName == "B") {
    Config.Variant = PartitionVariant::B;
  } else {
    std::fprintf(stderr, "error: unknown variant '%s' (expected A or B)\n",
                 VariantName.c_str());
    return 1;
  }
  // The plan models first-touch pages unless --place says otherwise; a
  // given --place also arms the executor's placement init epoch in
  // execute mode.
  const bool HavePlace = CL.hasOption("place");
  PlacementPolicy Place = PlacementPolicy::FirstTouch;
  if (!parsePlacementPolicy(CL.getString("place", "firsttouch"), Place)) {
    std::fprintf(stderr,
                 "error: unknown placement '%s' (expected none, "
                 "firsttouch or interleave)\n",
                 CL.getString("place", "").c_str());
    return 1;
  }
  Config.Placement = Place;
  std::string BalanceName = CL.getString("balance", "uniform");
  if (BalanceName == "cost") {
    Config.Balance = BalancePolicy::Cost;
  } else if (BalanceName != "uniform") {
    std::fprintf(stderr,
                 "error: unknown balance policy '%s' (expected uniform or "
                 "cost)\n",
                 BalanceName.c_str());
    return 1;
  }

  // The plans this run asks for, each of which checkPlanConfig() must
  // accept. Execute plans for a toy host sized to the request. Lint
  // without --strategy checks all three strategies; advise prices every
  // strategy and skips what it cannot plan, but always the original one.
  MachineModel PlanMachine = Machine;
  if (Execute) {
    PlanMachine = makeToyMachine();
    PlanMachine.NumSockets = Sockets;
  }
  std::vector<std::pair<std::string, Strategy>> Strategies = {
      {CL.getString("strategy", "islands"), Strat}};
  if (Mode == "lint" && !CL.hasOption("strategy"))
    Strategies = {{"original", Strategy::Original},
                  {"31d", Strategy::Block31D},
                  {"islands", Strategy::IslandsOfCores}};
  else if (Mode == "advise")
    Strategies = {{"original", Strategy::Original}};
  for (const auto &S : Strategies) {
    PlanConfig Request = Config;
    Request.Strat = S.second;
    std::string Why = checkPlanConfig(Grid, PlanMachine, Request);
    if (!Why.empty()) {
      std::fprintf(stderr, "error: %s\n", Why.c_str());
      return 1;
    }
  }
  // Model modes price at least one step; execute may run zero.
  bool ModelSteps =
      Mode == "simulate" || Mode == "traffic" || Mode == "advise";
  if (Steps < (ModelSteps ? 1 : 0)) {
    std::fprintf(stderr, "error: --steps=%d must be at least %d\n", Steps,
                 ModelSteps ? 1 : 0);
    return 1;
  }
  bool ModeSteps =
      Mode == "execute" || Mode == "simulate" || Mode == "traffic";
  if (ModeSteps && Steps % Temporal != 0) {
    std::fprintf(stderr,
                 "error: --steps=%d is not a multiple of --temporal=%d "
                 "(epochs fuse exactly T steps)\n",
                 Steps, Temporal);
    return 1;
  }

  if (Mode == "lint") {
    // --kernels=<v> restricts the audit to one backend; a workload
    // without it is only plan-checked.
    const bool OneBackend = CL.hasOption("kernels");
    KernelVariant Only = KernelVariant::Reference;
    if (OneBackend && !parseKernelsFlag(CL, "ref", Only))
      return 1;
    auto hasBackend = [&](const WorkloadSpec *Spec) {
      return std::find(Spec->Variants.begin(), Spec->Variants.end(),
                       Only) != Spec->Variants.end();
    };
    if (OneBackend &&
        std::none_of(Workloads.begin(), Workloads.end(), hasBackend)) {
      std::fprintf(stderr,
                   "error: workload '%s' has no '%s' kernel backend\n",
                   WorkloadName.c_str(), kernelVariantName(Only));
      return 1;
    }
    LintSuiteOptions Opts;
    Opts.RunAccessAudit = !CL.hasOption("no-audit");
    DiagnosticEngine Diags;
    for (const WorkloadSpec *Spec : Workloads) {
      // Labels carry the workload name only when several are linted.
      std::string Prefix =
          Workloads.size() > 1 ? Spec->Name + "/" : std::string();
      // One kernel set per backend the workload advertises.
      std::vector<KernelTable> Tables;
      Tables.reserve(Spec->Variants.size());
      std::vector<LintKernelSet> KernelSets;
      for (KernelVariant V : Spec->Variants) {
        if (OneBackend && V != Only)
          continue;
        Tables.push_back(Spec->Kernels(V));
        KernelSets.push_back({Prefix + kernelVariantName(V), &Tables.back()});
      }
      // Each strategy is linted twice: the stock plan, and a copy with the
      // schedule optimizer's barrier elision applied ("<name>+elide") so
      // the lint suite certifies every plan execution would actually use.
      std::vector<ExecutionPlan> Plans;
      Plans.reserve(Strategies.size() * 2);
      std::vector<LintPlanSet> PlanSets;
      for (const auto &S : Strategies) {
        Config.Strat = S.second;
        Plans.push_back(buildPlan(Spec->Program, Grid, Machine, Config));
        PlanSets.push_back({Prefix + S.first, &Plans.back()});
        Plans.push_back(Plans.back());
        optimizeBarriers(Spec->Program, Plans.back());
        PlanSets.push_back({Prefix + S.first + "+elide", &Plans.back()});
      }
      runLintSuite(Spec->Program, KernelSets, PlanSets, Diags, Opts);
    }
    if (CL.hasOption("json")) {
      Diags.printJson(outs());
    } else {
      Diags.printText(outs());
      std::printf("lint: %zu findings (%zu errors, %zu warnings)\n",
                  Diags.numFindings(), Diags.numErrors(),
                  Diags.numWarnings());
    }
    return Diags.hasErrors() ? 1 : 0;
  }

  if (Mode == "simulate" || Mode == "traffic" || Mode == "plan") {
    ExecutionPlan Plan = buildPlan(Prog, Grid, Machine, Config);
    if (Mode == "plan") {
      PlanVerification V = verifyPlan(Plan, Prog);
      std::printf("verification: %s\n",
                  V.Ok ? "OK" : V.FirstError.c_str());
      printPlanSummary(Plan, Prog, outs());
      return V.Ok ? 0 : 1;
    }
    if (Mode == "traffic") {
      accountTraffic(Plan, Prog, Machine, Steps).print(outs());
      return 0;
    }
    SimOptions SimOpts;
    if (!parseKernelsFlag(CL, "simd", SimOpts.Kernels))
      return 1;
    SimResult R = simulate(Plan, Prog, Machine, Steps, SimOpts);
    std::printf("%s on %s, %dx%dx%d, P=%d, %d steps (%s kernels):\n",
                strategyName(Strat), Machine.Name.c_str(), NI, NJ, NK,
                Sockets, Steps, kernelVariantName(SimOpts.Kernels));
    std::printf("  predicted time:      %s\n",
                formatSeconds(R.TotalSeconds).c_str());
    std::printf("  sustained:           %.1f Gflop/s (%.1f%% of peak)\n",
                R.sustainedGflops(),
                R.sustainedGflops() * 1e9 / Machine.peakFlops(Sockets) *
                    100.0);
    std::printf("  DRAM traffic:        %s\n",
                formatBytes(static_cast<uint64_t>(R.totalDramBytes()))
                    .c_str());
    std::printf("  placement:           %s, remote %s/step\n",
                placementPolicyName(Config.Placement),
                formatBytes(static_cast<uint64_t>(
                                R.PlacementRemoteBytesPerStep))
                    .c_str());
    std::printf("  balance:             %s, predicted island skew %.4f\n",
                balancePolicyName(Config.Balance), R.PredictedIslandSkew);
    std::printf("  per-step: compute %s, dram %s, remote %s, barrier %s, "
                "overhead %s\n",
                formatSeconds(R.CriticalIsland.Compute).c_str(),
                formatSeconds(R.CriticalIsland.Dram).c_str(),
                formatSeconds(R.CriticalIsland.Remote).c_str(),
                formatSeconds(R.CriticalIsland.Barrier).c_str(),
                formatSeconds(R.CriticalIsland.Overhead).c_str());
    return 0;
  }

  if (Mode == "advise") {
    AdvisorReport Report =
        adviseBestPlan(Prog, Grid, Machine, Sockets, Steps);
    for (size_t I = 0; I != Report.Candidates.size(); ++I) {
      const AdvisorCandidate &C = Report.Candidates[I];
      std::printf("%2zu. %-28s %10s\n", I + 1, C.Label.c_str(),
                  formatSeconds(C.Result.TotalSeconds).c_str());
    }
    return 0;
  }

  if (Mode == "execute") {
    KernelVariant Kernels = KernelVariant::Reference;
    if (!parseKernelsFlag(CL, "ref", Kernels))
      return 1;
    Domain Dom = workloadDomain(*Workload, NI, NJ, NK);
    std::string Why = Dom.checkHalo();
    if (!Why.empty()) {
      std::fprintf(stderr, "error: workload '%s': %s\n",
                   Workload->Name.c_str(), Why.c_str());
      return 1;
    }
    ExecutorOptions ExecOpts;
    ExecOpts.Stealing = CL.hasOption("steal");
    // Price the executed plan's predicted island skew with the same
    // machine model the plan was built for, so the --profile JSON's
    // predicted_island_skew matches `simulate` by construction.
    ExecOpts.Machine = &PlanMachine;
    std::unique_ptr<FaultInjector> Chaos;
    if (CL.hasOption("chaos")) {
      FaultPlan ChaosPlan;
      std::string ChaosErr;
      if (!parseFaultSpec(CL.getString("chaos", ""), ChaosPlan,
                          ChaosErr)) {
        std::fprintf(stderr, "error: bad --chaos spec: %s\n",
                     ChaosErr.c_str());
        return 1;
      }
      // The executor has no message channel, so only the stall/wake
      // classes apply here; the distributed classes are exercised by
      // tools/chaos_runner.
      Chaos = std::make_unique<FaultInjector>(ChaosPlan);
      ExecOpts.Chaos = Chaos.get();
      std::printf("chaos: %s\n", faultPlanSummary(ChaosPlan).c_str());
    }
    ExecutionPlan Plan = buildPlan(Prog, Grid, PlanMachine, Config);
    if (!CL.hasOption("no-elide")) {
      ScheduleOptimizerReport Report = optimizeBarriers(Prog, Plan);
      std::printf("barrier elision: %lld of %lld team barriers removed "
                  "per step (use --no-elide to keep all)\n",
                  static_cast<long long>(Report.ElidedBarriers),
                  static_cast<long long>(Report.TotalPasses));
    }

    // Drive the registered program through the generic runtime:
    // ProgramExecutor against the SerialStepper oracle, both seeded from
    // the workload's registered init, with every declared per-step
    // reduction checked and reported.
    bool HaveVariant = false;
    for (KernelVariant V : Workload->Variants)
      HaveVariant = HaveVariant || V == Kernels;
    if (!HaveVariant) {
      std::fprintf(stderr,
                   "error: workload '%s' has no '%s' kernel backend\n",
                   Workload->Name.c_str(), kernelVariantName(Kernels));
      return 1;
    }
    uint64_t Seed = static_cast<uint64_t>(CL.getInt("seed", 7));
    // A given --place arms the placement init epoch. Placed pages need
    // pinned workers (first touch homes a page on the toucher's socket),
    // so firsttouch and interleave pin as --pin does.
    if (HavePlace)
      ExecOpts.Placement = Place;
    if (CL.hasOption("pin") || ExecOpts.Placement != PlacementPolicy::None)
      ExecOpts.Pinning = computeThreadPlacement(Plan, PlanMachine);
    ExecOpts.Reductions = Workload->Reductions;
    ProgramExecutor Exec(Prog, Workload->Kernels(Kernels), Dom,
                         std::move(Plan), ExecOpts);
    std::string ProfilePath = CL.getString("profile", "");
    if (!ProfilePath.empty())
      Exec.enableProfiling(true);
    initWorkload(*Workload, Exec, Seed);
    if (!ProfilePath.empty() && Steps > Temporal) {
      // Two run() calls on purpose: the profile's pool counters then
      // demonstrate thread reuse (run_calls 2, threads spawned once).
      // Each call still covers whole temporal epochs.
      Exec.run(Temporal);
      Exec.run(Steps - Temporal);
    } else {
      Exec.run(Steps);
    }

    SerialStepper Oracle(Prog, Workload->Kernels(Kernels), Dom,
                         Workload->Reductions);
    initWorkload(*Workload, Oracle, Seed);
    Oracle.run(Steps);

    // After run() the newest state of a feedback pair lives in its
    // Target array; a step output without feedback keeps its own.
    double Diff = 0.0;
    std::vector<ArrayId> Compare;
    for (const FeedbackPair &FB : Prog.feedbacks())
      Compare.push_back(FB.Target);
    for (ArrayId Out : Prog.stepOutputs()) {
      bool FedBack = false;
      for (const FeedbackPair &FB : Prog.feedbacks())
        FedBack = FedBack || FB.Source == Out;
      if (!FedBack)
        Compare.push_back(Out);
    }
    for (ArrayId Id : Compare)
      Diff = std::max(Diff, Exec.array(Id).maxAbsDiff(Oracle.array(Id),
                                                      Dom.coreBox()));
    std::printf("executed %d steps of %s/%s on %dx%dx%d with %d islands\n",
                Steps, Workload->Name.c_str(), strategyName(Strat), NI, NJ,
                NK, Sockets);
    if (CL.hasOption("balance") || ExecOpts.Stealing) {
      const ExecStats &BS = Exec.stats();
      std::printf("balance: %s cuts, stealing %s, predicted island skew "
                  "%.4f, measured %.4f\n",
                  BS.Balance.c_str(), BS.Stealing ? "on" : "off",
                  BS.PredictedIslandSkew, BS.measuredIslandSkew());
    }
    if (CL.hasOption("temporal"))
      std::printf("temporal blocking: depth %d (%d epochs), shared "
                  "traffic %s/step\n",
                  Temporal, Steps / Temporal,
                  formatBytes(static_cast<uint64_t>(
                                  Exec.sharedBytesPerStep()))
                      .c_str());
    if (HavePlace) {
      const ExecStats &PS = Exec.stats();
      std::printf("placement: %s, remote %s/step (est), %lld pages "
                  "first-touched, %lld pin failures\n",
                  PS.Placement.c_str(),
                  formatBytes(static_cast<uint64_t>(
                                  Exec.remoteBytesPerStep()))
                      .c_str(),
                  static_cast<long long>(PS.PagesFirstTouched),
                  static_cast<long long>(PS.PinFailures));
    }
    for (size_t R = 0; R != Prog.reductions().size(); ++R) {
      const std::vector<double> &Got = Exec.reductionHistory(R);
      const std::vector<double> &Want = Oracle.reductionHistory(R);
      bool Match = Got == Want;
      if (!Match)
        Diff = std::max(Diff, 1.0);
      std::printf("reduction '%s': final %.17g over %zu steps %s\n",
                  Prog.reductions()[R].Name.c_str(),
                  Got.empty() ? 0.0 : Got.back(), Got.size(),
                  Match ? "(bit-exact vs serial)" : "(MISMATCH)");
    }
    std::printf("max diff vs serial reference: %.3e %s\n", Diff,
                Diff == 0.0 ? "(bit-exact)" : "");
    if (Chaos) {
      FaultStats FS = Chaos->stats();
      std::printf("chaos: %lld faults injected (%lld stall-timeouts "
                  "detected); result %s under fault injection\n",
                  static_cast<long long>(FS.Injected),
                  static_cast<long long>(FS.Timeouts),
                  Diff == 0.0 ? "bit-exact" : "DIVERGED");
    }
    if (!ProfilePath.empty()) {
      const ExecStats &Stats = Exec.stats();
      std::FILE *F = std::fopen(ProfilePath.c_str(), "w");
      if (!F) {
        std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                     ProfilePath.c_str());
        return 1;
      }
      FileOStream OS(F);
      Stats.writeJson(OS);
      std::fclose(F);
      std::printf("profile: kernel %s, team barrier %s, global barrier %s "
                  "(barrier share %.1f%%)\n",
                  formatSeconds(Stats.kernelSeconds()).c_str(),
                  formatSeconds(Stats.teamBarrierWaitSeconds()).c_str(),
                  formatSeconds(Stats.GlobalBarrierWaitSeconds).c_str(),
                  Stats.barrierShare() * 100.0);
      if (!Prog.reductions().empty()) {
        int Threads = 0;
        for (const IslandStat &Island : Stats.Islands)
          Threads += Island.NumThreads;
        const double ThreadSeconds = Stats.WallSeconds * Threads;
        std::printf("profile: reduction fold %s across threads (%.1f%% of "
                    "thread time, %zu reductions)\n",
                    formatSeconds(Stats.foldSeconds()).c_str(),
                    ThreadSeconds > 0.0
                        ? 100.0 * Stats.foldSeconds() / ThreadSeconds
                        : 0.0,
                    Prog.reductions().size());
      }
      std::printf("profile: %lld barriers elided; %lld spin wakes, %lld "
                  "sleep wakes\n",
                  static_cast<long long>(Stats.barriersElided()),
                  static_cast<long long>(Stats.spinWakes()),
                  static_cast<long long>(Stats.sleepWakes()));
      if (Stats.Stealing)
        std::printf("profile: %lld chunks stolen (%lld lost races), idle "
                    "%s across threads\n",
                    static_cast<long long>(Stats.steals()),
                    static_cast<long long>(Stats.stealFailures()),
                    formatSeconds(Stats.idleSeconds()).c_str());
      std::printf("profile: %lld run() calls reused %lld pooled threads; "
                  "stats written to %s\n",
                  static_cast<long long>(Stats.RunCalls),
                  static_cast<long long>(Stats.ThreadsSpawned),
                  ProfilePath.c_str());
    }
    return Diff == 0.0 ? 0 : 1;
  }

  std::fprintf(stderr, "error: unknown mode '%s'\n", Mode.c_str());
  printUsage();
  return 1;
}
