//===- tools/mpdata_cli.cpp - Command-line experiment driver --------------===//
//
// A single binary exposing the library's main entry points to the shell:
//
//   mpdata_cli simulate  --strategy=islands --sockets=14 --machine=uv2000
//                        [--ni --nj --nk --steps --variant --placement]
//   mpdata_cli execute   --strategy=islands --islands=2
//                        [--ni --nj --nk --steps --kernels=opt]
//                        [--profile=stats.json --pin]
//                        [--no-elide --barrier=spin|hybrid|block]
//                        [--chaos=SEED[,stall=p,wake=p,...]]
//   mpdata_cli advise    --machine=uv2000 [--sockets --ni --nj --nk --steps]
//   mpdata_cli traffic   --strategy=original [--machine ...]
//   mpdata_cli plan      --strategy=islands [--sockets ...]  (dump the plan)
//   mpdata_cli lint      [--strategy=...] [--json] [--no-audit]
//   mpdata_cli verify    [--out=FILE] [--json]  (plan-space proof suite)
//
// `simulate`, `advise`, `traffic` and `plan` are instantaneous model
// queries; `execute` runs the real threaded numerics on this host and
// verifies them against the serial reference; `lint` (also spelled
// `--lint`) runs the static-analysis suite — see tools/icores_lint.cpp
// for the standalone driver and DESIGN.md §7 for the finding taxonomy.
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
#include "verify/ProofDriver.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

using namespace icores;

namespace {

void printUsage() {
  std::printf(
      "usage: mpdata_cli <simulate|execute|advise|traffic|plan|lint|verify|"
      "list-workloads> [options]\n"
      "  --workload=NAME             registered workload to drive (default\n"
      "                              mpdata; `mpdata_cli list-workloads`\n"
      "                              prints the manifest). Applies to every\n"
      "                              mode; execute runs the workload's\n"
      "                              program through the generic runtime,\n"
      "                              checks it bit-exact against the serial\n"
      "                              stepper, and reports each declared\n"
      "                              per-step reduction\n"
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
      "  --placement=firsttouch|serial (default firsttouch)\n"
      "  --place=none|firsttouch|interleave\n"
      "                              NUMA page placement; supersedes\n"
      "                              --placement. simulate/traffic/plan\n"
      "                              model it; execute mode arms the\n"
      "                              executor's placement init epoch (with\n"
      "                              worker pinning) so the shared arenas\n"
      "                              are first-touched per island\n"
      "  --kernels=ref|opt|simd      kernel variant: execute mode runs\n"
      "                              it, simulate mode scales the model's\n"
      "                              compute term (default: execute ref,\n"
      "                              simulate simd)\n"
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
      "  --pin                       execute mode: pin worker threads to\n"
      "                              cores (best effort)\n"
      "  --no-elide                  execute mode: keep every team barrier\n"
      "                              (skip the schedule optimizer)\n"
      "  --barrier=spin|hybrid|block execute mode: team-barrier wait\n"
      "                              policy (default hybrid)\n"
      "  --chaos=SEED[,k=v...]       execute mode: arm the deterministic\n"
      "                              fault injector with this seed; keys\n"
      "                              stall=, wake= (rates in [0,1]),\n"
      "                              maxstall= (seconds). A bare seed arms\n"
      "                              a default mixed plan. Results stay\n"
      "                              bit-exact; counters land in the\n"
      "                              --profile JSON (exec_stats v3)\n"
      "  --json                      lint mode: emit icores.lint.v1 JSON\n"
      "  --no-audit                  lint mode: skip the kernel access "
      "audit\n"
      "  --out=FILE                  verify mode: icores.prove.v1 output\n"
      "                              path (default BENCH_prove.json); see\n"
      "                              tools/icores_verify.cpp for the full\n"
      "                              option set\n");
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
  if (Mode == "--lint") // `mpdata_cli --lint` is an alias for `lint`.
    Mode = "lint";

  CommandLine CL;
  for (const char *Opt : {"machine", "strategy", "sockets", "islands",
                          "variant", "placement", "place", "balance",
                          "steal", "kernels", "ni", "nj", "nk", "steps",
                          "temporal", "profile", "pin", "json", "no-audit",
                          "no-elide", "barrier", "chaos", "out", "workload",
                          "seed", "help"})
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
    // description. bench/validate_bench_json.py consumes this.
    for (const WorkloadSpec &Spec : Registry.workloads())
      std::printf("%-12s %s\n", Spec.Name.c_str(), Spec.Description.c_str());
    return 0;
  }
  std::string WorkloadName = CL.getString("workload", "mpdata");
  const WorkloadSpec *Workload = Registry.find(WorkloadName);
  if (!Workload) {
    std::fprintf(stderr,
                 "error: unknown workload '%s' (mpdata_cli list-workloads "
                 "prints the manifest)\n",
                 WorkloadName.c_str());
    return 1;
  }

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
  if (Temporal < 1) {
    std::fprintf(stderr, "error: --temporal must be at least 1\n");
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

  const StencilProgram &Prog = Workload->Program;
  Box3 Grid = Box3::fromExtents(NI, NJ, NK);
  PlanConfig Config;
  Config.Strat = Strat;
  Config.Sockets = Sockets;
  Config.TemporalDepth = Temporal;
  Config.Variant = CL.getString("variant", "A") == "B"
                       ? PartitionVariant::B
                       : PartitionVariant::A;
  Config.Placement = CL.getString("placement", "firsttouch") == "serial"
                         ? PagePlacement::None
                         : PagePlacement::FirstTouch;
  // --place supersedes the legacy --placement spelling and additionally
  // arms the executor's placement init epoch in execute mode.
  const bool HavePlace = CL.hasOption("place");
  PlacementPolicy Place = PlacementPolicy::FirstTouch;
  if (HavePlace) {
    if (!parsePlacementPolicy(CL.getString("place", "firsttouch"), Place)) {
      std::fprintf(stderr,
                   "error: unknown placement '%s' (expected none, "
                   "firsttouch or interleave)\n",
                   CL.getString("place", "").c_str());
      return 1;
    }
    Config.Placement = Place;
  }
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

  if (Mode == "lint") {
    // One kernel set per backend the workload advertises.
    std::vector<KernelTable> Tables;
    Tables.reserve(Workload->Variants.size());
    std::vector<LintKernelSet> KernelSets;
    for (KernelVariant V : Workload->Variants) {
      Tables.push_back(Workload->Kernels(V));
      KernelSets.push_back({kernelVariantName(V), &Tables.back()});
    }
    // --kernels=<v> restricts the audit to one backend.
    if (CL.hasOption("kernels")) {
      KernelVariant Only;
      if (!parseKernelVariant(CL.getString("kernels", "ref"), Only)) {
        std::fprintf(stderr, "error: unknown kernel variant\n");
        return 1;
      }
      std::vector<LintKernelSet> Filtered;
      for (const LintKernelSet &Set : KernelSets)
        if (Set.Label == kernelVariantName(Only))
          Filtered.push_back(Set);
      if (Filtered.empty()) {
        std::fprintf(stderr,
                     "error: workload '%s' has no '%s' kernel backend\n",
                     Workload->Name.c_str(), kernelVariantName(Only));
        return 1;
      }
      KernelSets = Filtered;
    }
    // Without an explicit --strategy, lint the plans of all three.
    std::vector<std::pair<std::string, Strategy>> Strategies;
    if (CL.hasOption("strategy"))
      Strategies.push_back({CL.getString("strategy", "islands"), Strat});
    else
      Strategies = {{"original", Strategy::Original},
                    {"31d", Strategy::Block31D},
                    {"islands", Strategy::IslandsOfCores}};
    // Each strategy is linted twice: the stock plan, and a copy with the
    // schedule optimizer's barrier elision applied ("<name>+elide") so
    // the lint suite certifies every plan execution would actually use.
    std::vector<ExecutionPlan> Plans;
    Plans.reserve(Strategies.size() * 2);
    std::vector<LintPlanSet> PlanSets;
    for (const auto &S : Strategies) {
      Config.Strat = S.second;
      Plans.push_back(buildPlan(Prog, Grid, Machine, Config));
      PlanSets.push_back({S.first, &Plans.back()});
      Plans.push_back(Plans.back());
      optimizeBarriers(Prog, Plans.back());
      PlanSets.push_back({S.first + "+elide", &Plans.back()});
    }
    LintSuiteOptions Opts;
    Opts.RunAccessAudit = !CL.hasOption("no-audit");
    DiagnosticEngine Diags;
    runLintSuite(Prog, KernelSets, PlanSets, Diags, Opts);
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

  if (Mode == "verify") {
    // The full plan-space proof suite (see tools/icores_verify.cpp for
    // the standalone driver with the complete option set).
    ProofOptions Opts;
    Opts.Space.NI = static_cast<int>(CL.getInt("ni", Opts.Space.NI));
    Opts.Space.NJ = static_cast<int>(CL.getInt("nj", Opts.Space.NJ));
    Opts.Space.NK = static_cast<int>(CL.getInt("nk", Opts.Space.NK));
    if (CL.hasOption("steps"))
      Opts.Space.TimeSteps = Steps;
    if (CL.hasOption("workload"))
      Opts.Space.Workloads = {WorkloadName};
    ProofReport Report = runProofSuite(Opts);
    std::string Out = CL.getString("out", "BENCH_prove.json");
    if (!writeProveJsonFile(Report, Out)) {
      std::fprintf(stderr, "error: cannot write '%s'\n", Out.c_str());
      return 1;
    }
    if (CL.hasOption("json"))
      writeProveJson(Report, outs());
    std::printf("verify: %zu plans (%zu proved, %zu pruned, %zu violated), "
                "protocol %s, kill rate %.2f -> %s\n",
                Report.Plans.size(), Report.numWithVerdict("proved"),
                Report.numWithVerdict("pruned"),
                Report.numWithVerdict("violated"),
                Report.protocolOk() ? "ok" : "FAILED", Report.killRate(),
                Out.c_str());
    return Report.ok() ? 0 : 1;
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
    if (!parseKernelVariant(CL.getString("kernels", "simd"),
                            SimOpts.Kernels)) {
      std::fprintf(stderr, "error: unknown kernel variant\n");
      return 1;
    }
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
    MachineModel Host = makeToyMachine();
    Host.NumSockets = Sockets;
    ExecutorOptions ExecOpts;
    ExecOpts.Stealing = CL.hasOption("steal");
    // Price the executed plan's predicted island skew with the same
    // machine model the plan was built for, so the --profile JSON's
    // predicted_island_skew matches `simulate` by construction.
    ExecOpts.Machine = &Host;
    std::string BarrierName = CL.getString("barrier", "hybrid");
    if (!parseWaitPolicy(BarrierName, ExecOpts.BarrierPolicy)) {
      std::fprintf(stderr, "error: unknown barrier policy '%s'\n",
                   BarrierName.c_str());
      return 1;
    }
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
    ExecutionPlan Plan = buildPlan(Prog, Grid, Host, Config);
    if (!CL.hasOption("no-elide")) {
      ScheduleOptimizerReport Report = optimizeBarriers(Prog, Plan);
      std::printf("barrier elision: %lld of %lld team barriers removed "
                  "per step (use --no-elide to keep all)\n",
                  static_cast<long long>(Report.ElidedBarriers),
                  static_cast<long long>(Report.TotalPasses));
    }
    KernelVariant Kernels = KernelVariant::Reference;
    if (!parseKernelVariant(CL.getString("kernels", "ref"), Kernels)) {
      std::fprintf(stderr, "error: unknown kernel variant\n");
      return 1;
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
    Domain Dom = workloadDomain(*Workload, NI, NJ, NK);
    if (HavePlace) {
      // Arm the placement init epoch: workers must already be pinned when
      // they first-touch their arena segments, so the pinning goes in
      // through ExecutorOptions rather than setThreadPinning() (which
      // would only take effect after construction, too late for paging).
      ExecOpts.Placement = Place;
      if (Place != PlacementPolicy::None)
        ExecOpts.Pinning = computeThreadPlacement(Plan, Host);
    }
    ExecOpts.Reductions = Workload->Reductions;
    ProgramExecutor Exec(Prog, Workload->Kernels(Kernels), Dom,
                         std::move(Plan), ExecOpts);
    if (CL.hasOption("pin"))
      Exec.setThreadPinning(computeThreadPlacement(Exec.plan(), Host));
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
    if (Config.Balance == BalancePolicy::Cost || ExecOpts.Stealing) {
      const ExecStats &BS = Exec.stats();
      std::printf("balance: %s cuts, stealing %s, predicted island skew "
                  "%.4f, measured %.4f\n",
                  BS.Balance.c_str(), BS.Stealing ? "on" : "off",
                  BS.PredictedIslandSkew, BS.measuredIslandSkew());
    }
    if (Temporal > 1)
      std::printf("temporal blocking: depth %d (%d fused epochs), shared "
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
      std::printf("profile: %lld barriers elided; %lld spin wakes, %lld "
                  "sleep wakes (%s policy)\n",
                  static_cast<long long>(Stats.barriersElided()),
                  static_cast<long long>(Stats.spinWakes()),
                  static_cast<long long>(Stats.sleepWakes()),
                  waitPolicyName(ExecOpts.BarrierPolicy));
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
