//===- tools/icores_lint.cpp - Stencil static-analysis driver -------------===//
//
// Runs every static analysis over the registered workloads:
//
//   icores_lint [--json] [--strategy=all|original|31d|islands]
//               [--machine=uv2000|knc|xeon] [--sockets=N]
//               [--ni= --nj= --nk=] [--no-audit]
//               [--kernels=all|ref|opt|simd] [--workload=all|NAME]
//
//  - program validation (`program.*` findings),
//  - kernel access audit of every kernel variant against the declared
//    IR windows (`access.*`),
//  - plan dataflow verification (`plan.*`) and schedule race checking
//    (`race.*`) for each selected strategy's plan, both as built and
//    after barrier elision ("<strategy>+elide").
//
// Every workload of the built-in WorkloadRegistry is linted by default;
// kernel sets and plans are labelled "<workload>/<name>" so findings
// name their origin. Prints one finding per line (or the `icores.lint.v1`
// JSON document with --json) and exits nonzero when any error-severity
// finding is reported. CI runs this on every change; see DESIGN.md §7 for
// the finding taxonomy and §15 for the workload registry contract.
//
//===----------------------------------------------------------------------===//

#include "apps/Workloads.h"
#include "core/PlanBuilder.h"
#include "core/ScheduleOptimizer.h"
#include "exec/LintSuite.h"
#include "machine/MachineModel.h"
#include "stencil/WorkloadRegistry.h"
#include "support/CommandLine.h"
#include "support/Diagnostics.h"
#include "support/Format.h"
#include "support/OStream.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace icores;

namespace {

void printUsage() {
  std::printf(
      "usage: icores_lint [options]\n"
      "  --json                      emit the icores.lint.v1 JSON document\n"
      "  --workload=all|NAME         registered workloads to lint (default\n"
      "                              all; `mpdata_cli list-workloads`\n"
      "                              prints the manifest)\n"
      "  --strategy=all|original|31d|islands  plans to check (default all)\n"
      "  --machine=uv2000|knc|xeon   machine model for planning (default\n"
      "                              uv2000)\n"
      "  --sockets=N                 sockets to plan for (default: all)\n"
      "  --ni= --nj= --nk=           grid (default 1024x512x64)\n"
      "  --no-audit                  skip the kernel access audit\n"
      "  --kernels=all|ref|opt|simd  kernel variants to audit (default:\n"
      "                              all the workload implements)\n");
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine CL;
  for (const char *Opt : {"json", "strategy", "machine", "sockets", "ni",
                          "nj", "nk", "no-audit", "kernels", "workload",
                          "help"})
    CL.registerOption(Opt, "");
  std::string Error;
  if (!CL.parse(Argc, Argv, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    printUsage();
    return 1;
  }
  if (CL.hasOption("help")) {
    printUsage();
    return 0;
  }

  MachineModel Machine;
  std::string MachineName = CL.getString("machine", "uv2000");
  if (MachineName == "uv2000")
    Machine = makeSgiUv2000();
  else if (MachineName == "knc")
    Machine = makeXeonPhiKnc();
  else if (MachineName == "xeon")
    Machine = makeXeonE5_2660v2();
  else {
    std::fprintf(stderr, "error: unknown machine '%s'\n",
                 MachineName.c_str());
    return 1;
  }

  std::string StratName = CL.getString("strategy", "all");
  std::vector<std::pair<std::string, Strategy>> Strategies;
  if (StratName == "all" || StratName == "original")
    Strategies.push_back({"original", Strategy::Original});
  if (StratName == "all" || StratName == "31d")
    Strategies.push_back({"31d", Strategy::Block31D});
  if (StratName == "all" || StratName == "islands")
    Strategies.push_back({"islands", Strategy::IslandsOfCores});
  if (Strategies.empty()) {
    std::fprintf(stderr, "error: unknown strategy '%s'\n",
                 StratName.c_str());
    return 1;
  }

  const WorkloadRegistry &Registry = builtinWorkloads();
  std::string WorkloadName = CL.getString("workload", "all");
  std::vector<const WorkloadSpec *> Workloads;
  if (WorkloadName == "all") {
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

  std::string KernelsName = CL.getString("kernels", "all");
  KernelVariant OnlyVariant = KernelVariant::Reference;
  if (KernelsName != "all" &&
      !parseKernelVariant(KernelsName, OnlyVariant)) {
    std::fprintf(stderr, "error: unknown kernel variant '%s'\n",
                 KernelsName.c_str());
    return 1;
  }

  int NI = static_cast<int>(CL.getInt("ni", 1024));
  int NJ = static_cast<int>(CL.getInt("nj", 512));
  int NK = static_cast<int>(CL.getInt("nk", 64));
  int Sockets =
      static_cast<int>(CL.getInt("sockets", Machine.NumSockets));
  Box3 Grid = Box3::fromExtents(NI, NJ, NK);

  LintSuiteOptions Opts;
  Opts.RunAccessAudit = !CL.hasOption("no-audit");
  DiagnosticEngine Diags;

  for (const WorkloadSpec *Spec : Workloads) {
    // Lint each workload's program against its own kernel backends and
    // the plans of every selected strategy. Labels carry the workload
    // name only when several are linted, keeping single-workload output
    // (and the lint tests that parse it) stable.
    std::string Prefix =
        Workloads.size() > 1 ? Spec->Name + "/" : std::string();

    std::vector<KernelTable> Tables;
    Tables.reserve(Spec->Variants.size());
    std::vector<std::string> SetNames;
    SetNames.reserve(Spec->Variants.size());
    std::vector<LintKernelSet> KernelSets;
    for (KernelVariant V : Spec->Variants) {
      if (KernelsName != "all" && V != OnlyVariant)
        continue;
      Tables.push_back(Spec->Kernels(V));
      SetNames.push_back(Prefix + kernelVariantName(V));
      KernelSets.push_back({SetNames.back(), &Tables.back()});
    }
    if (KernelsName != "all" && KernelSets.empty())
      // The workload does not implement the requested backend; nothing
      // to audit, but the plans below are still checked.
      Opts.RunAccessAudit = false;

    // Each strategy is linted twice: the stock plan, and a copy with the
    // schedule optimizer's barrier elision applied ("<name>+elide"), the
    // plan every execution actually runs.
    std::vector<ExecutionPlan> Plans;
    Plans.reserve(Strategies.size() * 2);
    std::vector<std::string> PlanNames;
    PlanNames.reserve(Strategies.size() * 2);
    std::vector<LintPlanSet> PlanSets;
    for (const auto &S : Strategies) {
      PlanConfig Config;
      Config.Strat = S.second;
      Config.Sockets = Sockets;
      Plans.push_back(buildPlan(Spec->Program, Grid, Machine, Config));
      PlanNames.push_back(Prefix + S.first);
      PlanSets.push_back({PlanNames.back(), &Plans.back()});
      Plans.push_back(Plans.back());
      optimizeBarriers(Spec->Program, Plans.back());
      PlanNames.push_back(Prefix + S.first + "+elide");
      PlanSets.push_back({PlanNames.back(), &Plans.back()});
    }

    runLintSuite(Spec->Program, KernelSets, PlanSets, Diags, Opts);
    Opts.RunAccessAudit = !CL.hasOption("no-audit");
  }

  if (CL.hasOption("json")) {
    Diags.printJson(outs());
  } else {
    Diags.printText(outs());
    outs() << formatString(
        "icores_lint: %zu findings (%zu errors, %zu warnings)\n",
        Diags.numFindings(), Diags.numErrors(), Diags.numWarnings());
  }
  return Diags.hasErrors() ? 1 : 0;
}
