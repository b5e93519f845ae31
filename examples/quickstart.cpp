//===- examples/quickstart.cpp - Five-minute tour of the library ----------===//
//
// Quickstart: run the registered MPDATA workload (a Gaussian tracer blob
// advected by a constant velocity) first through the serial oracle, then
// through the islands-of-cores executor with real threads — and verify
// the two agree bit-for-bit. Any other registered workload runs the same
// way; only the name passed to find() changes.
//
// Run:  ./quickstart [--ni=32 --nj=24 --nk=16 --steps=20 --islands=2]
//
//===----------------------------------------------------------------------===//

#include "apps/Workloads.h"
#include "core/PlanBuilder.h"
#include "exec/ProgramExecutor.h"
#include "machine/MachineModel.h"
#include "stencil/SerialStepper.h"
#include "support/CommandLine.h"
#include "support/Format.h"

#include <cstdio>

using namespace icores;

int main(int Argc, char **Argv) {
  CommandLine CL;
  CL.registerOption("ni", "grid cells along i (default 32)");
  CL.registerOption("nj", "grid cells along j (default 24)");
  CL.registerOption("nk", "grid cells along k (default 16)");
  CL.registerOption("steps", "time steps (default 20)");
  CL.registerOption("islands", "number of islands (default 2)");
  CL.registerOption("help", "print this help");
  std::string Error;
  if (!CL.parse(Argc, Argv, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  if (CL.hasOption("help")) {
    std::printf("quickstart options:\n%s", CL.helpText().c_str());
    return 0;
  }
  int NI = static_cast<int>(CL.getInt("ni", 32));
  int NJ = static_cast<int>(CL.getInt("nj", 24));
  int NK = static_cast<int>(CL.getInt("nk", 16));
  int Steps = static_cast<int>(CL.getInt("steps", 20));
  int Islands = static_cast<int>(CL.getInt("islands", 2));

  std::printf("MPDATA quickstart: %dx%dx%d grid, %d steps, %d islands\n\n",
              NI, NJ, NK, Steps, Islands);

  const WorkloadSpec &Spec = *builtinWorkloads().find("mpdata");
  MachineModel Machine = makeToyMachine();
  Machine.NumSockets = Islands; // One island per model socket.
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = Islands;
  // Refuse what the library cannot run before building anything.
  std::string Why =
      Steps < 0 ? formatString("--steps=%d must be at least 0", Steps)
                : checkPlanConfig(Box3::fromExtents(NI, NJ, NK), Machine,
                                  Config);
  if (Why.empty())
    Why = workloadDomain(Spec, NI, NJ, NK).checkHalo();
  if (!Why.empty()) {
    std::fprintf(stderr, "error: %s\n", Why.c_str());
    return 1;
  }

  const uint64_t Seed = 1;
  Domain Dom = workloadDomain(Spec, NI, NJ, NK);
  // MPDATA advances its tracer in the feedback target xIn; the registered
  // init sets h = 1, so the tracer sum is the conserved mass.
  ArrayId Tracer = Spec.Program.feedbacks().front().Target;

  // --- 1. Serial oracle run -------------------------------------------
  SerialStepper Solver(Spec.Program, Spec.Kernels(KernelVariant::Reference),
                       Dom, Spec.Reductions);
  initWorkload(Spec, Solver, Seed);
  double MassBefore = Solver.array(Tracer).sumRegion(Dom.coreBox());
  Solver.run(Steps);
  double MassAfter = Solver.array(Tracer).sumRegion(Dom.coreBox());
  std::printf("serial oracle: mass %.12f -> %.12f (drift %.2e)\n\n",
              MassBefore, MassAfter, MassAfter - MassBefore);

  // --- 2. Islands-of-cores run with real threads -----------------------
  ExecutionPlan Plan =
      buildPlan(Spec.Program, Dom.coreBox(), Machine, Config);
  std::printf("islands plan: %zu islands x %d threads, %zu blocks on "
              "island 0\n",
              Plan.Islands.size(), Plan.Islands[0].NumThreads,
              Plan.Islands[0].Blocks.size());

  ExecutorOptions Opts;
  Opts.Reductions = Spec.Reductions;
  ProgramExecutor Exec(Spec.Program, Spec.Kernels(KernelVariant::Simd), Dom,
                       std::move(Plan), Opts);
  initWorkload(Spec, Exec, Seed);
  Exec.run(Steps);

  double MaxDiff =
      Exec.array(Tracer).maxAbsDiff(Solver.array(Tracer), Dom.coreBox());
  std::printf("max |islands - serial| over the grid: %.3e %s\n", MaxDiff,
              MaxDiff == 0.0 ? "(bit-exact)" : "");
  return MaxDiff == 0.0 ? 0 : 1;
}
