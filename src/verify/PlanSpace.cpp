//===- verify/PlanSpace.cpp - Reachable plan-space enumeration ------------===//

#include "verify/PlanSpace.h"

#include "apps/Workloads.h"
#include "core/PlanBuilder.h"
#include "core/ScheduleOptimizer.h"
#include "sim/PlanAdvisor.h"
#include "stencil/WorkloadRegistry.h"
#include "support/Error.h"
#include "support/Format.h"

#include <algorithm>

using namespace icores;

MachineModel icores::planSpaceMachine(int Teams) {
  MachineModel M = makeToyMachine();
  M.Name = formatString("plan-space toy (%d sockets x %d cores)", Teams,
                        M.CoresPerSocket);
  M.NumSockets = Teams;
  return M;
}

const char *icores::strategyKey(Strategy S) {
  switch (S) {
  case Strategy::Original:
    return "original";
  case Strategy::Block31D:
    return "block31d";
  case Strategy::IslandsOfCores:
    return "islands";
  }
  return "?";
}

PlanSpaceEnumeration
icores::enumeratePlanSpace(const PlanSpaceOptions &Opts) {
  PlanSpaceEnumeration E;
  E.Opts = Opts;

  // The space covers the registry roster, not a hand-maintained list: a
  // workload registered in apps/Workloads.cpp is enumerated (and proved)
  // with no change here.
  for (const WorkloadSpec &Spec : builtinWorkloads().workloads()) {
    if (!Opts.Workloads.empty() &&
        std::find(Opts.Workloads.begin(), Opts.Workloads.end(), Spec.Name) ==
            Opts.Workloads.end())
      continue;
    PlanSpaceWorkload W;
    W.Name = Spec.Name;
    W.Program = Spec.Program;
    E.Workloads.push_back(std::move(W));
  }
  ICORES_CHECK(Opts.Workloads.empty() ||
                   E.Workloads.size() == Opts.Workloads.size(),
               "plan-space workload filter names an unregistered workload");
  ICORES_CHECK(!E.Workloads.empty(), "plan space has no workloads");

  const Box3 Grid = Box3::fromExtents(Opts.NI, Opts.NJ, Opts.NK);
  const Strategy Strategies[] = {Strategy::Original, Strategy::Block31D,
                                 Strategy::IslandsOfCores};

  for (size_t WI = 0; WI != E.Workloads.size(); ++WI) {
    const StencilProgram &Program = E.Workloads[WI].Program;
    for (Strategy Strat : Strategies)
      for (int Teams : Opts.TeamCounts)
        for (int Depth : Opts.TemporalDepths) {
          MachineModel Machine = planSpaceMachine(Teams);
          PlanConfig Config;
          Config.Strat = Strat;
          Config.Sockets = Teams;
          Config.TemporalDepth = Depth;

          std::string Prune = checkPlanConfig(Grid, Machine, Config);
          if (Prune.empty())
            Prune =
                temporalPruneReason(Program, Grid, Depth, Opts.TimeSteps);

          ExecutionPlan Built;
          if (Prune.empty())
            Built = buildPlan(Program, Grid, Machine, Config);

          for (bool Elide : {false, true}) {
            EnumeratedPlan EP;
            EP.Point.WorkloadIndex = WI;
            EP.Point.Workload = E.Workloads[WI].Name;
            EP.Point.Strat = Strat;
            EP.Point.Teams = Teams;
            EP.Point.TemporalDepth = Depth;
            EP.Point.Elide = Elide;
            EP.Point.Label = formatString(
                "%s/%s/teams%d/T%d/%s", E.Workloads[WI].Name.c_str(),
                strategyKey(Strat), Teams, Depth,
                Elide ? "elide" : "lockstep");
            EP.Feasible = Prune.empty();
            EP.PruneReason = Prune;
            if (EP.Feasible) {
              EP.Plan = Built;
              if (Elide)
                EP.ElidedBarriers =
                    optimizeBarriers(Program, EP.Plan).ElidedBarriers;
            }
            E.Plans.push_back(std::move(EP));
          }
        }
  }
  return E;
}
