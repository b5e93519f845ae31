//===- verify/PlanSpace.h - Reachable plan-space enumeration ----*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Enumerates every reachable ExecutionPlan configuration of the proof
/// driver's verification space: every registered workload (the built-in
/// WorkloadRegistry roster — MPDATA, the advection-diffusion app, the
/// reduction-carrying CFL advection, ...) x all three strategies x team
/// counts {1, 2, 4} x temporal depths {1, 2, 4} x barrier elision on/off.
/// Infeasible points are pruned by the rules PlanAdvisor uses
/// (checkPlanConfig(), then temporalPruneReason(): whole-epoch step counts
/// and widened cones bounded by 2x the grid) but are still *emitted*,
/// tagged with the prune reason, so the prover's record set covers the
/// whole space — a pruned point in BENCH_prove.json is a decision, not a gap.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_VERIFY_PLANSPACE_H
#define ICORES_VERIFY_PLANSPACE_H

#include "core/ExecutionPlan.h"
#include "machine/MachineModel.h"
#include "stencil/StencilIR.h"

#include <string>
#include <vector>

namespace icores {

/// Enumeration bounds. The default grid is the smallest on which an
/// MPDATA temporal depth of 4 still passes the advisor's 2x-cone prune
/// (halo 3, 3 extra fused steps: 48+18 <= 96 and 32+18 <= 64).
struct PlanSpaceOptions {
  int NI = 48, NJ = 32, NK = 32;
  int TimeSteps = 8;
  std::vector<int> TeamCounts = {1, 2, 4};
  std::vector<int> TemporalDepths = {1, 2, 4};
  /// Registered workload names to restrict the space to; empty means
  /// every workload of the built-in registry. Unknown names are fatal
  /// (the proof suite must never silently verify nothing).
  std::vector<std::string> Workloads;
};

/// One workload the space is enumerated over.
struct PlanSpaceWorkload {
  std::string Name; ///< Registry name: "mpdata", "advdiff", ...
  StencilProgram Program;
};

/// Coordinates of one point of the space.
struct PlanPoint {
  size_t WorkloadIndex = 0;
  std::string Workload;
  Strategy Strat = Strategy::Original;
  int Teams = 1;
  int TemporalDepth = 1;
  bool Elide = false;
  /// Stable record key, e.g. "mpdata/islands/teams2/T4/elide".
  std::string Label;
};

/// One enumerated point: either a built (and optionally barrier-elided)
/// plan, or a pruned coordinate with the reason.
struct EnumeratedPlan {
  PlanPoint Point;
  bool Feasible = false;
  std::string PruneReason; ///< Non-empty exactly when !Feasible.
  ExecutionPlan Plan;      ///< Meaningful only when Feasible.
  int64_t ElidedBarriers = 0; ///< Barriers removed when Point.Elide.
};

/// The whole enumerated space.
struct PlanSpaceEnumeration {
  PlanSpaceOptions Opts;
  std::vector<PlanSpaceWorkload> Workloads;
  std::vector<EnumeratedPlan> Plans;
};

/// The machine the space is planned against: a toy NUMA box with \p Teams
/// sockets of 2 cores, so team count maps 1:1 onto sockets.
MachineModel planSpaceMachine(int Teams);

/// Short stable strategy key: "original", "block31d", "islands".
const char *strategyKey(Strategy S);

/// Enumerates the full space (builds every feasible plan).
PlanSpaceEnumeration enumeratePlanSpace(const PlanSpaceOptions &Opts = {});

} // namespace icores

#endif // ICORES_VERIFY_PLANSPACE_H
