//===- core/PlanBuilder.h - Strategy plan construction ----------*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds a complete ExecutionPlan for one of the paper's three strategies
/// on a given machine configuration. This is where the islands-of-cores
/// policy decisions live: one island per socket, neighbor parts on adjacent
/// sockets, per-socket cache budgets, and the choice of partition variant.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_CORE_PLANBUILDER_H
#define ICORES_CORE_PLANBUILDER_H

#include "core/ExecutionPlan.h"
#include "core/Partition.h"

#include <string>

namespace icores {

struct MachineModel;

/// Configuration of one planned run.
struct PlanConfig {
  Strategy Strat = Strategy::IslandsOfCores;
  /// Number of processors (sockets) participating; 1..machine sockets.
  int Sockets = 1;
  PagePlacement Placement = PagePlacement::FirstTouch;
  /// How island slabs are sized: equal extents (the paper's cuts) or
  /// equal predicted cost (core/BalanceModel.h — interior islands'
  /// superlinear cone overlap shrinks their slabs so every island
  /// reaches the step barrier together). Cost applies to the 1D island
  /// partition; 2D island grids and the single-team strategies keep
  /// uniform cuts.
  BalancePolicy Balance = BalancePolicy::Uniform;
  /// 1D mapping variant for islands (Table 2's A or B).
  PartitionVariant Variant = PartitionVariant::A;
  /// When both are > 0, use a GridPartsI x GridPartsJ 2D island grid
  /// instead of the 1D variant (the paper's future work; must multiply to
  /// the total island count).
  int GridPartsI = 0;
  int GridPartsJ = 0;
  /// Islands per socket (the paper's future work of applying the approach
  /// *within* each multicore CPU). Must divide the cores per socket; the
  /// total island count becomes Sockets * IslandsPerSocket.
  int IslandsPerSocket = 1;
  /// Fused time steps per epoch (temporal blocking); see
  /// ExecutionPlan::TemporalDepth. Must be >= 1. For T > 1 each island's
  /// blocks are emitted once per fused step over the widened per-step
  /// cones of temporalStepTargets(), ordered by step.
  int TemporalDepth = 1;
};

/// Whether \p Config can be planned over \p Grid on \p Machine. This is
/// the one statement of the plan-request rules:
///  - the grid is not empty;
///  - the socket count is in [1, machine sockets];
///  - the temporal depth is at least 1;
///  - for islands, the islands per socket divide the cores per socket, a
///    2D island grid has exactly the island count and fits the extents,
///    and a 1D split gives every slab at least MinIslandPlanes planes.
/// Returns an empty string when the request can be planned (allocating
/// nothing), otherwise a one-line reason naming the first rule it breaks.
/// buildPlan() checks it at entry; drivers call it first and report the
/// reason instead of aborting.
std::string checkPlanConfig(const Box3 &Grid, const MachineModel &Machine,
                            const PlanConfig &Config);

/// Builds the per-time-step plan for \p Config over \p GlobalTarget, which
/// must pass checkPlanConfig().
ExecutionPlan buildPlan(const StencilProgram &Program,
                        const Box3 &GlobalTarget, const MachineModel &Machine,
                        const PlanConfig &Config);

} // namespace icores

#endif // ICORES_CORE_PLANBUILDER_H
