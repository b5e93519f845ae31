//===- core/BalanceModel.h - Cost-balanced island partitioning --*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The island partition's load model. Under the islands transformation the
/// per-island work is *not* proportional to slab width: interior islands
/// evaluate two-sided dependence-cone overlaps (growing superlinearly with
/// the temporal depth T) while edge islands evaluate one, and under a
/// serial-init or interleaved page placement some islands also stream more
/// remote bytes than others. Equal-width cuts therefore skew the one-
/// barrier-per-step critical path toward the interior islands.
///
/// This header prices that skew with ONE formula, used by three consumers:
///
///  - partitionCostBalanced() places the cut planes so every slab's
///    predicted seconds are equal (monotone bisection on a cost ceiling);
///  - the simulator reports SimResult::PredictedIslandSkew;
///  - the executor stamps the same predicted skew into ExecStats next to
///    the measured one.
///
/// Because simulator and executor call the same predictedIslandSkew() on
/// the same plan, their predicted skews agree exactly by construction —
/// the balance analogue of projectedSharedBytesPerStep() and of the
/// remote-byte sums both take from estimateIslandRemoteEpochTraffic().
///
/// The per-part cost is pure plan geometry plus the machine model:
///
///   seconds(Part) = coneFlops(Part) / (Threads x peak/core x KernelEff)
///                 + remoteEpochBytes(Part) / remote stream rate
///
/// where coneFlops is the exact ExtraElements-style count (per-fused-step
/// cones clipped to the per-step global cones) weighted by each stage's
/// FlopsPerPoint, and remoteEpochBytes prices the part's step-input
/// footprint against the placement policy (first-touch pays only for the
/// margin outside the part's arena segment; serial init pays the full
/// stream on off-home islands; interleave pays the 1-1/S slice).
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_CORE_BALANCEMODEL_H
#define ICORES_CORE_BALANCEMODEL_H

#include "core/ExecutionPlan.h"

#include <cstdint>
#include <vector>

namespace icores {

struct MachineModel;

/// Minimum slab extent (planes along the cut dimension) the cost
/// partitioner guarantees every island, and PlanVerifier enforces on
/// every islands plan: an island must own at least one output plane or
/// its blocks would be empty.
inline constexpr int MinIslandPlanes = 1;

/// Exact flops of one part's fused-epoch cones: for each fused step t the
/// part's stage regions (from temporalStepTargets) are clipped to the
/// per-step global cones \p GlobalSteps — the same clipping
/// countExtraElements() applies — and weighted by StageDef::FlopsPerPoint.
int64_t partConeFlops(const StencilProgram &Program, const Box3 &Part,
                      const std::vector<Box3> &GlobalSteps);

/// The shared per-part cost for every island of a built plan, in plan
/// order: predicted seconds the island's team spends on one fused epoch of
/// its part (see the file comment for the formula). Deterministic plan
/// geometry + machine model.
std::vector<double> predictedIslandSeconds(const ExecutionPlan &Plan,
                                           const StencilProgram &Program,
                                           const MachineModel &Machine);

/// Predicted island skew of \p Plan: max over islands of
/// predictedIslandSeconds() divided by the mean. 1.0 for perfectly balanced
/// plans and for single-island plans; always >= 1.0. This is THE skew
/// formula — simulator and executor both report it, so they agree
/// exactly by construction.
double predictedIslandSkew(const ExecutionPlan &Plan,
                           const StencilProgram &Program,
                           const MachineModel &Machine);

/// Splits \p Target into \p Parts slabs along \p Dim so the per-slab
/// part costs are equalized, via monotone bisection: an outer
/// binary search on the per-island cost ceiling, an inner binary search
/// per cut plane (cost is monotone in slab width, so each search is
/// exact). The cuts tile \p Target exactly by construction and every slab
/// keeps at least MinIslandPlanes planes. Requires
/// Parts <= extent(Dim) / MinIslandPlanes.
///
/// \p OnHomeNodeByPart says, per island index, whether that island lives
/// on the serial-init home node (only consulted under
/// PagePlacement::None); pass an empty vector to mark island 0 as home.
std::vector<Box3> partitionCostBalanced(
    const StencilProgram &Program, const Box3 &Target, int Parts, int Dim,
    int TemporalDepth, int NumThreads, const MachineModel &Machine,
    PagePlacement Placement, int ActiveSockets,
    const std::vector<bool> &OnHomeNodeByPart = {});

} // namespace icores

#endif // ICORES_CORE_BALANCEMODEL_H
