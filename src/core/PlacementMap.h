//===- core/PlacementMap.h - Page-placement map and remote bytes -*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The placement map says, for every cell of the shared field arrays, which
/// socket its page is homed on under a PlacementPolicy, derived purely from
/// the plan's island partition:
///
///  - FirstTouch: each island owns an *arena segment* — its partition part
///    extended outward to cover the adjacent halo slabs (so every halo
///    page belongs to the nearest island). Segments tile the allocation,
///    and the executor's init epoch has each island's pinned team zero its
///    segment so the kernel homes those pages on the island's socket.
///  - None: every page sits on the serially-initializing thread's node
///    (modeled as island 0's home socket).
///  - Interleave: pages round-robin across the active sockets, so a 1/S
///    slice of any region is local to each socket.
///
/// On top of the map, estimateIslandRemoteEpochTraffic() takes the
/// island's per-epoch shared-array traffic (islandFootprint(): the input
/// reads — at T > 1 only the feedback-paired imports, since static inputs
/// are gathered once per prepareInputs() — and the final-step output
/// writes; the executor's own accounting) and splits it into local and
/// remote bytes, attributed per remote socket (so the
/// simulator can price each NUMA hop) and per array (so TrafficReport can
/// print a remote column). The executor's ExecStats remote_bytes_est and
/// the simulator's projection both come from this one function, so they
/// agree exactly by construction — the same contract as
/// projectedSharedBytesPerStep().
///
/// Everything here is pure plan geometry: no machine model, no syscalls.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_CORE_PLACEMENTMAP_H
#define ICORES_CORE_PLACEMENTMAP_H

#include "core/ExecutionPlan.h"
#include "grid/Placement.h"

#include <cstdint>
#include <map>
#include <vector>

namespace icores {

/// One island's arena: the part it owns, extended outward wherever the
/// part touches the global target so boundary halo slabs have an owner.
struct PlacementSegment {
  int Island = 0;
  int HomeSocket = 0;
  Box3 Extended; ///< Unbounded-ish (sentinel) box; intersect before use.
};

/// The plan-derived page-ownership map (see file comment).
struct PlacementMap {
  PlacementPolicy Policy = PlacementPolicy::None;
  std::vector<PlacementSegment> Segments; ///< One per island, plan order.
  /// Distinct sockets spanned by any island (sub-socket islands collapse),
  /// sorted ascending. |ActiveSockets| is the S of the interleave model.
  std::vector<int> ActiveSockets;
  /// The socket serial initialization homes every page on (island 0's
  /// home socket) — where all traffic funnels under PlacementPolicy::None.
  int HomeNode = 0;

  /// Points of \p Region whose pages are homed on \p Socket under
  /// FirstTouch (sums the segments of all islands on that socket).
  int64_t localPoints(const Box3 &Region, int Socket) const;

  /// The slab of \p AllocBox island \p Island must first-touch: its
  /// extended part clipped to the allocation. Segments tile AllocBox.
  Box3 arenaSegment(int Island, const Box3 &AllocBox) const;
};

/// Builds the map for \p Plan under \p Policy.
PlacementMap buildPlacementMap(const ExecutionPlan &Plan,
                               PlacementPolicy Policy);

/// The arena-segment geometry: \p Part extended outward (by a large
/// sentinel span) on every face it shares with \p Target, so adjacent
/// halo slabs belong to the nearest island. Exposed so the balance model
/// (core/BalanceModel.h) prices first-touch remote margins with exactly
/// the segment shapes the executor's init epoch touches.
Box3 extendPartToHalo(const Box3 &Part, const Box3 &Target);

/// One island's per-epoch footprint on the shared arrays, indexed by
/// ArrayId. The executor sizes its import and scratch buffers from it, and
/// the executor, the simulator and the placement model count shared bytes
/// from it.
struct IslandFootprint {
  /// Step inputs: the read union of the island's passes, feedback-paired
  /// at T > 1 (the import buffer).
  std::vector<Box3> Reads;
  /// Step outputs at T > 1: the feedback-paired write union, the scratch
  /// buffer intermediate fused steps write. Empty at T == 1, which keeps
  /// the T == 1 footprint to two allocations: a third one flipped glibc's
  /// heap trimming across back-to-back executor constructions.
  std::vector<Box3> Scratch;
  /// Step outputs: the region the final fused step writes.
  std::vector<Box3> FinalWrites;
  /// The plan's temporal depth.
  int Depth = 1;

  /// True when every epoch reads step input \p In from the shared arrays:
  /// all inputs at T == 1, only the feedback targets at T > 1. A static
  /// input's import buffer is gathered once per prepareInputs() (see
  /// ProgramExecutor) and stays valid across epochs and run() calls.
  bool readsEachEpoch(const StencilProgram &Program, ArrayId In) const {
    return Depth == 1 || !Program.isStaticInput(In);
  }

  /// Logical bytes one epoch reads from, and writes to, the shared arrays.
  int64_t readBytes(const StencilProgram &Program) const;
  int64_t writeBytes(const StencilProgram &Program) const;
  /// Logical bytes of the once-only static-input gather (0 at T == 1).
  int64_t staticGatherBytes(const StencilProgram &Program) const;
};

/// \p Island's footprint under \p Plan's temporal depth.
IslandFootprint islandFootprint(const StencilProgram &Program,
                                const ExecutionPlan &Plan,
                                const IslandPlan &Island);

/// One island's per-epoch remote traffic against a placement map.
struct IslandRemoteTraffic {
  int64_t ReadBytes = 0;  ///< Epoch input reads off remote pages.
  int64_t WriteBytes = 0; ///< Final-step output writes to remote pages.
  /// Remote bytes by the socket the pages live on (read + write), for
  /// hop-aware pricing. Keys never include the island's own home socket.
  std::map<int, int64_t> BytesBySocket;
  /// Remote bytes by shared array (read + write), for TrafficReport.
  std::map<ArrayId, int64_t> BytesByArray;

  int64_t total() const { return ReadBytes + WriteBytes; }
};

/// Splits one island's per-epoch shared-array traffic (the
/// islandFootprint() inputs it reads each epoch and its final writes)
/// into remote bytes under \p Map.
IslandRemoteTraffic
estimateIslandRemoteEpochTraffic(const IslandPlan &Island,
                                 const ExecutionPlan &Plan,
                                 const StencilProgram &Program,
                                 const PlacementMap &Map);

} // namespace icores

#endif // ICORES_CORE_PLACEMENTMAP_H
