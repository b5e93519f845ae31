//===- dist/CommSchedule.h - Static rank communication schedules -*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static side of the distributed halo protocol: the per-rank ordered
/// send/recv/barrier schedules DistributedRank executes for any
/// registered workload, extracted without running any rank. The peer,
/// tag, payload-shape and exchanged-array computations here are the
/// *same functions* DistributedSolver.cpp calls at runtime (rankOwnedBox,
/// planHaloExchange, onceExchangedInputs), so the extracted schedule
/// cannot drift from the executed one. The protocol model checker
/// (verify/ProtocolCheck.h) consumes these schedules to prove the
/// exchange deadlock- and orphan-free, including under rank-death
/// poisoning.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_DIST_COMMSCHEDULE_H
#define ICORES_DIST_COMMSCHEDULE_H

#include "grid/Box3.h"
#include "stencil/StencilIR.h"

#include <array>
#include <cstdint>
#include <vector>

namespace icores {

struct WorkloadSpec;

/// Tag bases of the two exchange kinds: the per-step feedback-target
/// exchange and the once-only exchange of the other step inputs.
inline constexpr int StepTagBase = 0;
inline constexpr int InputTagBase = 100;

/// One communication action of one rank, in program order. Sends are
/// buffered (they complete immediately); recvs block until the matching
/// message arrives; barriers block until every live rank arrives.
struct CommOp {
  enum class Kind { Send, Recv, Barrier };
  Kind K = Kind::Barrier;
  int Peer = -1;     ///< Destination (Send) or source (Recv) rank.
  int Tag = 0;       ///< Mailbox tag (Send/Recv).
  int64_t Count = 0; ///< Payload doubles (Send/Recv).

  static CommOp send(int Peer, int Tag, int64_t Count) {
    return {Kind::Send, Peer, Tag, Count};
  }
  static CommOp recv(int Peer, int Tag, int64_t Count) {
    return {Kind::Recv, Peer, Tag, Count};
  }
  static CommOp barrier() { return {Kind::Barrier, -1, 0, 0}; }
};

struct RankCommSchedule {
  int Rank = 0;
  std::vector<CommOp> Ops;
};

/// The core box rank \p Rank owns in a PI x PJ decomposition of an
/// NI x NJ x NK grid (the same balanced chunking DistributedRank uses).
Box3 rankOwnedBox(int Rank, int PI, int PJ, int NI, int NJ, int NK);

/// The four slab transfers of one dimension's halo exchange: who the
/// wrapped minus/plus neighbors are and which sub-boxes travel. Sends use
/// tags TagBase + 0 (to minus) and TagBase + 1 (to plus); the matching
/// recvs take TagBase + 1 (from minus) and TagBase + 0 (from plus).
struct DimExchange {
  int Minus = -1;
  int Plus = -1;
  Box3 SendLow, SendHigh, RecvLow, RecvHigh;
};

/// One full halo exchange of one array, in execution order: dimension 0
/// over the owned slab at TagBase, then dimension 1 over the i-extended
/// slab at TagBase + 2, which forwards the corners just received. k is
/// not decomposed and wraps locally without messages.
std::array<DimExchange, 2> planHaloExchange(int Rank, int PI, int PJ,
                                            const Box3 &Owned, int Halo);

/// The step inputs exchanged once, before the first step, at
/// InputTagBase: every step input that is not a feedback target, in
/// ArrayId order. Feedback targets are exchanged every step instead.
std::vector<ArrayId> onceExchangedInputs(const StencilProgram &Program);

/// The full communication schedule of runDistributed's rank loop for
/// \p Spec: prepareInputs (one exchange per onceExchangedInputs entry),
/// then per step one exchange per feedback target at StepTagBase, and
/// the closing barrier.
std::vector<RankCommSchedule> buildCommSchedule(const WorkloadSpec &Spec,
                                                int PI, int PJ, int NI,
                                                int NJ, int NK, int Steps);

} // namespace icores

#endif // ICORES_DIST_COMMSCHEDULE_H
