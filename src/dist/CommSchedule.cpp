//===- dist/CommSchedule.cpp - Static rank communication schedules --------===//

#include "dist/CommSchedule.h"

#include "stencil/WorkloadRegistry.h"
#include "support/MathUtil.h"

#include <algorithm>

using namespace icores;

Box3 icores::rankOwnedBox(int Rank, int PI, int PJ, int NI, int NJ,
                          int NK) {
  int Pi = Rank / PJ;
  int Pj = Rank % PJ;
  return Box3(static_cast<int>(chunkBegin(NI, PI, Pi)),
              static_cast<int>(chunkBegin(NJ, PJ, Pj)), 0,
              static_cast<int>(chunkBegin(NI, PI, Pi + 1)),
              static_cast<int>(chunkBegin(NJ, PJ, Pj + 1)), NK);
}

namespace {

DimExchange planDimExchange(int Rank, int PI, int PJ, const Box3 &Owned,
                            int Halo, int Dim, const Box3 &Slab) {
  int Pi = Rank / PJ;
  int Pj = Rank % PJ;
  int Parts = Dim == 0 ? PI : PJ;
  int Pos = Dim == 0 ? Pi : Pj;
  auto rankAt = [&](int P) {
    P = (P % Parts + Parts) % Parts;
    return Dim == 0 ? P * PJ + Pj : Pi * PJ + P;
  };

  DimExchange Ex;
  Ex.Minus = rankAt(Pos - 1);
  Ex.Plus = rankAt(Pos + 1);
  Ex.SendLow = Ex.SendHigh = Ex.RecvLow = Ex.RecvHigh = Slab;
  Ex.SendLow.Lo[Dim] = Owned.Lo[Dim];
  Ex.SendLow.Hi[Dim] = Owned.Lo[Dim] + Halo;
  Ex.SendHigh.Lo[Dim] = Owned.Hi[Dim] - Halo;
  Ex.SendHigh.Hi[Dim] = Owned.Hi[Dim];
  Ex.RecvLow.Lo[Dim] = Owned.Lo[Dim] - Halo;
  Ex.RecvLow.Hi[Dim] = Owned.Lo[Dim];
  Ex.RecvHigh.Lo[Dim] = Owned.Hi[Dim];
  Ex.RecvHigh.Hi[Dim] = Owned.Hi[Dim] + Halo;
  return Ex;
}

/// Appends one halo exchange in DistributedRank::exchangeHalo order: per
/// dimension both sends first (buffered), then both recvs.
void appendHaloExchange(std::vector<CommOp> &Ops, int Rank, int PI, int PJ,
                        const Box3 &Owned, int Halo, int TagBase) {
  for (const DimExchange &Ex : planHaloExchange(Rank, PI, PJ, Owned, Halo)) {
    Ops.push_back(CommOp::send(Ex.Minus, TagBase + 0, Ex.SendLow.numPoints()));
    Ops.push_back(CommOp::send(Ex.Plus, TagBase + 1, Ex.SendHigh.numPoints()));
    Ops.push_back(CommOp::recv(Ex.Minus, TagBase + 1, Ex.RecvLow.numPoints()));
    Ops.push_back(CommOp::recv(Ex.Plus, TagBase + 0, Ex.RecvHigh.numPoints()));
    TagBase += 2;
  }
}

} // namespace

std::array<DimExchange, 2> icores::planHaloExchange(int Rank, int PI, int PJ,
                                                    const Box3 &Owned,
                                                    int Halo) {
  Box3 Slab1 = Owned;
  Slab1.Lo[0] -= Halo;
  Slab1.Hi[0] += Halo;
  return {planDimExchange(Rank, PI, PJ, Owned, Halo, 0, Owned),
          planDimExchange(Rank, PI, PJ, Owned, Halo, 1, Slab1)};
}

std::vector<ArrayId>
icores::onceExchangedInputs(const StencilProgram &Program) {
  std::vector<ArrayId> Ids;
  for (ArrayId In : Program.stepInputs())
    if (std::none_of(Program.feedbacks().begin(), Program.feedbacks().end(),
                     [In](const FeedbackPair &FB) { return FB.Target == In; }))
      Ids.push_back(In);
  return Ids;
}

std::vector<RankCommSchedule>
icores::buildCommSchedule(const WorkloadSpec &Spec, int PI, int PJ, int NI,
                          int NJ, int NK, int Steps) {
  const size_t OnceInputs = onceExchangedInputs(Spec.Program).size();
  const size_t Feedbacks = Spec.Program.feedbacks().size();
  std::vector<RankCommSchedule> Schedules;
  Schedules.reserve(static_cast<size_t>(PI) * PJ);
  for (int R = 0; R != PI * PJ; ++R) {
    RankCommSchedule S;
    S.Rank = R;
    Box3 Owned = rankOwnedBox(R, PI, PJ, NI, NJ, NK);
    auto exchange = [&](int TagBase) {
      appendHaloExchange(S.Ops, R, PI, PJ, Owned, Spec.HaloDepth, TagBase);
    };
    for (size_t A = 0; A != OnceInputs; ++A)
      exchange(InputTagBase);
    for (int Step = 0; Step != Steps; ++Step)
      for (size_t F = 0; F != Feedbacks; ++F)
        exchange(StepTagBase);
    S.Ops.push_back(CommOp::barrier());
    Schedules.push_back(std::move(S));
  }
  return Schedules;
}
