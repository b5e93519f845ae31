//===- dist/DistributedSolver.cpp - MPI-style distributed runs ------------===//

#include "dist/DistributedSolver.h"

#include "dist/CommSchedule.h"
#include "grid/Domain.h"
#include "support/Error.h"

#include <mutex>
#include <thread>
#include <utility>

using namespace icores;

namespace {

/// Copies \p Region of \p A into \p Buf in (i, j, k) order.
void packBox(const Array3D &A, const Box3 &Region, std::vector<double> &Buf) {
  Buf.resize(static_cast<size_t>(Region.numPoints()));
  size_t Pos = 0;
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J)
      for (int K = Region.Lo[2]; K != Region.Hi[2]; ++K)
        Buf[Pos++] = A.at(I, J, K);
}

/// Writes \p Buf back into \p Region of \p A.
void unpackBox(Array3D &A, const Box3 &Region,
               const std::vector<double> &Buf) {
  ICORES_CHECK(Buf.size() == static_cast<size_t>(Region.numPoints()),
               "halo payload does not match the region");
  size_t Pos = 0;
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J)
      for (int K = Region.Lo[2]; K != Region.Hi[2]; ++K)
        A.at(I, J, K) = Buf[Pos++];
}

} // namespace

DistributedRank::DistributedRank(RankComm &Comm, const WorkloadSpec &Spec,
                                 KernelVariant Variant, int NI, int NJ,
                                 int NK, int PI, int PJ, uint64_t Seed)
    : Comm(Comm), Program(Spec.Program), Kernels(Spec.Kernels(Variant)),
      PI(PI), PJ(PJ), NK(NK), Halo(Spec.HaloDepth),
      Fields(Spec.Program.numArrays()) {
  if (!Program.reductions().empty())
    throw Error(Error::Kind::Generic,
                "workload '" + Spec.Name +
                    "' declares reductions, which distributed runs do not "
                    "support");
  ICORES_CHECK(PI >= 1 && PJ >= 1 && PI * PJ == Comm.numRanks(),
               "rank grid does not match the world size");
  Owned = rankOwnedBox(Comm.rank(), PI, PJ, NI, NJ, NK);
  ICORES_CHECK(Owned.extent(0) >= Halo && Owned.extent(1) >= Halo,
               "rank part thinner than the halo depth");
  LocalAlloc = Owned.grownAll(Halo);

  // Requirements: this rank's dependence cones, clipped to what the
  // single-machine original would compute (identical accounting to the
  // shared-memory islands).
  RegionRequirements Global =
      computeRequirements(Program, Box3::fromExtents(NI, NJ, NK));
  Req = computeRequirements(Program, Owned);
  for (unsigned S = 0; S != Program.numStages(); ++S)
    Req.StageRegion[S] = Req.StageRegion[S].intersect(Global.StageRegion[S]);

  for (unsigned A = 0; A != Program.numArrays(); ++A) {
    ArrayId Id = static_cast<ArrayId>(A);
    if (Program.array(Id).Role == ArrayRole::Intermediate) {
      Fields.allocateOwned(Id, LocalAlloc);
    } else {
      External.emplace(Id, Array3D(LocalAlloc));
      Fields.bindExternal(Id, &External.at(Id));
    }
  }

  // Evaluate the seeded init over the halo-free global domain and keep
  // the owned part only.
  Domain GlobalDom(NI, NJ, NK, /*HaloDepth=*/0);
  std::map<ArrayId, Array3D> Init;
  Spec.Init({GlobalDom, Seed, [&](ArrayId Id) -> Array3D & {
               return Init.try_emplace(Id, GlobalDom.allocBox())
                   .first->second;
             }});
  for (const auto &[Id, A] : Init)
    External.at(Id).copyRegionFrom(A, Owned);
}

void DistributedRank::exchangeHalo(Array3D &A, int TagBase) {
  // Peers, tags, and slab boxes come from the same planner the protocol
  // model checker verifies (dist/CommSchedule.h), so the schedule proved
  // deadlock-free is the schedule executed here.
  std::vector<double> Buf;
  for (const DimExchange &Ex :
       planHaloExchange(Comm.rank(), PI, PJ, Owned, Halo)) {
    packBox(A, Ex.SendLow, Buf);
    Comm.send(Ex.Minus, TagBase + 0, Buf.data(), Buf.size());
    packBox(A, Ex.SendHigh, Buf);
    Comm.send(Ex.Plus, TagBase + 1, Buf.data(), Buf.size());

    Buf.resize(static_cast<size_t>(Ex.RecvLow.numPoints()));
    Comm.recv(Ex.Minus, TagBase + 1, Buf.data(), Buf.size());
    unpackBox(A, Ex.RecvLow, Buf);
    Buf.resize(static_cast<size_t>(Ex.RecvHigh.numPoints()));
    Comm.recv(Ex.Plus, TagBase + 0, Buf.data(), Buf.size());
    unpackBox(A, Ex.RecvHigh, Buf);
    TagBase += 2;
  }
  fillLocalKHalo(A);
}

void DistributedRank::fillLocalKHalo(Array3D &A) {
  for (int I = LocalAlloc.Lo[0]; I != LocalAlloc.Hi[0]; ++I)
    for (int J = LocalAlloc.Lo[1]; J != LocalAlloc.Hi[1]; ++J)
      for (int K = LocalAlloc.Lo[2]; K != LocalAlloc.Hi[2]; ++K) {
        if (K >= 0 && K < NK)
          continue;
        A.at(I, J, K) = A.at(I, J, Domain::wrapIndex(K, NK));
      }
}

void DistributedRank::prepareInputs() {
  for (ArrayId Id : onceExchangedInputs(Program))
    exchangeHalo(External.at(Id), InputTagBase);
}

void DistributedRank::step() {
  for (const FeedbackPair &FB : Program.feedbacks())
    exchangeHalo(External.at(FB.Target), StepTagBase);
  for (unsigned S = 0; S != Program.numStages(); ++S)
    Kernels.run(Fields, static_cast<StageId>(S), Req.StageRegion[S]);
  for (const FeedbackPair &FB : Program.feedbacks())
    std::swap(External.at(FB.Source), External.at(FB.Target));
}

void DistributedRank::run(int Steps) {
  for (int S = 0; S != Steps; ++S)
    step();
  Comm.barrier();
}

double DistributedRank::localSum(ArrayId Id) const {
  const Array3D &A = External.at(Id);
  double Sum = 0.0;
  for (int I = Owned.Lo[0]; I != Owned.Hi[0]; ++I)
    for (int J = Owned.Lo[1]; J != Owned.Hi[1]; ++J)
      for (int K = Owned.Lo[2]; K != Owned.Hi[2]; ++K)
        Sum += A.at(I, J, K);
  return Sum;
}

double DistributedRank::globalSum(ArrayId Id) const {
  return Comm.allreduceSum(localSum(Id));
}

DistributedResult icores::runDistributed(const WorkloadSpec &Spec,
                                         KernelVariant Variant, int PI,
                                         int PJ, int NI, int NJ, int NK,
                                         int Steps, uint64_t Seed,
                                         FaultInjector *Injector,
                                         const CommTimeouts &Timeouts) {
  CommWorld World(PI * PJ);
  World.arm(Injector);
  World.setTimeouts(Timeouts);

  DistributedResult Result;
  for (ArrayId Id : Spec.Program.stepInputs())
    Result.Arrays.emplace(Id, Array3D(Box3::fromExtents(NI, NJ, NK)));
  for (ArrayId Id : Spec.Program.stepOutputs())
    Result.Arrays.emplace(Id, Array3D(Box3::fromExtents(NI, NJ, NK)));
  std::mutex GatherMutex;

  std::vector<std::thread> Threads;
  Threads.reserve(static_cast<size_t>(PI) * PJ);
  for (int R = 0; R != PI * PJ; ++R) {
    Threads.emplace_back([&, R] {
      try {
        RankComm Comm(World, R);
        DistributedRank Rank(Comm, Spec, Variant, NI, NJ, NK, PI, PJ, Seed);
        Rank.prepareInputs();
        Rank.run(Steps);
        std::lock_guard<std::mutex> Lock(GatherMutex);
        for (const auto &[Id, A] : Rank.arrays())
          Result.Arrays.at(Id).copyRegionFrom(A, Rank.ownedBox());
      } catch (const Error &E) {
        // Graceful degradation: poison the world *first* so peers
        // blocked on this rank's messages or in the barrier fail fast,
        // then record the structured failure.
        World.poison(R, E.message());
        std::lock_guard<std::mutex> Lock(GatherMutex);
        Result.RankErrors.push_back(
            "rank " + std::to_string(R) + ": " + E.message());
        if (Result.ErrorTrace.empty() && !E.faultTrace().empty())
          Result.ErrorTrace = E.faultTrace();
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  Result.Ok = Result.RankErrors.empty();
  if (Injector)
    Result.Faults = Injector->stats();
  return Result;
}
