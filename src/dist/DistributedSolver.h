//===- dist/DistributedSolver.h - MPI-style distributed runs ----*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's future work: "we plan to study the usage of MPI for
/// extending the scalability of our approach for much larger system
/// configurations". This module implements that extension over the
/// RankComm substrate for any registered workload: the global domain is
/// decomposed into a PI x PJ grid of rank parts (one rank = one SMP/NUMA
/// machine). Ranks exchange input-array halos explicitly — the feedback
/// targets once per time step, the other step inputs once before the
/// first step — as a two-phase exchange (first dimension, then second
/// dimension over the extended range, which carries the corners), and
/// then run the whole step *independently*, recomputing their inter-rank
/// dependence cones: the islands-of-cores idea lifted to distributed
/// memory. A 1D decomposition is the PJ = 1 special case; the 2D grids
/// are the paper's other future-work item and cure the sliver problem the
/// cluster benchmark exposes at scale. Programs with per-step reductions
/// are not supported yet (the rank constructor throws).
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_DIST_DISTRIBUTEDSOLVER_H
#define ICORES_DIST_DISTRIBUTEDSOLVER_H

#include "dist/RankComm.h"
#include "fault/FaultInjector.h"
#include "grid/Array3D.h"
#include "grid/Box3.h"
#include "stencil/FieldStore.h"
#include "stencil/HaloAnalysis.h"
#include "stencil/WorkloadRegistry.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace icores {

/// One rank of a distributed run of a registered workload. Periodic
/// global boundaries; PI x PJ grid decomposition over dimensions 0 and 1
/// (rank r sits at grid position (r / PJ, r % PJ)).
class DistributedRank {
public:
  /// Seeds the rank from \p Spec's Init evaluated over the global domain,
  /// keeping the owned part only (the halos travel by message; nothing is
  /// broadcast). Throws Error (Kind::Generic) when the program declares
  /// reductions.
  DistributedRank(RankComm &Comm, const WorkloadSpec &Spec,
                  KernelVariant Variant, int NI, int NJ, int NK, int PI,
                  int PJ, uint64_t Seed);

  /// Global index box owned by this rank.
  const Box3 &ownedBox() const { return Owned; }

  /// Exchanges the halos of every onceExchangedInputs array
  /// (dist/CommSchedule.h). Call once, before the first step,
  /// collectively on every rank.
  void prepareInputs();

  /// Advances \p Steps time steps (collective). Afterwards each feedback
  /// Target array holds the newest state.
  void run(int Steps);

  /// This rank's step inputs and outputs; valid on ownedBox().
  const std::map<ArrayId, Array3D> &arrays() const { return External; }

  /// This rank's contribution to the global sum of array \p Id.
  double localSum(ArrayId Id) const;

  /// Global sum of array \p Id via allreduceSum: deterministic, identical
  /// on every rank. Collective.
  double globalSum(ArrayId Id) const;

private:
  void exchangeHalo(Array3D &A, int TagBase);
  void fillLocalKHalo(Array3D &A);
  void step();

  RankComm &Comm;
  StencilProgram Program;
  KernelTable Kernels;
  int PI, PJ;
  int NK;
  int Halo;
  Box3 Owned;
  Box3 LocalAlloc;
  RegionRequirements Req;
  std::map<ArrayId, Array3D> External; ///< Step inputs and outputs.
  FieldStore Fields;
};

/// Outcome of a distributed run.
struct DistributedResult {
  /// Every step input and output gathered over the global core box; each
  /// feedback Target holds the newest state. Meaningful only when Ok.
  std::map<ArrayId, Array3D> Arrays;
  bool Ok = false;
  /// One "rank R: <message>" entry per failing rank, in completion order.
  std::vector<std::string> RankErrors;
  /// The fault trace of the first structured error (empty if none).
  std::vector<std::string> ErrorTrace;
  /// Injector counters after the run (zero when unarmed).
  FaultStats Faults;

  const Array3D &array(ArrayId Id) const { return Arrays.at(Id); }
};

/// Runs \p Spec on a PI x PJ rank grid of threads for \p Steps steps and
/// gathers the global state. Degrades gracefully instead of deadlocking:
/// the world is armed with \p Injector (may be null) and \p Timeouts, a
/// rank raising a structured icores::Error poisons the world so its peers
/// fail fast, and every per-rank error is collected into the result
/// rather than propagated.
DistributedResult runDistributed(const WorkloadSpec &Spec,
                                 KernelVariant Variant, int PI, int PJ,
                                 int NI, int NJ, int NK, int Steps,
                                 uint64_t Seed,
                                 FaultInjector *Injector = nullptr,
                                 const CommTimeouts &Timeouts = {});

} // namespace icores

#endif // ICORES_DIST_DISTRIBUTEDSOLVER_H
