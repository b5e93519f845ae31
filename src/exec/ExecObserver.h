//===- exec/ExecObserver.h - Execution observation hooks -------*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Observer interface the threaded executor drives when
/// ExecutorOptions::Observer is set. The hooks expose exactly the events a
/// happens-before model needs: every barrier crossing (arrive before the
/// real rendezvous, depart after it), every pass a worker runs (with the
/// store resolved for the current fused step, so temporal rebinds are
/// visible as the actual Array3D instances touched), every epoch import
/// gather, every live-plane copy of a sliding intermediate, and every
/// halo-image write of a T = 1 feedback Source. The shadow race
/// detector (verify/ShadowStore.h) is the canonical implementation; the
/// executor itself has no verify dependency.
///
/// Hooks run on worker threads. Implementations must be thread-safe; the
/// executor guarantees that for one barrier site every participant's
/// arrive happens (in real time) before any participant's depart of that
/// crossing, which is what lets an implementation merge clocks at the
/// rendezvous.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_EXEC_EXECOBSERVER_H
#define ICORES_EXEC_EXECOBSERVER_H

#include "grid/Array3D.h"
#include "grid/Box3.h"
#include "stencil/FieldStore.h"
#include "stencil/StencilIR.h"

#include <cstdint>

namespace icores {

class Domain;

/// One worker's part of one sliding intermediate's slide: for each p in
/// [0, Count), rows [RowLo, RowHi) of buffer plane From + p (whole padded
/// k-rows) are copied to the same rows of buffer plane To + p; the worker
/// with Rebases set then rebases the array's index space.
struct SlideShare {
  int From = 0;
  int To = 0;
  int Count = 0;
  int64_t RowLo = 0;
  int64_t RowHi = 0;
  bool Rebases = false;
};

/// Barrier-site keys the executor reports: site 0 is the run-global
/// barrier, site Island + 1 is that island's team barrier (the same
/// numbering the chaos subsystem uses).
class ExecObserver {
public:
  virtual ~ExecObserver() = default;

  /// Worker \p Worker is about to enter barrier \p Site, which
  /// \p Participants workers cross together.
  virtual void onBarrierArrive(uint64_t Site, int Worker,
                               int Participants) = 0;

  /// Worker \p Worker has been released from barrier \p Site.
  virtual void onBarrierDepart(uint64_t Site, int Worker) = 0;

  /// Worker \p Worker is about to run stage \p Stage of \p Program over
  /// \p Sub with array bindings \p Store (already rebound for the current
  /// fused step). \p Sub is never empty.
  virtual void onPass(int Worker, const StencilProgram &Program,
                      FieldStore &Store, StageId Stage, const Box3 &Sub) = 0;

  /// Worker \p Worker gathers \p Sub of import buffer \p Buf from the
  /// shared array \p Src, reading periodically wrapped core positions
  /// (wrap extents NI x NJ x NK).
  virtual void onImport(int Worker, const Array3D &Src, const Array3D &Buf,
                        const Box3 &Sub, int NI, int NJ, int NK) = 0;

  /// Worker \p Worker takes its part in a slide of the sliding
  /// intermediate \p Buf (exec/IntermediateWindows.h): it copies \p Share's
  /// rows of the live planes and, when Share.Rebases, then moves Buf's
  /// index space. Reported before either happens, by every team worker for
  /// every sliding array at every slide (and by thread 0 alone, rebasing
  /// only, at each epoch start). Planes and rows count from the buffer
  /// start: a teammate may be rebasing Buf concurrently, so implementations
  /// must address the storage through data() and the strides only.
  virtual void onSlide(int Worker, const Array3D &Buf,
                       const SlideShare &Share) = 0;

  /// Worker \p Worker writes the halo images of the cells \p Core of the
  /// shared array \p A (Domain::writeImages): each halo cell whose
  /// Dom.boundarySource() lies in Core is written from that cell. Reported
  /// before each write, by every pass share of a T = 1 stage that
  /// produces a feedback Source, right after it computed Core.
  virtual void onImages(int Worker, const Domain &Dom, const Array3D &A,
                        const Box3 &Core) = 0;
};

} // namespace icores

#endif // ICORES_EXEC_EXECOBSERVER_H
