//===- verify/ShadowStore.h - Dynamic shadow race detection ----*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shadow race detector: an ExecObserver implementation that mirrors
/// every cell the executor's workers touch with last-writer / last-reader
/// metadata and per-worker vector clocks advanced at each barrier
/// crossing. Two accesses to the same cell race exactly when neither's
/// clock covers the other — i.e. no chain of TeamBarrier or global-barrier
/// crossings separates them. Cells are keyed by the *actual* Array3D
/// instance resolved through the island's FieldStore at pass time and by
/// their physical slot in its storage. Temporal rebinding (imports,
/// scratch, final-step shared writes) is therefore tracked for free: step
/// t's scratch writes and step t+1's reads land on the same buffer, while
/// two islands' private cones never collide. Slot keys also follow sliding
/// intermediates (exec/IntermediateWindows.h): after a rebase a logical
/// cell maps to a new slot, and the slide copy itself is recorded as reads
/// of its source slots and writes of its destination slots. A halo-image
/// write is recorded per halo cell as a read of the core cell the domain's
/// boundary map copies plus a write of the halo cell. Each array's
/// index space is one more shadowed slot: every pass access reads it and
/// every rebase writes it, so a pass unordered with a rebase is reported
/// as shadow.race.rebase.
///
/// This is the dynamic cross-check of the static ScheduleCheck pass: every
/// schedule the static analysis certifies race-free must execute clean
/// here (unsoundness check), and seeded barrier-drop mutants must be
/// caught (over-approximation check). All hooks serialize on one mutex;
/// the detector is meant for test-sized grids, not production runs.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_VERIFY_SHADOWSTORE_H
#define ICORES_VERIFY_SHADOWSTORE_H

#include "exec/ExecObserver.h"
#include "grid/Array3D.h"
#include "grid/Box3.h"
#include "verify/VectorClock.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace icores {

class DiagnosticEngine;

class ShadowStore final : public ExecObserver {
public:
  struct Options {
    /// How many individual races to keep as witnesses; further races are
    /// counted but not stored.
    size_t MaxWitnesses = 16;
  };

  ShadowStore();
  explicit ShadowStore(Options AOpts);
  // Out-of-line: the map element types are only complete in the .cpp.
  ~ShadowStore() override;

  // ExecObserver hooks (driven by ProgramExecutor worker threads).
  void onBarrierArrive(uint64_t Site, int Worker, int Participants) override;
  void onBarrierDepart(uint64_t Site, int Worker) override;
  void onPass(int Worker, const StencilProgram &Program, FieldStore &Store,
              StageId Stage, const Box3 &Sub) override;
  void onImport(int Worker, const Array3D &Src, const Array3D &Buf,
                const Box3 &Sub, int NI, int NJ, int NK) override;
  void onSlide(int Worker, const Array3D &Buf,
               const SlideShare &Share) override;
  void onImages(int Worker, const Domain &Dom, const Array3D &A,
                const Box3 &Core) override;

  // Direct-drive interface for unit tests and hand-built interleavings.
  void recordWrite(int Worker, const Array3D &Arr, const Box3 &Region,
                   const std::string &Name = "");
  void recordRead(int Worker, const Array3D &Arr, const Box3 &Region,
                  const std::string &Name = "");

  /// Total races detected so far (stored witnesses may be fewer).
  size_t raceCount() const;

  /// Total cell accesses recorded (a tripwire for hooks not firing).
  uint64_t accessCount() const;

  bool clean() const { return raceCount() == 0; }

  /// Emits one error finding per stored witness: shadow.race.write-write,
  /// shadow.race.read-write or shadow.race.rebase, with array/cell/worker
  /// notes.
  void reportFindings(DiagnosticEngine &Diags) const;

  /// Forgets all shadow state (clocks, cells, races).
  void clear();

private:
  struct ArrayShadow;
  struct BarrierSite;

  VectorClock &clock(int Worker);
  ArrayShadow &shadowFor(const Array3D &Arr, const std::string &Name);
  void writeSlot(int Worker, ArrayShadow &AS, size_t Slot, int I, int J,
                 int K);
  void readSlot(int Worker, ArrayShadow &AS, size_t Slot, int I, int J,
                int K);
  void accessCells(int Worker, const Array3D &Arr, const std::string &Name,
                   const Box3 &Region, bool Write);
  void noteRace(const char *Kind, const ArrayShadow &AS, int I, int J, int K,
                int Prev, int Cur);

  Options Opts;
  mutable std::mutex Mutex;
  std::vector<VectorClock> Clocks;
  std::map<const Array3D *, ArrayShadow> Arrays;
  std::map<uint64_t, BarrierSite> Sites;

  struct Race {
    std::string Kind; ///< "write-write", "read-write" or "rebase"
    std::string Array;
    int Cell[3];
    int PrevWorker;
    int CurWorker;
  };
  std::vector<Race> Races;
  size_t TotalRaces = 0;
  uint64_t Accesses = 0;
};

} // namespace icores

#endif // ICORES_VERIFY_SHADOWSTORE_H
