//===- stencil/FieldStore.h - Array storage for a stencil program -*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FieldStore maps the ArrayIds of a StencilProgram to concrete Array3D
/// storage. An entry is either owned (allocated by this store — the normal
/// case for per-island intermediate buffers) or bound to an external array
/// (the shared time-step inputs/outputs every island reads and writes).
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_STENCIL_FIELDSTORE_H
#define ICORES_STENCIL_FIELDSTORE_H

#include "grid/Array3D.h"
#include "stencil/StencilIR.h"

#include <memory>
#include <vector>

namespace icores {

/// Per-execution-context array table for one StencilProgram.
///
/// get() is virtual so that instrumented stores (stencil/AccessAudit.h's
/// AuditFieldStore) can observe which arrays a kernel fetches. Kernels
/// fetch each array once per (stage, region) invocation, so the virtual
/// dispatch is never on a per-element path.
class FieldStore {
public:
  explicit FieldStore(unsigned NumArrays) : Slots(NumArrays) {}
  virtual ~FieldStore() = default;

  FieldStore(const FieldStore &) = delete;
  FieldStore &operator=(const FieldStore &) = delete;
  FieldStore(FieldStore &&) = default;
  FieldStore &operator=(FieldStore &&) = default;

  /// Allocates an owned array over \p IndexSpace for \p Id. With
  /// \p PadK > 0 the k-rows are padded to a multiple of PadK elements
  /// (see Array3D::reset); pad bytes count toward neither ownedBytes()
  /// nor the traffic model.
  void allocateOwned(ArrayId Id, const Box3 &IndexSpace, int PadK = 0);

  /// allocateOwned() without touching the new storage (see
  /// Array3D::resetUntouched): the owner must zero the array before any
  /// kernel reads it. The NUMA placement init epoch uses this so an
  /// island's intermediates are first-touched by its own pinned team.
  void allocateOwnedUntouched(ArrayId Id, const Box3 &IndexSpace,
                              int PadK = 0);

  /// Binds \p Id to caller-owned storage (shared inputs/outputs). The
  /// pointee must outlive this store.
  void bindExternal(ArrayId Id, Array3D *External);

  /// Re-points an already-bound external slot at different caller-owned
  /// storage (temporal blocking rebinds feedback arrays to island-private
  /// buffers between fused steps). The slot must currently be bound to an
  /// external array, not owned storage.
  void rebindExternal(ArrayId Id, Array3D *External);

  bool isBound(ArrayId Id) const { return slot(Id).Ptr != nullptr; }

  virtual Array3D &get(ArrayId Id);
  virtual const Array3D &get(ArrayId Id) const;

  /// Total logical bytes of owned storage. In an executor island these are
  /// the intermediates' sliding buffers, twice each one's widest live
  /// window deep (exec/IntermediateWindows.h): the working set a (3+1)D
  /// block keeps cache-resident, independent of the part's length. Plans
  /// with one block per step own full part-sized intermediates.
  int64_t ownedBytes() const;

private:
  struct Slot {
    Array3D *Ptr = nullptr;
    std::unique_ptr<Array3D> Owned;
  };

  Slot &slot(ArrayId Id);
  const Slot &slot(ArrayId Id) const;

  std::vector<Slot> Slots;
};

} // namespace icores

#endif // ICORES_STENCIL_FIELDSTORE_H
