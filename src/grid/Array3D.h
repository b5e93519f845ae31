//===- grid/Array3D.h - Dense 3D array over a Box3 --------------*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Array3D stores double-precision values over an arbitrary half-open Box3
/// index space, so halo cells at negative indices are addressed directly
/// with their logical (i, j, k) coordinates. Storage is k-fastest (row-major
/// in (i, j, k)), matching the layout assumed by the traffic model.
///
/// Storage is 64-byte aligned, and k-rows can optionally be padded to a
/// multiple of the vector width (reset() with PadK > 0) so that every
/// (i, j, ·) row starts on a cache-line boundary — the layout the Simd
/// kernel backend wants. Padding is a physical-storage concern only: the
/// logical sizes (numElements(), sizeInBytes()) never include pad
/// elements, so the traffic model and cache simulator keep charging
/// logical (unpadded) bytes. paddedBytes() exposes the physical footprint.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_GRID_ARRAY3D_H
#define ICORES_GRID_ARRAY3D_H

#include "grid/Box3.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace icores {

/// Minimal STL allocator handing out storage aligned to \p Alignment
/// bytes. All instances are interchangeable (stateless).
template <typename T, std::size_t Alignment> class AlignedAllocator {
public:
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment> &) {}

  T *allocate(std::size_t N) {
    return static_cast<T *>(
        ::operator new(N * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T *P, std::size_t) {
    ::operator delete(P, std::align_val_t(Alignment));
  }

  /// Default-initializing construct: vector::resize() placement-news each
  /// element without writing it, so growing a fresh vector does not touch
  /// its pages. That is the hook NUMA first-touch placement needs — the
  /// pages stay unmapped until a pinned worker writes them (see
  /// Array3D::resetUntouched). Value construction (assign/fill with an
  /// explicit value) still goes through the allocator_traits placement-new
  /// fallback and touches as before.
  template <typename U> void construct(U *P) { ::new (static_cast<void *>(P)) U; }

  template <typename U> struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  friend bool operator==(const AlignedAllocator &, const AlignedAllocator &) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator &, const AlignedAllocator &) {
    return false;
  }
};

/// Dense double array addressed by logical (i, j, k) within a Box3.
class Array3D {
public:
  /// Alignment (bytes) of data(); with k-row padding every row start too.
  static constexpr int DataAlignment = 64;
  /// Pad value that rounds each k-row up to a whole cache line / AVX-512
  /// vector (8 doubles = 64 bytes).
  static constexpr int VectorPadK =
      DataAlignment / static_cast<int>(sizeof(double));

  Array3D() = default;

  /// Allocates storage covering \p IndexSpace, zero-initialized. With
  /// \p PadK > 0, each k-row is padded to a multiple of PadK elements.
  explicit Array3D(const Box3 &IndexSpace, int PadK = 0) {
    reset(IndexSpace, PadK);
  }

  /// Re-shapes to \p IndexSpace, zero-filling all elements. Reuses the
  /// existing allocation when the shape and padding are unchanged. With
  /// \p PadK > 0, the k-row stride is rounded up to a multiple of PadK so
  /// every (i, j, ·) row starts DataAlignment-aligned when PadK is
  /// VectorPadK.
  void reset(const Box3 &IndexSpace, int PadK = 0) {
    if (resetShape(IndexSpace, PadK))
      Data.assign(PhysicalElements, 0.0);
    else
      std::fill(Data.begin(), Data.end(), 0.0);
  }

  /// Re-shapes to \p IndexSpace WITHOUT touching the new storage: the
  /// allocation is default-initialized, so no page of it is mapped until
  /// somebody writes it. This is the entry point for NUMA first-touch
  /// placement — the executor allocates every shared field untouched,
  /// then has each island's pinned team zero-fill its arena segment, so
  /// the kernel homes each page on the socket that will stream it. Any
  /// prior allocation (and its placement) is released first. The caller
  /// owns the obligation to zero every element before it is read;
  /// markPlaced() records that the fill happened under a placement
  /// policy.
  void resetUntouched(const Box3 &IndexSpace, int PadK = 0) {
    resetShape(IndexSpace, PadK);
    Data = decltype(Data)(); // Drop the old (already-placed) pages.
    Data.resize(PhysicalElements);
    Placed = false;
  }

  const Box3 &indexSpace() const { return Space; }
  bool allocated() const { return !Data.empty(); }

  /// Moves the index space along dim 0 so it starts at plane \p FirstPlane,
  /// keeping its extents, strides and storage: the element at buffer plane
  /// p becomes logical plane FirstPlane + p. Sliding intermediate buffers
  /// (exec/IntermediateWindows.h) rebase with this after copying their
  /// live planes to the front. Writes only indexSpace(), so threads that
  /// address the storage through data() and the strides may run alongside.
  void rebasePlanes(int FirstPlane) {
    Space.Hi[0] = FirstPlane + Space.extent(0);
    Space.Lo[0] = FirstPlane;
  }

  /// Logical element count (pad elements excluded) — what the traffic
  /// model and cache simulator charge.
  int64_t numElements() const { return Space.numPoints(); }
  int64_t sizeInBytes() const {
    return numElements() * static_cast<int64_t>(sizeof(double));
  }
  /// Physical footprint including k-row pad elements.
  int64_t paddedBytes() const {
    return static_cast<int64_t>(Data.size()) *
           static_cast<int64_t>(sizeof(double));
  }
  /// The k-row pad multiple this array was reset with (0 = unpadded).
  int padK() const { return Pad; }

  double &at(int I, int J, int K) {
    return Data[static_cast<size_t>(linearIndex(I, J, K))];
  }
  double at(int I, int J, int K) const {
    return Data[static_cast<size_t>(linearIndex(I, J, K))];
  }
  double &operator()(int I, int J, int K) { return at(I, J, K); }
  double operator()(int I, int J, int K) const { return at(I, J, K); }

  double *data() { return Data.data(); }
  const double *data() const { return Data.data(); }

  /// Distance in elements between (i, j, k) and (i+1, j, k).
  int64_t strideI() const { return StrideI; }
  /// Distance in elements between (i, j, k) and (i, j+1, k). With k-row
  /// padding this exceeds extent(2); k stays unit-stride within a row.
  int64_t strideJ() const { return StrideJ; }

  /// Unchecked raw pointer to element (I, J, K); the coordinates must lie
  /// in the index space. For strided inner loops (see mpdata/Kernels).
  double *pointerTo(int I, int J, int K) {
    return Data.data() + linearIndex(I, J, K);
  }
  const double *pointerTo(int I, int J, int K) const {
    return Data.data() + linearIndex(I, J, K);
  }

  /// Sets every element (halo and padding included) to \p Value.
  ///
  /// Placement invariant: fill/fillRegion/copyRegionFrom run
  /// single-threaded, but they CANNOT undo NUMA first-touch placement —
  /// Linux homes a page at its first write and never migrates it on later
  /// writes, so once the init epoch has placed the pages, any thread may
  /// stream values into them. The only operation that loses placement is
  /// reallocation (reset to a different shape or padding), which is why
  /// those paths clear placed() and ProgramExecutor::run() asserts the
  /// flag still holds.
  void fill(double Value) { Data.assign(Data.size(), Value); }

  /// Sets every element of \p Region to \p Value via contiguous k-runs.
  /// Placement-safe: writes already-resident pages (see fill()).
  void fillRegion(const Box3 &Region, double Value);

  /// Copies the values of \p Region from \p Src; the region must be inside
  /// both index spaces. Row-wise memmove over contiguous k-runs.
  /// Placement-safe: writes already-resident pages (see fill()).
  void copyRegionFrom(const Array3D &Src, const Box3 &Region);

  /// Whether this array's pages were distributed by a placement policy
  /// (recorded by markPlaced() after the first-touch init epoch) and the
  /// allocation has not been dropped since. reset() with a changed shape,
  /// and resetUntouched(), clear the flag — those are the only paths that
  /// can lose page residency.
  bool placed() const { return Placed; }
  void markPlaced() { Placed = true; }

  /// Advises the kernel to back this array's pages with transparent huge
  /// pages (madvise(MADV_HUGEPAGE)); call between resetUntouched() and
  /// the first-touch fill so the pages are still unmapped. Returns false
  /// (never fails hard) when unsupported or the span is under a page.
  bool adviseHugePages();

  /// Serial deterministic sum over \p Region (used by conservation tests;
  /// never parallelized so results are bit-stable).
  double sumRegion(const Box3 &Region) const;

  /// Returns the largest absolute difference against \p Other over
  /// \p Region; both arrays must cover the region.
  double maxAbsDiff(const Array3D &Other, const Box3 &Region) const;

private:
  /// Recomputes the shape/stride state for (IndexSpace, PadK). Returns
  /// true when the physical allocation size changed (caller must
  /// (re)allocate), false when the existing storage can be reused as-is.
  bool resetShape(const Box3 &IndexSpace, int PadK) {
    bool Same = allocated() && Space == IndexSpace && Pad == PadK;
    if (!Same)
      Placed = false; // Reallocation drops page residency.
    Space = IndexSpace;
    Pad = PadK;
    StrideJ = Space.extent(2);
    if (PadK > 0 && StrideJ > 0)
      StrideJ += (PadK - StrideJ % PadK) % PadK;
    StrideI = static_cast<int64_t>(Space.extent(1)) * StrideJ;
    PhysicalElements = Space.empty()
                           ? 0
                           : static_cast<size_t>(Space.extent(0)) *
                                 static_cast<size_t>(StrideI);
    return !Same;
  }

  int64_t linearIndex(int I, int J, int K) const {
    assert(Space.contains(I, J, K) && "Array3D access out of index space");
    return static_cast<int64_t>(I - Space.Lo[0]) * StrideI +
           static_cast<int64_t>(J - Space.Lo[1]) * StrideJ +
           (K - Space.Lo[2]);
  }

  Box3 Space;
  int Pad = 0;
  int64_t StrideI = 0;
  int64_t StrideJ = 0;
  size_t PhysicalElements = 0;
  bool Placed = false;
  std::vector<double, AlignedAllocator<double, DataAlignment>> Data;
};

} // namespace icores

#endif // ICORES_GRID_ARRAY3D_H
