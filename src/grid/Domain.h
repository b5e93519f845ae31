//===- grid/Domain.h - Physical domain and halo handling --------*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Domain describes the physical MPDATA grid (NI x NJ x NK cells) plus the
/// halo depth carried by every allocated array. The halo shell of every
/// *input* array mirrors the core: with wrapped copies under periodic
/// boundaries, which makes redundant recomputation of intermediate stages
/// near the physical boundary exact (see DESIGN.md §5), or with clamped
/// copies under zero-gradient (open) boundaries. fillHalo() refreshes a
/// whole shell; writeImages() writes the halo images of one core box, so
/// the threads that compute a state's cells can also publish its halo.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_GRID_DOMAIN_H
#define ICORES_GRID_DOMAIN_H

#include "grid/Box3.h"

#include <array>
#include <cassert>
#include <string>

namespace icores {

class Array3D;

/// How the halo shell is populated at the physical boundary.
enum class BoundaryMode {
  Periodic,     ///< Wrap around (torus); conserves mass exactly.
  ZeroGradient, ///< Clamp to the nearest core cell (open boundary).
};

/// The global grid: core region [0,NI)x[0,NJ)x[0,NK) plus a halo shell.
class Domain {
public:
  Domain(int NI, int NJ, int NK, int HaloDepth,
         BoundaryMode Boundary = BoundaryMode::Periodic)
      : NI(NI), NJ(NJ), NK(NK), Halo(HaloDepth), Boundary(Boundary) {
    assert(NI > 0 && NJ > 0 && NK > 0 && "domain extents must be positive");
    assert(HaloDepth >= 0 && "halo depth must be non-negative");
  }

  int ni() const { return NI; }
  int nj() const { return NJ; }
  int nk() const { return NK; }
  int haloDepth() const { return Halo; }
  BoundaryMode boundaryMode() const { return Boundary; }

  /// The physical cells owned by the simulation.
  Box3 coreBox() const { return Box3::fromExtents(NI, NJ, NK); }

  /// The index space arrays are allocated over (core grown by the halo).
  Box3 allocBox() const { return coreBox().grownAll(Halo); }

  int64_t numCells() const { return coreBox().numPoints(); }

  /// Wraps \p Index into [0, Extent) (periodic boundary).
  static int wrapIndex(int Index, int Extent) {
    int Wrapped = Index % Extent;
    return Wrapped < 0 ? Wrapped + Extent : Wrapped;
  }

  /// Clamps \p Index into [0, Extent) (zero-gradient boundary).
  static int clampIndex(int Index, int Extent) {
    if (Index < 0)
      return 0;
    return Index >= Extent ? Extent - 1 : Index;
  }

  /// The core index that index \p Index of an axis of \p Extent cells
  /// mirrors under the domain's boundary mode: wrapped when periodic,
  /// clamped when zero-gradient. The identity on core indices.
  int boundarySource(int Index, int Extent) const {
    return Boundary == BoundaryMode::Periodic ? wrapIndex(Index, Extent)
                                              : clampIndex(Index, Extent);
  }

  /// Why the halo cannot be filled under the boundary mode, or an empty
  /// string when it can: a periodic halo wraps once, so every extent must
  /// cover the halo depth (a deeper halo would alias a core cell twice).
  /// Allocates nothing when the domain passes.
  std::string checkHalo() const;

  /// Fills every halo cell of \p A (cells of allocBox() outside coreBox())
  /// from its boundarySource() core cell. The array must cover allocBox()
  /// and the domain must pass checkHalo().
  void fillHalo(Array3D &A) const;

  /// The halo cells whose boundarySource() lies in a core box: at most 26
  /// disjoint boxes, one per combination of an axis's core range and its
  /// images below and above.
  struct HaloImages {
    std::array<Box3, 26> Boxes;
    int Count = 0;
    const Box3 *begin() const { return Boxes.data(); }
    const Box3 *end() const { return Boxes.data() + Count; }
  };

  /// The halo images of the cells of \p Core (clipped to coreBox()). Each
  /// halo cell has exactly one source cell, so disjoint core boxes have
  /// disjoint images, and the images of a partition of the core are the
  /// whole halo shell. The domain must pass checkHalo().
  HaloImages haloImages(const Box3 &Core) const;

  /// Writes the halo images of the cells of \p Core into \p A: every cell
  /// of haloImages(Core) gets the value of its boundarySource() cell. It
  /// writes only halo cells and reads only Core's cells, so disjoint core
  /// boxes may be imaged concurrently, and the images of any partition of
  /// the core give the bits of fillHalo(). The array must cover allocBox().
  void writeImages(Array3D &A, const Box3 &Core) const;

private:
  /// checkHalo()'s rule: a periodic halo deeper than an extent.
  bool wrapsTwice() const;

  int NI;
  int NJ;
  int NK;
  int Halo;
  BoundaryMode Boundary;
};

} // namespace icores

#endif // ICORES_GRID_DOMAIN_H
