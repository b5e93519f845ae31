//===- grid/Domain.h - Physical domain and halo handling --------*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Domain describes the physical MPDATA grid (NI x NJ x NK cells) plus the
/// halo depth carried by every allocated array. Before each time step the
/// halo shell of every *input* array is filled from the core: with wrapped
/// copies under periodic boundaries, which makes redundant recomputation of
/// intermediate stages near the physical boundary exact (see DESIGN.md §5),
/// or with clamped copies under zero-gradient (open) boundaries.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_GRID_DOMAIN_H
#define ICORES_GRID_DOMAIN_H

#include "grid/Box3.h"

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
  /// according to the domain's boundary mode: fillHaloPlanes() over every
  /// plane of the alloc box. The array must cover allocBox().
  void fillHalo(Array3D &A) const;

  /// Fills the halo cells of \p A on the dim-0 planes [PlaneLo, PlaneHi)
  /// (clipped to allocBox()) with their boundarySource() core cells. Every
  /// write lands in a halo cell and every read comes from a core cell, so
  /// disjoint plane ranges may be filled concurrently, and any split of
  /// the planes yields the same bits as fillHalo(). The domain must pass
  /// checkHalo().
  void fillHaloPlanes(Array3D &A, int PlaneLo, int PlaneHi) const;

private:
  int NI;
  int NJ;
  int NK;
  int Halo;
  BoundaryMode Boundary;
};

} // namespace icores

#endif // ICORES_GRID_DOMAIN_H
