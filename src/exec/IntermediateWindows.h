//===- exec/IntermediateWindows.h - Sliding intermediates -------*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Live plane windows of an island's private intermediates along the
/// blocking dimension (dim 0), and the slide schedule that keeps each
/// intermediate in a buffer a few planes deep instead of the island's whole
/// part — the cache-resident working set the (3+1)D block decomposition
/// is priced on.
///
/// At block b of a fused step, an intermediate's live window runs from the
/// lowest plane that a pass of b, or of a later block of the same step,
/// reads (or that b writes) up to the highest plane written so far in the
/// step. A block that skips the producing stage carries the window forward
/// unchanged. Each intermediate gets a dim-0 capacity of twice its widest
/// window, capped at the union extent its passes compute; capped arrays
/// keep today's full layout and never move. Before a block whose window
/// leaves a buffer, every sliding intermediate of the island slides: the
/// still-live planes are copied to the buffer front and the index space is
/// rebased (Array3D::rebasePlanes) to the window's low plane. Plans with one
/// block per step never slide. DESIGN.md §16 has the protocol and why the
/// race proofs still hold.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_EXEC_INTERMEDIATEWINDOWS_H
#define ICORES_EXEC_INTERMEDIATEWINDOWS_H

#include "core/ExecutionPlan.h"
#include "grid/Box3.h"
#include "stencil/StencilIR.h"

#include <cstddef>
#include <vector>

namespace icores {

/// A half-open range of dim-0 planes; empty when Hi <= Lo.
struct PlaneRange {
  int Lo = 0;
  int Hi = 0;
  bool empty() const { return Hi <= Lo; }
  int size() const { return empty() ? 0 : Hi - Lo; }
};

/// How one sliding intermediate moves at a slide: buffer planes
/// [From, From + Count) (counted from the buffer start) are copied to
/// planes [To, To + Count), To < From, and the index space is rebased to
/// start at NewBase. To is 0 unless the block writes planes below every
/// live one.
struct SlideMove {
  int NewBase = 0;
  int From = 0;
  int To = 0;
  int Count = 0;
};

/// The buffers and slide schedule of one island's intermediates.
struct IslandWindows {
  /// Indexed by ArrayId: the box each island-private intermediate is
  /// allocated over (empty when the island never computes it). A sliding
  /// array's box spans its capacity in dim 0, starting at its epoch base.
  std::vector<Box3> Buffers;
  /// The intermediates whose capacity is below their union extent.
  std::vector<ArrayId> Sliding;
  /// The blocks (indices into IslandPlan::Blocks) that every sliding
  /// array slides before, ascending. Each epoch starts with every sliding
  /// array rebased to its Buffers[Id].Lo[0].
  std::vector<int> SlideBlocks;
  /// Slide-major: Moves[S * Sliding.size() + A] moves Sliding[A] before
  /// block SlideBlocks[S].
  std::vector<SlideMove> Moves;

  const SlideMove &move(size_t Slide, size_t Array) const {
    return Moves[Slide * Sliding.size() + Array];
  }
};

/// The live window of every intermediate at every block of \p Island:
/// result[b][array id] (empty ranges for arrays that are not live, and for
/// every non-intermediate array).
std::vector<std::vector<PlaneRange>>
liveWindows(const StencilProgram &Program, const IslandPlan &Island);

/// Derives the buffers and slide schedule of \p Island's intermediates.
IslandWindows planIslandWindows(const StencilProgram &Program,
                                const IslandPlan &Island);

} // namespace icores

#endif // ICORES_EXEC_INTERMEDIATEWINDOWS_H
