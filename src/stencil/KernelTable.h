//===- stencil/KernelTable.h - Per-stage compute callbacks ------*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// KernelTable binds a StencilProgram's stages to executable kernels. The
/// planners, executors and solvers are application-agnostic: they consume
/// a (StencilProgram, KernelTable) pair, so any set of heterogeneous
/// stencils — MPDATA, the advection-diffusion demo app, or a user's own —
/// runs through the same islands-of-cores machinery.
///
/// Contract for every kernel: evaluate its stage over exactly the given
/// region, reading only within the offset windows declared in the IR,
/// pointwise with a fixed evaluation order (so results are bit-identical
/// under any region partitioning).
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_STENCIL_KERNELTABLE_H
#define ICORES_STENCIL_KERNELTABLE_H

#include "grid/Box3.h"
#include "stencil/StencilIR.h"

#include <functional>
#include <string>
#include <vector>

namespace icores {

class FieldStore;

/// Which kernel implementation backs a KernelTable. Both variants of a
/// program must produce bit-identical results (identical floating-point
/// expression order per element); they differ only in loop/pointer shape.
/// Lives in the stencil layer so backend-agnostic consumers (simulator,
/// planners, CLIs) can name a variant without linking the kernels.
enum class KernelVariant {
  Reference, ///< MPDATA: index-checked scalar loops (its readable spec).
             ///< Single-table workloads (advdiff, hotspot, cfl-advect)
             ///< register their row kernels under this name.
  Simd,      ///< MPDATA's production backend: contiguous __restrict
             ///< k-loops shaped for vectorization.
};

/// Short stable name: "ref" or "simd" (CLI flag values, bench JSON and
/// lint labels).
const char *kernelVariantName(KernelVariant Variant);

/// Parses kernelVariantName() output back to the enum. Returns false when
/// \p Name is not a known variant (leaving \p Variant untouched).
bool parseKernelVariant(const std::string &Name, KernelVariant &Variant);

/// Computes one stage over one region of a field store.
using StageKernel = std::function<void(FieldStore &, const Box3 &)>;

/// Stage-indexed kernel registry for one program.
class KernelTable {
public:
  KernelTable() = default;
  explicit KernelTable(unsigned NumStages) : Kernels(NumStages) {}

  /// Registers the kernel for \p Stage (replacing any previous one).
  void set(StageId Stage, StageKernel Kernel);

  bool isSet(StageId Stage) const;
  unsigned numStages() const {
    return static_cast<unsigned>(Kernels.size());
  }

  /// Runs \p Stage over \p Region; empty regions are no-ops.
  void run(FieldStore &Fields, StageId Stage, const Box3 &Region) const;

  /// True when every stage of \p Program has a kernel.
  bool coversProgram(const StencilProgram &Program) const;

private:
  std::vector<StageKernel> Kernels;
};

} // namespace icores

#endif // ICORES_STENCIL_KERNELTABLE_H
