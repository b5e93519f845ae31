//===- mpdata/Kernels.h - MPDATA stage compute kernels ----------*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two kernel backends of the 17 MPDATA stages: the scalar reference
/// kernels (Kernels.cpp, the readable spec) and the Simd row kernels
/// (KernelsSimd.cpp, the production backend). Each kernel evaluates one
/// stage over an arbitrary Box3 region of a FieldStore; the access
/// pattern of every kernel is exactly the pattern declared for that stage
/// in the stencil IR (property-tested in tests/kernels_test.cpp via NaN
/// poisoning).
///
/// Kernels are pointwise with a fixed evaluation order and no reductions,
/// so results are bit-identical regardless of how a region is partitioned
/// among threads, blocks or islands — the foundation of the strategy
/// equivalence tests.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_MPDATA_KERNELS_H
#define ICORES_MPDATA_KERNELS_H

#include "grid/Box3.h"
#include "mpdata/MpdataProgram.h"
#include "stencil/KernelTable.h"

namespace icores {

class FieldStore;

// KernelVariant (Reference / Simd) lives in stencil/KernelTable.h so
// backend-agnostic layers can name a variant without linking this
// library. Both variants produce bit-identical results: identical
// floating-point expression order per element.

/// Evaluates stage \p Stage of \p M over \p Region using the arrays in
/// \p Fields. All arrays read/written must cover the regions implied by the
/// stage's declared access pattern.
void runMpdataStage(const MpdataProgram &M, FieldStore &Fields, StageId Stage,
                    const Box3 &Region,
                    KernelVariant Variant = KernelVariant::Reference);

/// Implementation detail of the Simd variant (contiguous __restrict
/// k-inner loops shaped for auto-vectorization), exposed for direct
/// benchmarking; behaves exactly like runMpdataStage(..., Simd).
void runMpdataStageSimd(const MpdataProgram &M, FieldStore &Fields,
                        StageId Stage, const Box3 &Region);

/// Builds the stage-kernel table binding the 17 MPDATA stages to the
/// chosen kernel implementation, for use with the generic runtimes
/// (SerialStepper, ProgramExecutor). Every table shares one process-wide
/// MpdataProgram, built on first use and never destroyed.
KernelTable buildMpdataKernels(KernelVariant Variant =
                                   KernelVariant::Reference);

} // namespace icores

#endif // ICORES_MPDATA_KERNELS_H
