//===- stencil/SerialStepper.h - Generic serial time stepping ---*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Application-agnostic serial time stepping for any (StencilProgram,
/// KernelTable) pair: every stage is evaluated over its exact global
/// dependence-cone region, halos are refreshed per the domain's boundary
/// mode, and the program's feedback pairs advance the state between steps.
/// This is the correctness oracle for every workload, MPDATA included:
/// every threaded and distributed runner must reproduce it bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_STENCIL_SERIALSTEPPER_H
#define ICORES_STENCIL_SERIALSTEPPER_H

#include "grid/Array3D.h"
#include "grid/Domain.h"
#include "stencil/FieldStore.h"
#include "stencil/HaloAnalysis.h"
#include "stencil/KernelTable.h"
#include "stencil/StencilIR.h"

#include <map>

namespace icores {

/// Serial stage-by-stage runner for one program over one domain.
class SerialStepper {
public:
  /// The domain's halo depth must cover the program's input halo (checked).
  /// When the program declares reductions, \p Reductions must bind a
  /// combiner for each of them (by name, checked).
  SerialStepper(StencilProgram Program, KernelTable Kernels,
                const Domain &Dom,
                std::vector<ReductionBinding> Reductions = {});

  const Domain &domain() const { return Dom; }
  const StencilProgram &program() const { return Program; }

  /// Mutable access to any step-input or step-output array (write core
  /// values before running; halos are managed internally).
  Array3D &array(ArrayId Id);
  const Array3D &array(ArrayId Id) const;

  /// Refreshes the halos of every step input. Call once after
  /// initialization; feedback targets are re-refreshed every step.
  void prepareInputs();

  /// Advances \p Steps steps. Afterwards each feedback Target array holds
  /// the newest state.
  void run(int Steps);

  /// Per-step values of the program's \p R-th reduction (one entry per
  /// step run so far), folded over the domain core in canonical i,j,k
  /// order — the oracle every threaded schedule must match bit for bit.
  const std::vector<double> &reductionHistory(size_t R) const;

private:
  void step();

  StencilProgram Program;
  KernelTable Kernels;
  Domain Dom;
  RegionRequirements Req;
  FieldStore Fields;
  std::map<ArrayId, Array3D> External; ///< Step inputs and outputs.
  /// Combiners in ReductionDef order, resolved by name at construction.
  std::vector<ReductionBinding> Reductions;
  std::vector<std::vector<double>> ReductionLog; ///< Per reduction.
};

} // namespace icores

#endif // ICORES_STENCIL_SERIALSTEPPER_H
