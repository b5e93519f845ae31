//===- stencil/StencilIR.h - Heterogeneous stencil program IR ---*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stencil intermediate representation. A StencilProgram is an ordered
/// chain of stages; each stage writes one or more arrays and reads others
/// through per-dimension offset windows. MPDATA's 17 heterogeneous stages
/// are expressed once in this IR (see mpdata/MpdataProgram.h) and every
/// other component — halo analysis, extra-element accounting (Table 2),
/// DRAM-traffic accounting, the planners, the executors and the performance
/// simulator — consumes the same description.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_STENCIL_STENCILIR_H
#define ICORES_STENCIL_STENCILIR_H

#include "grid/Box3.h"

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace icores {

class DiagnosticEngine;

/// Index of an array in a StencilProgram's array table.
using ArrayId = int;

/// Index of a stage in a StencilProgram's stage list.
using StageId = int;

/// Sentinel for "no stage" (e.g. producer of a time-step input).
inline constexpr StageId NoStage = -1;

/// Role of an array within one time step.
enum class ArrayRole {
  StepInput,    ///< Loaded from main memory at the start of the step.
  Intermediate, ///< Produced and consumed within the step; cacheable.
  StepOutput,   ///< Stored to main memory at the end of the step.
};

/// Static description of one array used by the program.
struct ArrayInfo {
  std::string Name;
  ArrayRole Role = ArrayRole::Intermediate;
  int ElementBytes = sizeof(double);
};

/// One read operand of a stage: which array, and the inclusive window of
/// offsets accessed per dimension (MinOff[d] <= 0 <= MaxOff[d] typically,
/// but one-sided windows such as {-1, 0} are common for donor-cell fluxes).
struct StageInput {
  ArrayId Array = 0;
  std::array<int, 3> MinOff = {0, 0, 0};
  std::array<int, 3> MaxOff = {0, 0, 0};

  /// Window accessing only the centre point.
  static StageInput center(ArrayId A) { return {A, {0, 0, 0}, {0, 0, 0}}; }

  /// Window accessing offsets [Min, Max] in dimension \p Dim only.
  static StageInput alongDim(ArrayId A, int Dim, int Min, int Max) {
    StageInput In = center(A);
    In.MinOff[Dim] = Min;
    In.MaxOff[Dim] = Max;
    return In;
  }

  /// Window accessing +/-1 in every dimension (box neighborhood).
  static StageInput box1(ArrayId A) { return {A, {-1, -1, -1}, {1, 1, 1}}; }

  /// Region of \p A read when this stage is computed over \p OutRegion.
  Box3 readRegion(const Box3 &OutRegion) const {
    Box3 R = OutRegion;
    for (int D = 0; D != 3; ++D) {
      R.Lo[D] += MinOff[D];
      R.Hi[D] += MaxOff[D];
    }
    return R;
  }
};

/// Static description of one stage (one heterogeneous stencil).
struct StageDef {
  std::string Name;
  std::vector<ArrayId> Outputs;
  std::vector<StageInput> Inputs;
  /// Floating-point operations per output point (counting the expression as
  /// written: +,-,*,/ and fabs/min/max each as one flop).
  int FlopsPerPoint = 0;
};

/// Time-stepping feedback: after each step, the Source output array
/// becomes the Target input array of the next step (a pointer swap in the
/// runtimes).
struct FeedbackPair {
  ArrayId Source = 0; ///< A StepOutput array.
  ArrayId Target = 0; ///< A StepInput array.
};

/// Static declaration of a per-step global reduction: after every time
/// step the runtime folds the core values of one StepOutput array into a
/// single scalar (e.g. a CFL number or a max norm). The declaration is
/// structural — which array, under which name; the executable combiner
/// lives in a ReductionBinding, exactly as kernels live in a KernelTable
/// apart from their StageDefs. A reduction places no constraint on the
/// schedule: the threaded runtime folds each worker's own freshly
/// computed cells into a per-worker partial, so no barrier orders a fold.
struct ReductionDef {
  std::string Name;  ///< Stable key, unique within the program.
  ArrayId Array = 0; ///< The reduced StepOutput array.
};

/// Executable half of a reduction: the fold the runtimes apply over the
/// reduced array's values, keyed by the ReductionDef name.
///
/// Contract: Identity must be neutral, and Combine must be associative,
/// commutative and duplicate tolerant (folding the same value twice must
/// not change the result — max/min/absmax-style folds qualify, a plain
/// sum does not). The contract binds every plan shape, a single-team
/// T = 1 plan included: the threaded runtime folds each worker's cells
/// into its own partial and combines the partials in worker order, and
/// temporal islands plans evaluate overlapping dependence cones
/// redundantly, so a cell's bit-identical value may enter the fold more
/// than once. The contract is what keeps every schedule's reduction
/// bit-identical to the serial stepper's canonical i,j,k scan;
/// WorkloadRegistry::add probes it (`registry.reduction.contract`).
struct ReductionBinding {
  std::string Name; ///< Matches a ReductionDef of the program.
  std::function<double(double, double)> Combine;
  double Identity = 0.0; ///< Fold seed (and value over an empty region).
};

/// An ordered heterogeneous stencil program.
///
/// Invariants checked by validate():
///  - stages are topologically ordered (a stage reads only step inputs and
///    arrays produced by earlier stages),
///  - every array has at most one producing stage and appears at most once
///    in a stage's Outputs,
///  - no stage reads an array it also writes (the kernels' pointwise
///    contract would make such a stage order-dependent),
///  - offset windows are well-formed (MinOff <= MaxOff per dimension),
///  - step outputs are produced, step inputs never are,
///  - feedback pairs connect a step output to a step input.
class StencilProgram {
public:
  /// Adds an array; returns its id.
  ArrayId addArray(std::string Name, ArrayRole Role);

  /// Appends a stage; returns its id. Stages must be added in execution
  /// order.
  StageId addStage(StageDef Def);

  /// Declares that output \p Source feeds input \p Target between steps.
  void addFeedback(ArrayId Source, ArrayId Target);

  const std::vector<FeedbackPair> &feedbacks() const { return Feedbacks; }

  /// Declares a per-step global reduction over a StepOutput array.
  void addReduction(ReductionDef Def);

  const std::vector<ReductionDef> &reductions() const { return Reductions; }

  unsigned numArrays() const { return static_cast<unsigned>(Arrays.size()); }
  unsigned numStages() const { return static_cast<unsigned>(Stages.size()); }

  const ArrayInfo &array(ArrayId Id) const { return Arrays[checkArray(Id)]; }
  const StageDef &stage(StageId Id) const { return Stages[checkStage(Id)]; }

  /// Stage producing \p Id, or NoStage for step inputs.
  StageId producerOf(ArrayId Id) const { return Producer[checkArray(Id)]; }

  /// All step-input array ids in id order.
  std::vector<ArrayId> stepInputs() const;

  /// All step-output array ids in id order.
  std::vector<ArrayId> stepOutputs() const;

  /// Sum of FlopsPerPoint over all stages (flops per grid point per step if
  /// every stage were computed over the same region).
  int64_t totalFlopsPerPoint() const;

  /// Checks all structural invariants; fills \p Error and returns false on
  /// the first violation. Convenience wrapper over the DiagnosticEngine
  /// overload below.
  bool validate(std::string &Error) const;

  /// Checks all structural invariants, reporting *every* violation as a
  /// `program.*` finding. Returns true when no errors were reported.
  bool validate(DiagnosticEngine &Diags) const;

private:
  size_t checkArray(ArrayId Id) const;
  size_t checkStage(StageId Id) const;

  std::vector<ArrayInfo> Arrays;
  std::vector<StageDef> Stages;
  std::vector<StageId> Producer; // Parallel to Arrays.
  std::vector<FeedbackPair> Feedbacks;
  std::vector<ReductionDef> Reductions;
};

/// Array id of the program array named \p Name, or -1 when absent.
ArrayId findArrayId(const StencilProgram &Program, const std::string &Name);

/// Reorders \p Bindings into the program's ReductionDef order, checking
/// (fatally) that every declared reduction has a binding with a callable
/// Combine. A program without reductions yields an empty list. Runtimes
/// use this so their fold loops can index bindings and declarations in
/// lockstep; the registry reports the same mismatches as structured
/// `registry.*` findings before any runtime is constructed.
std::vector<ReductionBinding>
orderedReductionBindings(const StencilProgram &Program,
                         std::vector<ReductionBinding> Bindings);

} // namespace icores

#endif // ICORES_STENCIL_STENCILIR_H
