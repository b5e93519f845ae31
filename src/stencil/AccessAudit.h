//===- stencil/AccessAudit.h - Kernel access-footprint auditor --*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dynamic-probing audit of the per-stage access windows declared in the
/// stencil IR. The declared StageInput windows are the single source of
/// truth for HaloAnalysis: an under-declared window makes the island
/// dependence cones unsound (silent corruption at island boundaries), an
/// over-declared one inflates the redundant-computation overhead budgeted
/// by the paper's Table 2. The audit runs each kernel over a small probe
/// region and derives the kernel's *actual* footprint:
///
///  - writes: every array is pre-filled with per-cell random values and
///    diffed after the run — any changed cell is a write. Changed cells in
///    non-output arrays or outside the stage region are errors.
///  - reads: each candidate input cell is perturbed (twice, with a large
///    positive and a large negative replacement, so min/max and
///    sign-dependent donor-cell selections flip) and the kernel re-run; any
///    output change proves the cell is read, and (cell - output point)
///    contributes to the observed per-array offset hull.
///
/// The observed hull is compared per dimension against the declared
/// windows (the box hull when an array appears in several StageInputs).
/// This supersedes the NaN-poisoning property test in kernels_test.cpp:
/// perturbation probing catches over-declared windows and writes outside
/// the region, and a value-flipping probe survives min/max and
/// sign-selection paths that can mask NaN.
///
/// Limitations (documented, checked elsewhere): reads whose value never
/// affects any output are invisible to probing — except that the
/// instrumented AuditFieldStore still records which arrays the kernel
/// *fetches*, so touching an entirely undeclared array is flagged even
/// when its values are unused. Reads of an array the stage also writes are
/// rejected structurally by StencilProgram::validate.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_STENCIL_ACCESSAUDIT_H
#define ICORES_STENCIL_ACCESSAUDIT_H

#include "grid/Box3.h"
#include "stencil/FieldStore.h"
#include "stencil/StencilIR.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace icores {

class DiagnosticEngine;
class KernelTable;

/// FieldStore recording which arrays are fetched through get(). Kernels
/// fetch each array they touch exactly once per invocation, so the fetch
/// set is the array-level access footprint — independent of whether the
/// fetched values influence any output.
class AuditFieldStore : public FieldStore {
public:
  explicit AuditFieldStore(unsigned NumArrays)
      : FieldStore(NumArrays), FetchedFlags(NumArrays, 0) {}

  Array3D &get(ArrayId Id) override;
  const Array3D &get(ArrayId Id) const override;

  /// Clears the fetch record.
  void clearFetched();

  /// True when \p Id was fetched since the last clearFetched().
  bool wasFetched(ArrayId Id) const;

private:
  mutable std::vector<char> FetchedFlags;
};

/// Tuning knobs of the audit. The defaults keep a full 17-stage MPDATA
/// audit (both kernel variants) well under a second.
struct AccessAuditOptions {
  /// Output region the probed kernel is evaluated over. Deliberately
  /// asymmetric in every dimension and away from the origin so that
  /// transposed-dimension bugs cannot cancel out.
  Box3 ProbeRegion = Box3(2, 3, 4, 5, 7, 7);

  /// How far beyond the declared read window under-declared reads are
  /// probed for (arrays are allocated with this much extra margin).
  int SlackRadius = 2;

  /// Independent random re-fills; conditional access paths (donor-cell
  /// upwind selection, min/max chains) are exercised across trials.
  int Trials = 3;

  /// Base PRNG seed (trial t uses Seed + t).
  uint64_t Seed = 0x1c07e5a0d17ULL;
};

/// Observed-vs-declared footprint of one stage (exposed for tests; the
/// finding emission in auditStageAccess is derived from this).
struct StageAccessFootprint {
  struct ReadWindow {
    bool Declared = false; ///< Array appears in the stage's Inputs.
    bool Observed = false; ///< Some probe of this array changed an output.
    std::array<int, 3> DeclMin = {0, 0, 0}, DeclMax = {0, 0, 0};
    std::array<int, 3> ObsMin = {0, 0, 0}, ObsMax = {0, 0, 0};
  };

  StageId Stage = 0;
  /// Per-array read windows (indexed by ArrayId).
  std::vector<ReadWindow> Reads;
  /// Arrays the kernel fetched through the store (indexed by ArrayId).
  std::vector<char> Fetched;
  /// Cells changed in arrays outside the stage's Outputs (per ArrayId).
  std::vector<int64_t> UndeclaredWritePoints;
  /// Cells of declared outputs changed outside the probe region.
  std::vector<int64_t> OutsideWritePoints;
  /// Cells of declared outputs inside the probe region left unwritten in
  /// every trial.
  std::vector<int64_t> UncoveredPoints;
};

/// Probes stage \p Stage of \p Program / \p Kernels and returns the
/// observed footprint without reporting findings.
StageAccessFootprint
probeStageAccess(const StencilProgram &Program, const KernelTable &Kernels,
                 StageId Stage, const AccessAuditOptions &Opts = {});

/// Probes one stage and reports `access.*` findings into \p Diags.
/// \p Label distinguishes kernel variants in the findings ("ref"/"simd").
/// Returns true when the stage produced no error-severity finding.
bool auditStageAccess(const StencilProgram &Program, const KernelTable &Kernels,
                      StageId Stage, DiagnosticEngine &Diags,
                      const AccessAuditOptions &Opts = {},
                      const std::string &Label = std::string());

/// Audits every stage of the program. Returns true when error-free.
bool auditProgramAccess(const StencilProgram &Program,
                        const KernelTable &Kernels, DiagnosticEngine &Diags,
                        const AccessAuditOptions &Opts = {},
                        const std::string &Label = std::string());

} // namespace icores

#endif // ICORES_STENCIL_ACCESSAUDIT_H
