//===- exec/LintSuite.h - Combined static-analysis driver -------*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One entry point running every static analysis over a stencil
/// application: program validation (`program.*`), the kernel access audit
/// for each kernel variant (`access.*`), and per execution plan the
/// dataflow verifier (`plan.*`) and the schedule race check (`race.*`).
/// Driven by `mpdata_cli lint` (one workload, or `--workload=all`).
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_EXEC_LINTSUITE_H
#define ICORES_EXEC_LINTSUITE_H

#include "core/ExecutionPlan.h"
#include "stencil/AccessAudit.h"
#include "stencil/StencilIR.h"

#include <string>
#include <vector>

namespace icores {

class DiagnosticEngine;
class KernelTable;

/// One kernel variant to audit (e.g. "ref" / "simd").
struct LintKernelSet {
  std::string Label;
  const KernelTable *Kernels = nullptr;
};

/// One named execution plan to verify and race-check.
struct LintPlanSet {
  std::string Label;
  const ExecutionPlan *Plan = nullptr;
};

struct LintSuiteOptions {
  /// Probe configuration for the access audit.
  AccessAuditOptions Audit;
  /// Skips the (comparatively slow) access audit when false.
  bool RunAccessAudit = true;
};

/// Runs the full analysis suite, accumulating findings in \p Diags.
/// Returns true when no error-severity finding was added. The program is
/// validated first; when validation fails, the kernel audit and plan
/// checks still run (their models tolerate invalid programs) so one run
/// reports everything.
bool runLintSuite(const StencilProgram &Program,
                  const std::vector<LintKernelSet> &KernelSets,
                  const std::vector<LintPlanSet> &Plans,
                  DiagnosticEngine &Diags,
                  const LintSuiteOptions &Opts = {});

} // namespace icores

#endif // ICORES_EXEC_LINTSUITE_H
