//===- stencil/WorkloadRegistry.h - Multi-workload registry -----*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The workload registry: any stencil program — stages and their access
/// windows, the declared halo depth, per-step reductions, kernel backends,
/// and seeded initial conditions — registers once as a WorkloadSpec and
/// thereby becomes a full citizen of the PlanBuilder / PlanVerifier /
/// icores-lint / ProgramExecutor / Simulator / PlanAdvisor stack. Nothing
/// downstream special-cases a workload by name: the CLIs select specs with
/// `--workload=`, the conformance test harness sweeps every registered
/// spec through strategies x kernel backends x temporal depths x balance
/// policies x stealing, and the plan-space prover enumerates them all.
///
/// Registration is validated, not trusted: add() re-runs the program's
/// structural validation and layers the registry's own contract checks on
/// top (unique names, declared halo covering the program's dependence
/// cone, kernel tables covering every stage for every advertised variant,
/// a combiner bound for every declared reduction and passing a fixed
/// probe of the combiner contract in stencil/StencilIR.h, seeded init
/// present).
/// Violations are reported as structured `registry.*` findings into the
/// caller's DiagnosticEngine — misregistration is a diagnosable event,
/// never a crash — and a spec with errors is not registered.
///
/// The built-in workloads (MPDATA, the advection-diffusion app, and the
/// rest of src/apps) register themselves in apps/Workloads.h; this header
/// deliberately knows none of them.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_STENCIL_WORKLOADREGISTRY_H
#define ICORES_STENCIL_WORKLOADREGISTRY_H

#include "grid/Domain.h"
#include "stencil/KernelTable.h"
#include "stencil/StencilIR.h"
#include "support/Error.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace icores {

class Array3D;
class DiagnosticEngine;

/// What a workload's seeded initial-condition callback receives: the
/// domain being initialised, the caller's seed, and an accessor for the
/// runner's external (step input/output) arrays. The callback fills the
/// core cells of every step input deterministically from the seed; halo
/// refresh is the runner's job (see initWorkload below).
struct WorkloadInitContext {
  const Domain &Dom;
  uint64_t Seed = 0;
  std::function<Array3D &(ArrayId)> Array;
};

/// One registered workload: the data that makes a stencil program a
/// first-class citizen of every planner, runtime, analysis and test in
/// the repository.
struct WorkloadSpec {
  /// Stable CLI/JSON key ("mpdata", "advdiff", ...), unique per registry.
  std::string Name;
  /// One-line human description for --list-workloads output.
  std::string Description;
  /// The stencil program (stages, windows, feedbacks, reductions).
  StencilProgram Program;
  /// The halo depth the workload declares its domains with. Checked at
  /// registration against the program's actual dependence cone: a stage
  /// window deeper than this would read unfilled memory.
  int HaloDepth = 0;
  /// Kernel backends the workload implements; never empty.
  std::vector<KernelVariant> Variants = {KernelVariant::Reference};
  /// Kernel table factory, valid for every variant in Variants. Tables
  /// must satisfy the bit-identical cross-variant contract.
  std::function<KernelTable(KernelVariant)> Kernels;
  /// Seeded initial conditions (fills step-input cores; deterministic in
  /// the seed so every runner pair initialised alike compares bit-exact).
  std::function<void(const WorkloadInitContext &)> Init;
  /// Combiners for the program's declared reductions, keyed by name.
  std::vector<ReductionBinding> Reductions;
};

/// A validated, ordered collection of WorkloadSpecs.
class WorkloadRegistry {
public:
  /// Validates and registers \p Spec. Every contract violation is
  /// reported as a `registry.*` (or `program.*`) finding into \p Diags;
  /// returns true and stores the spec only when none were errors.
  bool add(WorkloadSpec Spec, DiagnosticEngine &Diags);

  /// The spec named \p Name, or nullptr.
  const WorkloadSpec *find(const std::string &Name) const;

  /// All specs in registration order.
  const std::vector<WorkloadSpec> &workloads() const { return Specs; }

  /// Registered names in registration order (the manifest
  /// `mpdata_cli --list-workloads` emits).
  std::vector<std::string> names() const;

  size_t size() const { return Specs.size(); }

private:
  std::vector<WorkloadSpec> Specs;
};

/// A domain sized for \p Spec: its declared halo depth over an
/// NI x NJ x NK core.
Domain workloadDomain(const WorkloadSpec &Spec, int NI, int NJ, int NK,
                      BoundaryMode Boundary = BoundaryMode::Periodic);

/// Seeds \p Runner (SerialStepper, ProgramExecutor, or anything exposing
/// domain()/array()/prepareInputs()) with the workload's initial
/// conditions and refreshes the input halos. Two runners initialised with
/// the same seed start bit-identical.
template <typename Runner>
void initWorkload(const WorkloadSpec &Spec, Runner &R, uint64_t Seed = 0) {
  ICORES_CHECK(Spec.Init, "workload has no registered init");
  WorkloadInitContext Ctx{
      R.domain(), Seed,
      [&R](ArrayId Id) -> decltype(R.array(Id)) { return R.array(Id); }};
  Spec.Init(Ctx);
  R.prepareInputs();
}

} // namespace icores

#endif // ICORES_STENCIL_WORKLOADREGISTRY_H
