//===- stencil/WorkloadRegistry.cpp - Multi-workload registry -------------===//

#include "stencil/WorkloadRegistry.h"

#include "stencil/HaloAnalysis.h"
#include "support/Diagnostics.h"
#include "support/Format.h"

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <string>
#include <utility>

using namespace icores;

namespace {

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof A) == 0;
}

/// The first combiner law \p B breaks, with its operands: Law is empty
/// when the probe passes.
struct ContractViolation {
  std::string Law;
  std::string Operands;
};

/// Probes \p B against the combiner contract the threaded runtime relies
/// on: per-worker partials seeded with Identity, cells folded in any split
/// and order, some cells folded twice, partials combined in worker order.
/// Cells come from a fixed probe set; partials are those cells folded once
/// from Identity. Results are compared bit for bit. The row-fold law
/// holds FoldRow to the left fold of Combine on probe rows of every
/// length up to two lane widths, so the lane loop and its tail are both
/// exercised from every reachable partial.
ContractViolation probeCombiner(const ReductionBinding &B) {
  static const double Cells[] = {0.0, 1.0,   -1.0, 0.1, 0.2,
                                 0.3, -7.25, 2.5,  1e-3, 3e8};
  auto C = [&B](double X, double Y) { return B.Combine(X, Y); };
  std::vector<double> Partials = {B.Identity};
  for (double V : Cells)
    Partials.push_back(C(B.Identity, V));
  std::vector<double> Operands = Partials;
  Operands.insert(Operands.end(), std::begin(Cells), std::end(Cells));
  auto args = [](std::initializer_list<double> Vs) {
    std::string S;
    for (double V : Vs)
      S += formatString(S.empty() ? "%.17g" : ", %.17g", V);
    return S;
  };

  for (double X : Partials) {
    if (!sameBits(C(X, B.Identity), X))
      return {"identity-neutral", args({X})};
    for (double V : Cells)
      if (!sameBits(C(C(X, V), V), C(X, V)))
        return {"duplicate-tolerant", args({X, V})};
    for (double Y : Partials) {
      if (!sameBits(C(X, Y), C(Y, X)))
        return {"commutative", args({X, Y})};
      for (double Z : Operands)
        if (!sameBits(C(C(X, Y), Z), C(X, C(Y, Z))))
          return {"associative", args({X, Y, Z})};
    }
  }

  constexpr int NumCells = static_cast<int>(std::size(Cells));
  double Row[2 * ReductionBinding::RowLanes + 1];
  for (int N = 0; N <= static_cast<int>(std::size(Row)); ++N) {
    for (int K = 0; K != N; ++K)
      Row[K] = Cells[(3 * K + N) % NumCells];
    for (double Acc : Partials) {
      double Want = Acc;
      for (int K = 0; K != N; ++K)
        Want = C(Want, Row[K]);
      if (!sameBits(B.FoldRow(Acc, Row, N), Want))
        return {"row-fold", formatString("%.17g over a row of %d", Acc, N)};
    }
  }
  return {};
}

} // namespace

bool WorkloadRegistry::add(WorkloadSpec Spec, DiagnosticEngine &Diags) {
  size_t ErrorsBefore = Diags.numErrors();

  if (Spec.Name.empty())
    Diags.report(Severity::Error, "registry.name.empty",
                 "workload has an empty name");
  else if (find(Spec.Name))
    Diags
        .report(Severity::Error, "registry.duplicate-name",
                formatString("workload '%s' is already registered",
                             Spec.Name.c_str()))
        .note("workload", Spec.Name);

  // The program's own structural invariants first: the registry checks
  // below assume a well-formed stage chain.
  const bool ProgramOk = Spec.Program.validate(Diags);

  if (ProgramOk) {
    // Declared-halo consistency: the deepest per-dimension input window
    // of the whole dependence cone must fit in the halo the workload says
    // its domains carry, or kernels would read unfilled cells. The cone
    // margins are offset sums, independent of the probe target's size.
    std::array<int, 3> Depth =
        inputHaloDepth(Spec.Program, Box3::fromExtents(8, 8, 8));
    for (int D = 0; D != 3; ++D)
      if (Depth[D] > Spec.HaloDepth)
        Diags
            .report(Severity::Error, "registry.halo.window-exceeds-declared",
                    formatString(
                        "workload '%s': the program's dependence cone needs "
                        "a halo of %d along dimension %d but the workload "
                        "declares only %d",
                        Spec.Name.c_str(), Depth[D], D, Spec.HaloDepth))
            .note("workload", Spec.Name)
            .note("dimension", formatString("%d", D))
            .note("needed", formatString("%d", Depth[D]))
            .note("declared", formatString("%d", Spec.HaloDepth));

    // Reduction contract: every declared reduction needs a callable
    // combiner that passes the contract probe (a combiner that breaks it
    // would silently diverge from the serial scan), and every binding
    // must name a declared reduction.
    for (const ReductionDef &Def : Spec.Program.reductions()) {
      const ReductionBinding *Found = nullptr;
      for (const ReductionBinding &B : Spec.Reductions)
        if (B.Name == Def.Name)
          Found = &B;
      if (!Found || !Found->Combine || !Found->FoldRow) {
        Diags
            .report(Severity::Error, "registry.reduction.missing-combiner",
                    formatString("workload '%s': reduction '%s' is declared "
                                 "but has no callable combiner",
                                 Spec.Name.c_str(), Def.Name.c_str()))
            .note("workload", Spec.Name)
            .note("reduction", Def.Name);
        continue;
      }
      ContractViolation V = probeCombiner(*Found);
      if (!V.Law.empty())
        Diags
            .report(Severity::Error, "registry.reduction.contract",
                    formatString("workload '%s': the combiner of reduction "
                                 "'%s' is not %s (probe operands %s)",
                                 Spec.Name.c_str(), Def.Name.c_str(),
                                 V.Law.c_str(), V.Operands.c_str()))
            .note("workload", Spec.Name)
            .note("reduction", Def.Name)
            .note("law", V.Law);
    }
    for (const ReductionBinding &B : Spec.Reductions) {
      bool Declared = false;
      for (const ReductionDef &Def : Spec.Program.reductions())
        Declared = Declared || Def.Name == B.Name;
      if (!Declared)
        Diags
            .report(Severity::Error, "registry.reduction.unknown",
                    formatString("workload '%s': combiner '%s' matches no "
                                 "declared reduction",
                                 Spec.Name.c_str(), B.Name.c_str()))
            .note("workload", Spec.Name)
            .note("reduction", B.Name);
    }
  }

  if (Spec.Variants.empty())
    Diags
        .report(Severity::Error, "registry.variants.empty",
                formatString("workload '%s' advertises no kernel variants",
                             Spec.Name.c_str()))
        .note("workload", Spec.Name);
  if (!Spec.Kernels)
    Diags
        .report(Severity::Error, "registry.kernels.missing",
                formatString("workload '%s' has no kernel factory",
                             Spec.Name.c_str()))
        .note("workload", Spec.Name);
  else if (ProgramOk)
    for (KernelVariant V : Spec.Variants)
      if (!Spec.Kernels(V).coversProgram(Spec.Program))
        Diags
            .report(Severity::Error, "registry.kernels.incomplete",
                    formatString("workload '%s': the %s kernel table does "
                                 "not cover every program stage",
                                 Spec.Name.c_str(), kernelVariantName(V)))
            .note("workload", Spec.Name)
            .note("variant", kernelVariantName(V));

  if (!Spec.Init)
    Diags
        .report(Severity::Error, "registry.init.missing",
                formatString("workload '%s' has no seeded initial "
                             "conditions",
                             Spec.Name.c_str()))
        .note("workload", Spec.Name);

  if (Diags.numErrors() != ErrorsBefore)
    return false;
  Specs.push_back(std::move(Spec));
  return true;
}

const WorkloadSpec *WorkloadRegistry::find(const std::string &Name) const {
  for (const WorkloadSpec &Spec : Specs)
    if (Spec.Name == Name)
      return &Spec;
  return nullptr;
}

std::vector<std::string> WorkloadRegistry::names() const {
  std::vector<std::string> Names;
  Names.reserve(Specs.size());
  for (const WorkloadSpec &Spec : Specs)
    Names.push_back(Spec.Name);
  return Names;
}

Domain icores::workloadDomain(const WorkloadSpec &Spec, int NI, int NJ,
                              int NK, BoundaryMode Boundary) {
  return Domain(NI, NJ, NK, Spec.HaloDepth, Boundary);
}
