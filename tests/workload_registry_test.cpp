//===- tests/workload_registry_test.cpp - Registry misuse pack ------------===//
//
// Misregistration is a diagnosable event, never a crash: every violation
// of the WorkloadRegistry contract — duplicate names, halo declarations
// inconsistent with the program's dependence cone, reductions without
// combiners or with combiners that break the combiner contract, bindings
// naming no declared reduction, missing or incomplete kernel tables,
// missing seeded init — must surface as a structured
// `registry.*` finding in the caller's DiagnosticEngine, leave the
// registry unchanged, and return false from add(). See DESIGN.md §15.
//
//===----------------------------------------------------------------------===//

#include "apps/Workloads.h"
#include "grid/Array3D.h"
#include "stencil/FieldStore.h"
#include "stencil/WorkloadRegistry.h"
#include "support/Diagnostics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

using namespace icores;

namespace {

/// A minimal valid workload: one stage copying in -> out through a
/// one-deep window along dimension 0, fed back, with a no-op kernel and
/// a constant seeded init.
struct TinyApp {
  StencilProgram Program;
  ArrayId In = 0, Out = 0;
};

TinyApp makeTinyApp() {
  TinyApp A;
  A.In = A.Program.addArray("in", ArrayRole::StepInput);
  A.Out = A.Program.addArray("out", ArrayRole::StepOutput);
  StageDef S;
  S.Name = "copy";
  S.Outputs = {A.Out};
  S.Inputs = {StageInput::alongDim(A.In, 0, -1, 1)};
  S.FlopsPerPoint = 1;
  A.Program.addStage(S);
  A.Program.addFeedback(A.Out, A.In);
  return A;
}

WorkloadSpec makeTinySpec(const std::string &Name = "tiny") {
  TinyApp A = makeTinyApp();
  WorkloadSpec Spec;
  Spec.Name = Name;
  Spec.Description = "minimal registry-contract probe";
  Spec.Program = A.Program;
  Spec.HaloDepth = 1;
  Spec.Variants = {KernelVariant::Reference};
  unsigned NumStages = A.Program.numStages();
  Spec.Kernels = [NumStages](KernelVariant) {
    KernelTable T(NumStages);
    for (unsigned S = 0; S != NumStages; ++S)
      T.set(static_cast<StageId>(S), [](FieldStore &, const Box3 &) {});
    return T;
  };
  ArrayId In = A.In;
  Spec.Init = [In](const WorkloadInitContext &Ctx) {
    Ctx.Array(In).fill(1.0);
  };
  return Spec;
}

/// True when \p Diags carries a finding with exactly this id.
bool hasFinding(const DiagnosticEngine &Diags, const std::string &Id) {
  for (const Finding &F : Diags.findings())
    if (F.Id == Id)
      return true;
  return false;
}

/// The `law` notes of every registry.reduction.contract finding.
std::vector<std::string> contractLaws(const DiagnosticEngine &Diags) {
  std::vector<std::string> Laws;
  for (const Finding &F : Diags.findings())
    if (F.Id == "registry.reduction.contract")
      for (const auto &Note : F.Notes)
        if (Note.first == "law")
          Laws.push_back(Note.second);
  return Laws;
}

} // namespace

TEST(WorkloadRegistryTest, ValidSpecRegisters) {
  WorkloadRegistry R;
  DiagnosticEngine Diags;
  EXPECT_TRUE(R.add(makeTinySpec(), Diags));
  EXPECT_EQ(Diags.numFindings(), 0u);
  EXPECT_EQ(R.size(), 1u);
  ASSERT_NE(R.find("tiny"), nullptr);
  EXPECT_EQ(R.find("tiny")->Description, "minimal registry-contract probe");
  EXPECT_EQ(R.names(), std::vector<std::string>{"tiny"});
  Domain Dom = workloadDomain(*R.find("tiny"), 8, 6, 4);
  EXPECT_EQ(Dom.ni(), 8);
  EXPECT_EQ(Dom.haloDepth(), 1);
}

TEST(WorkloadRegistryTest, EmptyNameIsAFinding) {
  WorkloadRegistry R;
  DiagnosticEngine Diags;
  EXPECT_FALSE(R.add(makeTinySpec(""), Diags));
  EXPECT_TRUE(hasFinding(Diags, "registry.name.empty"));
  EXPECT_EQ(R.size(), 0u);
}

TEST(WorkloadRegistryTest, DuplicateNameIsAFinding) {
  WorkloadRegistry R;
  DiagnosticEngine Diags;
  ASSERT_TRUE(R.add(makeTinySpec(), Diags));
  EXPECT_FALSE(R.add(makeTinySpec(), Diags));
  EXPECT_TRUE(hasFinding(Diags, "registry.duplicate-name"));
  EXPECT_EQ(R.size(), 1u) << "the duplicate must not be stored";
}

TEST(WorkloadRegistryTest, HaloShallowerThanTheConeIsAFinding) {
  WorkloadSpec Spec = makeTinySpec();
  Spec.HaloDepth = 0; // The copy stage reads one plane beyond the core.
  WorkloadRegistry R;
  DiagnosticEngine Diags;
  EXPECT_FALSE(R.add(Spec, Diags));
  EXPECT_TRUE(hasFinding(Diags, "registry.halo.window-exceeds-declared"));
  EXPECT_EQ(R.size(), 0u);
}

TEST(WorkloadRegistryTest, DeeperDeclaredHaloIsAccepted) {
  // Over-declaring the halo wastes memory but reads no unfilled cell;
  // that is the access audit's (warning) territory, not the registry's.
  WorkloadSpec Spec = makeTinySpec();
  Spec.HaloDepth = 3;
  WorkloadRegistry R;
  DiagnosticEngine Diags;
  EXPECT_TRUE(R.add(Spec, Diags));
  EXPECT_EQ(Diags.numFindings(), 0u);
}

TEST(WorkloadRegistryTest, ReductionWithoutCombinerIsAFinding) {
  WorkloadSpec Spec = makeTinySpec();
  Spec.Program.addReduction({"norm", makeTinyApp().Out});
  WorkloadRegistry R;
  DiagnosticEngine Diags;
  EXPECT_FALSE(R.add(Spec, Diags));
  EXPECT_TRUE(hasFinding(Diags, "registry.reduction.missing-combiner"));
  EXPECT_EQ(R.size(), 0u);
}

TEST(WorkloadRegistryTest, NullCombinerCallbackIsAFinding) {
  // A binding whose std::function is empty is as unusable as no binding.
  WorkloadSpec Spec = makeTinySpec();
  Spec.Program.addReduction({"norm", makeTinyApp().Out});
  Spec.Reductions.push_back({"norm", nullptr, 0.0});
  WorkloadRegistry R;
  DiagnosticEngine Diags;
  EXPECT_FALSE(R.add(Spec, Diags));
  EXPECT_TRUE(hasFinding(Diags, "registry.reduction.missing-combiner"));
}

TEST(WorkloadRegistryTest, PlainSumCombinerBreaksTheContract) {
  // Floating-point + is neither duplicate tolerant nor associative, so
  // per-worker partials would diverge from the serial scan; registration
  // must refuse it with a structured finding instead.
  WorkloadSpec Spec = makeTinySpec();
  Spec.Program.addReduction({"sum", makeTinyApp().Out});
  Spec.Reductions.push_back(
      {"sum", [](double A, double B) { return A + B; }, 0.0});
  WorkloadRegistry R;
  DiagnosticEngine Diags;
  EXPECT_FALSE(R.add(Spec, Diags));
  EXPECT_EQ(R.size(), 0u);
  EXPECT_EQ(contractLaws(Diags),
            std::vector<std::string>{"duplicate-tolerant"});
}

TEST(WorkloadRegistryTest, NonNeutralIdentityIsAContractFinding) {
  // A worker with an empty sub-region contributes its untouched identity
  // partial, so an identity the combiner does not absorb skews the result.
  WorkloadSpec Spec = makeTinySpec();
  Spec.Program.addReduction({"sum", makeTinyApp().Out});
  Spec.Reductions.push_back(
      {"sum", [](double A, double B) { return A + B; }, 1.0});
  WorkloadRegistry R;
  DiagnosticEngine Diags;
  EXPECT_FALSE(R.add(Spec, Diags));
  EXPECT_EQ(contractLaws(Diags),
            std::vector<std::string>{"identity-neutral"});
}

TEST(WorkloadRegistryTest, DisagreeingRowFoldIsAContractFinding) {
  // The threaded runtime folds whole k-rows through FoldRow while the
  // serial scan uses Combine, so a row fold that drops the row's cells
  // would diverge even though Combine itself keeps every law.
  WorkloadSpec Spec = makeTinySpec();
  Spec.Program.addReduction({"peak", makeTinyApp().Out});
  ReductionBinding B(
      "peak", [](double A, double V) { return std::max(A, V); }, 0.0);
  B.FoldRow = [](double Acc, const double *, int) { return Acc; };
  Spec.Reductions.push_back(B);
  WorkloadRegistry R;
  DiagnosticEngine Diags;
  EXPECT_FALSE(R.add(Spec, Diags));
  EXPECT_EQ(R.size(), 0u);
  EXPECT_EQ(contractLaws(Diags), std::vector<std::string>{"row-fold"});
}

TEST(WorkloadRegistryTest, BindingForUndeclaredReductionIsAFinding) {
  WorkloadSpec Spec = makeTinySpec();
  Spec.Reductions.push_back(
      {"ghost", [](double A, double B) { return A > B ? A : B; }, 0.0});
  WorkloadRegistry R;
  DiagnosticEngine Diags;
  EXPECT_FALSE(R.add(Spec, Diags));
  EXPECT_TRUE(hasFinding(Diags, "registry.reduction.unknown"));
}

TEST(WorkloadRegistryTest, EmptyVariantListIsAFinding) {
  WorkloadSpec Spec = makeTinySpec();
  Spec.Variants.clear();
  WorkloadRegistry R;
  DiagnosticEngine Diags;
  EXPECT_FALSE(R.add(Spec, Diags));
  EXPECT_TRUE(hasFinding(Diags, "registry.variants.empty"));
}

TEST(WorkloadRegistryTest, MissingKernelFactoryIsAFinding) {
  WorkloadSpec Spec = makeTinySpec();
  Spec.Kernels = nullptr;
  WorkloadRegistry R;
  DiagnosticEngine Diags;
  EXPECT_FALSE(R.add(Spec, Diags));
  EXPECT_TRUE(hasFinding(Diags, "registry.kernels.missing"));
}

TEST(WorkloadRegistryTest, IncompleteKernelTableIsAFinding) {
  WorkloadSpec Spec = makeTinySpec();
  Spec.Kernels = [](KernelVariant) { return KernelTable(); };
  WorkloadRegistry R;
  DiagnosticEngine Diags;
  EXPECT_FALSE(R.add(Spec, Diags));
  EXPECT_TRUE(hasFinding(Diags, "registry.kernels.incomplete"));
}

TEST(WorkloadRegistryTest, MissingInitIsAFinding) {
  WorkloadSpec Spec = makeTinySpec();
  Spec.Init = nullptr;
  WorkloadRegistry R;
  DiagnosticEngine Diags;
  EXPECT_FALSE(R.add(Spec, Diags));
  EXPECT_TRUE(hasFinding(Diags, "registry.init.missing"));
}

TEST(WorkloadRegistryTest, InvalidProgramSurfacesProgramFindings) {
  // A structurally broken program (a stage reading an array no stage
  // produces) is reported through the program.* channel and blocks
  // registration — still no crash.
  WorkloadSpec Spec = makeTinySpec();
  StencilProgram Broken;
  ArrayId In = Broken.addArray("in", ArrayRole::StepInput);
  ArrayId Out = Broken.addArray("out", ArrayRole::StepOutput);
  ArrayId Phantom = Broken.addArray("phantom", ArrayRole::Intermediate);
  StageDef S;
  S.Name = "reads-phantom";
  S.Outputs = {Out};
  S.Inputs = {StageInput::center(Phantom)};
  Broken.addStage(S);
  Broken.addFeedback(Out, In);
  Spec.Program = Broken;
  WorkloadRegistry R;
  DiagnosticEngine Diags;
  EXPECT_FALSE(R.add(Spec, Diags));
  EXPECT_TRUE(Diags.hasErrors());
  bool SawProgramFinding = false;
  for (const Finding &F : Diags.findings())
    SawProgramFinding |= F.Id.compare(0, 8, "program.") == 0;
  EXPECT_TRUE(SawProgramFinding);
  EXPECT_EQ(R.size(), 0u);
}

TEST(WorkloadRegistryTest, AllViolationsAccumulateInOnePass) {
  // One add() reports every problem it can see, so a misregistered
  // workload is fixed in one round trip, not one finding at a time.
  WorkloadSpec Spec = makeTinySpec();
  Spec.HaloDepth = 0;
  Spec.Init = nullptr;
  Spec.Variants.clear();
  WorkloadRegistry R;
  DiagnosticEngine Diags;
  EXPECT_FALSE(R.add(Spec, Diags));
  EXPECT_TRUE(hasFinding(Diags, "registry.halo.window-exceeds-declared"));
  EXPECT_TRUE(hasFinding(Diags, "registry.init.missing"));
  EXPECT_TRUE(hasFinding(Diags, "registry.variants.empty"));
  EXPECT_EQ(R.size(), 0u);
}

TEST(WorkloadRegistryTest, FindingsCarryTheWorkloadName) {
  WorkloadSpec Spec = makeTinySpec("culprit");
  Spec.Init = nullptr;
  WorkloadRegistry R;
  DiagnosticEngine Diags;
  EXPECT_FALSE(R.add(Spec, Diags));
  bool Named = false;
  for (const Finding &F : Diags.findings())
    for (const auto &Note : F.Notes)
      Named |= Note.first == "workload" && Note.second == "culprit";
  EXPECT_TRUE(Named);
}

TEST(WorkloadRegistryTest, BuiltinRegistryIsWellFormed) {
  const WorkloadRegistry &R = builtinWorkloads();
  ASSERT_GE(R.size(), 3u);
  std::vector<std::string> Names = R.names();
  EXPECT_NE(std::find(Names.begin(), Names.end(), "mpdata"), Names.end());
  EXPECT_NE(std::find(Names.begin(), Names.end(), "advdiff"), Names.end());
  EXPECT_NE(std::find(Names.begin(), Names.end(), "cfl-advect"),
            Names.end());
  for (const WorkloadSpec &Spec : R.workloads())
    EXPECT_EQ(R.find(Spec.Name), &Spec);
  EXPECT_EQ(R.find("no-such-workload"), nullptr);
}
