//===- tests/lint_test.cpp - Static-analysis subsystem tests --------------===//
//
// Covers the icores-lint analyses end to end: the Diagnostics findings
// infrastructure (text + icores.lint.v1 JSON golden file), the kernel
// access audit against seeded access-pattern defects, the schedule race
// check against seeded barrier/sub-region defects, the retrofitted plan
// verifier, and the combined suite on the shipped MPDATA application
// (which must be clean — the acceptance bar for every declared window
// being exactly tight).
//
//===----------------------------------------------------------------------===//

#include "core/PlanBuilder.h"
#include "core/PlanVerifier.h"
#include "exec/EpochScript.h"
#include "exec/LintSuite.h"
#include "exec/ScheduleCheck.h"
#include "machine/MachineModel.h"
#include "mpdata/Kernels.h"
#include "mpdata/MpdataProgram.h"
#include "stencil/AccessAudit.h"
#include "stencil/KernelTable.h"
#include "support/Diagnostics.h"
#include "support/OStream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

using namespace icores;

namespace {

//===----------------------------------------------------------------------===//
// Diagnostics infrastructure
//===----------------------------------------------------------------------===//

TEST(Diagnostics, CountsAndQueries) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(Diags.hasErrors());
  Diags.report(Severity::Error, "a.b", "first").note("k", "v");
  Diags.report(Severity::Warning, "c.d", "second");
  Diags.report(Severity::Note, "e.f", "third");
  EXPECT_EQ(Diags.numFindings(), 3u);
  EXPECT_EQ(Diags.numErrors(), 1u);
  EXPECT_EQ(Diags.numWarnings(), 1u);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_TRUE(Diags.hasFinding("c.d"));
  EXPECT_FALSE(Diags.hasFinding("c.e"));
  EXPECT_EQ(Diags.firstErrorMessage(), "first");
  Diags.clear();
  EXPECT_EQ(Diags.numFindings(), 0u);
}

TEST(Diagnostics, TextRendering) {
  DiagnosticEngine Diags;
  Diags.report(Severity::Error, "plan.output.coverage", "half covered")
      .note("array", "xOut")
      .note("plan", "islands");
  std::string Buf;
  StringOStream OS(Buf);
  Diags.printText(OS);
  EXPECT_EQ(Buf, "error: plan.output.coverage: half covered "
                 "[array=xOut, plan=islands]\n");
}

/// Builds the deterministic findings snapshot behind the JSON golden file.
DiagnosticEngine makeGoldenFindings() {
  DiagnosticEngine Diags;
  Diags
      .report(Severity::Error, "access.read.outside-window",
              "stage 'flux1' reads 'xIn' outside its declared window")
      .note("stage", "flux1")
      .note("observed", "[-2,1]x[0,0]x[0,0]");
  Diags
      .report(Severity::Warning, "access.read.window-slack",
              "declared window wider than observed\nline2\t\"quoted\"")
      .note("array", "u1");
  return Diags;
}

TEST(Diagnostics, JsonGoldenFile) {
  DiagnosticEngine Diags = makeGoldenFindings();
  std::string Buf;
  StringOStream OS(Buf);
  Diags.printJson(OS);

  std::string Path = std::string(ICORES_TEST_DATA_DIR) +
                     "/golden/lint_sample.v1.json";
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(F, nullptr) << "missing golden file " << Path;
  std::string Golden;
  char Chunk[4096];
  for (size_t N; (N = std::fread(Chunk, 1, sizeof(Chunk), F)) > 0;)
    Golden.append(Chunk, N);
  std::fclose(F);
  EXPECT_EQ(Buf, Golden)
      << "icores.lint.v1 output drifted from the golden file; if the "
         "change is intentional, regenerate tests/golden/lint_sample.v1.json";
}

TEST(Diagnostics, DedupeDropsExactDuplicatesOnly) {
  DiagnosticEngine Diags;
  Diags.report(Severity::Error, "a.b", "msg").note("k", "v");
  Diags.report(Severity::Error, "a.b", "msg").note("k", "v"); // duplicate
  Diags.report(Severity::Error, "a.b", "msg").note("k", "w"); // distinct note
  Diags.report(Severity::Warning, "a.b", "msg").note("k", "v"); // severity
  Diags.report(Severity::Error, "a.c", "msg").note("k", "v"); // distinct id
  EXPECT_EQ(Diags.dedupe(), 1u);
  EXPECT_EQ(Diags.numFindings(), 4u);
  // First-occurrence order is preserved.
  EXPECT_EQ(Diags.finding(0).Notes[0].second, "v");
  EXPECT_EQ(Diags.finding(1).Notes[0].second, "w");
  EXPECT_EQ(Diags.finding(2).Sev, Severity::Warning);
  EXPECT_EQ(Diags.finding(3).Id, "a.c");
  // Idempotent.
  EXPECT_EQ(Diags.dedupe(), 0u);
}

TEST(Diagnostics, JsonEmptyReportIsWellFormed) {
  DiagnosticEngine Diags;
  std::string Buf;
  StringOStream OS(Buf);
  Diags.printJson(OS);
  EXPECT_NE(Buf.find("\"schema\": \"icores.lint.v1\""), std::string::npos);
  EXPECT_NE(Buf.find("\"findings\": []"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Access audit: seeded kernel defects on a tiny synthetic app
//===----------------------------------------------------------------------===//

/// Two-stage chain: s0 computes A from In (window [-1,1] along i), s1
/// copies A into Out. Each test swaps in a deliberately broken kernel or
/// a mis-declared window and asserts the exact finding id.
struct SyntheticApp {
  StencilProgram P;
  ArrayId In, A, Out;
  StageId S0, S1;
};

SyntheticApp makeSynthetic(int DeclMin = -1, int DeclMax = 1) {
  SyntheticApp App;
  App.In = App.P.addArray("in", ArrayRole::StepInput);
  App.A = App.P.addArray("a", ArrayRole::Intermediate);
  App.Out = App.P.addArray("out", ArrayRole::StepOutput);
  StageDef S0;
  S0.Name = "smooth";
  S0.Outputs = {App.A};
  S0.Inputs = {StageInput::alongDim(App.In, 0, DeclMin, DeclMax)};
  S0.FlopsPerPoint = 2;
  App.S0 = App.P.addStage(S0);
  StageDef S1;
  S1.Name = "emit";
  S1.Outputs = {App.Out};
  S1.Inputs = {StageInput::center(App.A)};
  S1.FlopsPerPoint = 0;
  App.S1 = App.P.addStage(S1);
  return App;
}

template <typename Fn> void forRegion(const Box3 &B, Fn &&Body) {
  for (int I = B.Lo[0]; I != B.Hi[0]; ++I)
    for (int J = B.Lo[1]; J != B.Hi[1]; ++J)
      for (int K = B.Lo[2]; K != B.Hi[2]; ++K)
        Body(I, J, K);
}

/// Correct kernels for makeSynthetic(-1, 1).
KernelTable makeGoodKernels(const SyntheticApp &App) {
  KernelTable T(App.P.numStages());
  ArrayId In = App.In, A = App.A, Out = App.Out;
  T.set(App.S0, [In, A](FieldStore &F, const Box3 &R) {
    const Array3D &X = F.get(In);
    Array3D &Y = F.get(A);
    forRegion(R, [&](int I, int J, int K) {
      Y.at(I, J, K) =
          X.at(I - 1, J, K) + X.at(I, J, K) + X.at(I + 1, J, K);
    });
  });
  T.set(App.S1, [A, Out](FieldStore &F, const Box3 &R) {
    const Array3D &X = F.get(A);
    Array3D &Y = F.get(Out);
    forRegion(R, [&](int I, int J, int K) { Y.at(I, J, K) = X.at(I, J, K); });
  });
  return T;
}

TEST(AccessAudit, CleanSyntheticAppHasNoFindings) {
  SyntheticApp App = makeSynthetic();
  KernelTable T = makeGoodKernels(App);
  DiagnosticEngine Diags;
  EXPECT_TRUE(auditProgramAccess(App.P, T, Diags));
  EXPECT_EQ(Diags.numFindings(), 0u)
      << [&] { std::string B; StringOStream OS(B); Diags.printText(OS);
               return B; }();
}

TEST(AccessAudit, DetectsUnderDeclaredWindow) {
  // Program claims s0 reads only the centre; the kernel reads i +/- 1.
  SyntheticApp App = makeSynthetic(/*DeclMin=*/0, /*DeclMax=*/0);
  KernelTable T = makeGoodKernels(App);
  DiagnosticEngine Diags;
  EXPECT_FALSE(auditStageAccess(App.P, T, App.S0, Diags));
  EXPECT_TRUE(Diags.hasFinding("access.read.outside-window"));
}

TEST(AccessAudit, DetectsOverDeclaredWindow) {
  // Program claims i +/- 2 but the kernel only reads i +/- 1: the slack
  // inflates the Table 2 extra-element budget — a warning, not an error.
  SyntheticApp App = makeSynthetic(/*DeclMin=*/-2, /*DeclMax=*/2);
  KernelTable T = makeGoodKernels(App);
  DiagnosticEngine Diags;
  EXPECT_TRUE(auditStageAccess(App.P, T, App.S0, Diags)); // No *errors*.
  EXPECT_TRUE(Diags.hasFinding("access.read.window-slack"));
  EXPECT_EQ(Diags.numWarnings(), 1u);
}

TEST(AccessAudit, DetectsUndeclaredArrayRead) {
  SyntheticApp App = makeSynthetic();
  KernelTable T = makeGoodKernels(App);
  ArrayId In = App.In, A = App.A, Out = App.Out;
  // s1 secretly also reads 'in', which its Inputs never mention.
  T.set(App.S1, [In, A, Out](FieldStore &F, const Box3 &R) {
    const Array3D &X = F.get(A);
    const Array3D &Secret = F.get(In);
    Array3D &Y = F.get(Out);
    forRegion(R, [&](int I, int J, int K) {
      Y.at(I, J, K) = X.at(I, J, K) + Secret.at(I, J, K);
    });
  });
  DiagnosticEngine Diags;
  EXPECT_FALSE(auditStageAccess(App.P, T, App.S1, Diags));
  EXPECT_TRUE(Diags.hasFinding("access.read.undeclared-array"));
}

TEST(AccessAudit, DetectsMinMaxMaskedUnderDeclaration) {
  // A max() chain can swallow NaN poison (max picks the finite operand on
  // many code paths), which is exactly why the audit probes with value
  // flips instead. Declared window is the centre; the kernel takes
  // max(A(i), A(i+1)).
  SyntheticApp App = makeSynthetic();
  KernelTable T = makeGoodKernels(App);
  ArrayId A = App.A, Out = App.Out;
  T.set(App.S1, [A, Out](FieldStore &F, const Box3 &R) {
    const Array3D &X = F.get(A);
    Array3D &Y = F.get(Out);
    forRegion(R, [&](int I, int J, int K) {
      Y.at(I, J, K) = std::max(X.at(I, J, K), X.at(I + 1, J, K));
    });
  });
  DiagnosticEngine Diags;
  EXPECT_FALSE(auditStageAccess(App.P, T, App.S1, Diags));
  EXPECT_TRUE(Diags.hasFinding("access.read.outside-window"));
}

TEST(AccessAudit, DetectsWriteOutsideRegion) {
  SyntheticApp App = makeSynthetic();
  KernelTable T = makeGoodKernels(App);
  ArrayId A = App.A, Out = App.Out;
  T.set(App.S1, [A, Out](FieldStore &F, const Box3 &R) {
    const Array3D &X = F.get(A);
    Array3D &Y = F.get(Out);
    forRegion(R, [&](int I, int J, int K) { Y.at(I, J, K) = X.at(I, J, K); });
    Y.at(R.Hi[0], R.Lo[1], R.Lo[2]) = 0.0; // One cell past the region.
  });
  DiagnosticEngine Diags;
  EXPECT_FALSE(auditStageAccess(App.P, T, App.S1, Diags));
  EXPECT_TRUE(Diags.hasFinding("access.write.outside-region"));
}

TEST(AccessAudit, DetectsUndeclaredArrayWrite) {
  SyntheticApp App = makeSynthetic();
  KernelTable T = makeGoodKernels(App);
  ArrayId In = App.In, A = App.A, Out = App.Out;
  // s0 scribbles into 'out', which is not among its outputs.
  T.set(App.S0, [In, A, Out](FieldStore &F, const Box3 &R) {
    const Array3D &X = F.get(In);
    Array3D &Y = F.get(A);
    Array3D &Z = F.get(Out);
    forRegion(R, [&](int I, int J, int K) {
      Y.at(I, J, K) =
          X.at(I - 1, J, K) + X.at(I, J, K) + X.at(I + 1, J, K);
      Z.at(I, J, K) = 1.0;
    });
  });
  DiagnosticEngine Diags;
  EXPECT_FALSE(auditStageAccess(App.P, T, App.S0, Diags));
  EXPECT_TRUE(Diags.hasFinding("access.write.undeclared-array"));
}

TEST(AccessAudit, DetectsUncoveredOutputCells) {
  SyntheticApp App = makeSynthetic();
  KernelTable T = makeGoodKernels(App);
  ArrayId A = App.A, Out = App.Out;
  // s1 skips the first i-plane of its region.
  T.set(App.S1, [A, Out](FieldStore &F, const Box3 &R) {
    const Array3D &X = F.get(A);
    Array3D &Y = F.get(Out);
    forRegion(R, [&](int I, int J, int K) {
      if (I != R.Lo[0])
        Y.at(I, J, K) = X.at(I, J, K);
    });
  });
  DiagnosticEngine Diags;
  EXPECT_TRUE(auditStageAccess(App.P, T, App.S1, Diags)); // Warning only.
  EXPECT_TRUE(Diags.hasFinding("access.write.region-uncovered"));
}

TEST(AccessAudit, DetectsDeclaredButUnusedInput) {
  SyntheticApp App = makeSynthetic();
  KernelTable T = makeGoodKernels(App);
  ArrayId A = App.A, Out = App.Out;
  // s1 writes a constant: its declared read of 'a' never happens.
  T.set(App.S1, [A, Out](FieldStore &F, const Box3 &R) {
    (void)A;
    Array3D &Y = F.get(Out);
    forRegion(R, [&](int I, int J, int K) { Y.at(I, J, K) = 1.0; });
  });
  DiagnosticEngine Diags;
  EXPECT_TRUE(auditStageAccess(App.P, T, App.S1, Diags)); // Warning only.
  EXPECT_TRUE(Diags.hasFinding("access.read.declared-unused"));
}

TEST(AccessAudit, DetectsUndeclaredFetch) {
  SyntheticApp App = makeSynthetic();
  KernelTable T = makeGoodKernels(App);
  ArrayId In = App.In, A = App.A, Out = App.Out;
  // s1 fetches 'in' but never lets its values reach the output: probing
  // cannot see it, the instrumented store can.
  T.set(App.S1, [In, A, Out](FieldStore &F, const Box3 &R) {
    const Array3D &X = F.get(A);
    (void)F.get(In);
    Array3D &Y = F.get(Out);
    forRegion(R, [&](int I, int J, int K) { Y.at(I, J, K) = X.at(I, J, K); });
  });
  DiagnosticEngine Diags;
  EXPECT_TRUE(auditStageAccess(App.P, T, App.S1, Diags)); // Warning only.
  EXPECT_TRUE(Diags.hasFinding("access.fetch.undeclared-array"));
}

TEST(AccessAudit, FootprintReportsObservedHull) {
  SyntheticApp App = makeSynthetic();
  KernelTable T = makeGoodKernels(App);
  StageAccessFootprint FP = probeStageAccess(App.P, T, App.S0);
  const StageAccessFootprint::ReadWindow &W =
      FP.Reads[static_cast<size_t>(App.In)];
  EXPECT_TRUE(W.Declared);
  EXPECT_TRUE(W.Observed);
  EXPECT_EQ(W.ObsMin, (std::array<int, 3>{-1, 0, 0}));
  EXPECT_EQ(W.ObsMax, (std::array<int, 3>{1, 0, 0}));
}

//===----------------------------------------------------------------------===//
// Access audit: the shipped MPDATA kernels (acceptance bar)
//===----------------------------------------------------------------------===//

/// Every one of the 17 declared stage windows must be exactly tight for
/// all kernel variants: no under-declaration (unsound halos) and no
/// over-declaration (inflated Table 2 redundancy). Zero findings, not
/// merely zero errors.
TEST(AccessAudit, MpdataWindowsAreExactlyTightAllVariants) {
  MpdataProgram M = buildMpdataProgram();
  for (KernelVariant Variant :
       {KernelVariant::Reference, KernelVariant::Optimized,
        KernelVariant::Simd}) {
    KernelTable T = buildMpdataKernels(Variant);
    DiagnosticEngine Diags;
    EXPECT_TRUE(auditProgramAccess(M.Program, T, Diags));
    std::string Buf;
    StringOStream OS(Buf);
    Diags.printText(OS);
    EXPECT_EQ(Diags.numFindings(), 0u) << Buf;
  }
}

//===----------------------------------------------------------------------===//
// Schedule race check
//===----------------------------------------------------------------------===//

/// Program for race tests: s0 writes shared 'out' from 'in'; s1 reads
/// 'out' with an i +/- 1 halo into 'out2'. Both outputs are step outputs,
/// so they are shared across islands.
struct RaceApp {
  StencilProgram P;
  ArrayId In, Out, Out2;
  StageId S0, S1;
};

RaceApp makeRaceApp() {
  RaceApp App;
  App.In = App.P.addArray("in", ArrayRole::StepInput);
  App.Out = App.P.addArray("out", ArrayRole::StepOutput);
  App.Out2 = App.P.addArray("out2", ArrayRole::StepOutput);
  StageDef S0;
  S0.Name = "produce";
  S0.Outputs = {App.Out};
  S0.Inputs = {StageInput::center(App.In)};
  App.S0 = App.P.addStage(S0);
  StageDef S1;
  S1.Name = "consume";
  S1.Outputs = {App.Out2};
  S1.Inputs = {StageInput::alongDim(App.Out, 0, -1, 1)};
  App.S1 = App.P.addStage(S1);
  return App;
}

TEST(ScheduleCheck, BarrieredScheduleIsRaceFree) {
  RaceApp App = makeRaceApp();
  Box3 R = Box3::fromExtents(32, 8, 4);
  IslandSchedule S;
  S.NumThreads = 4;
  S.Passes = {{App.S0, R, /*BarrierAfter=*/true},
              {App.S1, R, /*BarrierAfter=*/true}};
  DiagnosticEngine Diags;
  EXPECT_TRUE(checkScheduleRaces(App.P, {S}, Diags));
  EXPECT_EQ(Diags.numFindings(), 0u);
}

TEST(ScheduleCheck, DroppedBarrierIsAReadWriteRace) {
  RaceApp App = makeRaceApp();
  Box3 R = Box3::fromExtents(32, 8, 4);
  IslandSchedule S;
  S.NumThreads = 4;
  // No barrier between producer and consumer: thread 1 may still be
  // writing out[8..16) while thread 0 reads out[-1..9).
  S.Passes = {{App.S0, R, /*BarrierAfter=*/false},
              {App.S1, R, /*BarrierAfter=*/true}};
  DiagnosticEngine Diags;
  EXPECT_FALSE(checkScheduleRaces(App.P, {S}, Diags));
  EXPECT_TRUE(Diags.hasFinding("race.intra.read-write"));
}

TEST(ScheduleCheck, OverlappingSubRegionsAreAWriteWriteRace) {
  RaceApp App = makeRaceApp();
  Box3 R = Box3::fromExtents(32, 8, 4);
  IslandSchedule S;
  S.NumThreads = 4;
  // The same stage runs twice on shifted regions without a barrier: the
  // thread sub-regions of the two passes interleave and collide.
  S.Passes = {{App.S0, R, /*BarrierAfter=*/false},
              {App.S0, R.shifted(4, 0, 0), /*BarrierAfter=*/true}};
  DiagnosticEngine Diags;
  EXPECT_FALSE(checkScheduleRaces(App.P, {S}, Diags));
  EXPECT_TRUE(Diags.hasFinding("race.intra.write-write"));
}

TEST(ScheduleCheck, TemporalRaceIdsEncodeTheEpochStep) {
  // The same dropped-barrier defect replayed at two fused steps must
  // yield two *distinct* stable ids (.step0 / .step1) that both survive
  // deduplication — a temporal plan's step-k finding is not a duplicate
  // of its step-0 twin.
  RaceApp App = makeRaceApp();
  Box3 R = Box3::fromExtents(32, 8, 4);
  IslandSchedule S;
  S.NumThreads = 4;
  S.TemporalDepth = 2;
  S.Passes = {{App.S0, R, /*BarrierAfter=*/false, /*StepInEpoch=*/0},
              {App.S1, R, /*BarrierAfter=*/true, /*StepInEpoch=*/0},
              {App.S0, R, /*BarrierAfter=*/false, /*StepInEpoch=*/1},
              {App.S1, R, /*BarrierAfter=*/true, /*StepInEpoch=*/1}};
  DiagnosticEngine Diags;
  EXPECT_FALSE(checkScheduleRaces(App.P, {S}, Diags));
  EXPECT_TRUE(Diags.hasFinding("race.intra.read-write.step0"));
  EXPECT_TRUE(Diags.hasFinding("race.intra.read-write.step1"));
  EXPECT_FALSE(Diags.hasFinding("race.intra.read-write"));
  EXPECT_EQ(Diags.dedupe(), 0u);
  EXPECT_EQ(Diags.numErrors(), 2u);
}

TEST(ScheduleCheck, SingleThreadTeamNeverRacesIntraIsland) {
  RaceApp App = makeRaceApp();
  Box3 R = Box3::fromExtents(32, 8, 4);
  IslandSchedule S;
  S.NumThreads = 1;
  S.Passes = {{App.S0, R, /*BarrierAfter=*/false},
              {App.S1, R, /*BarrierAfter=*/true}};
  DiagnosticEngine Diags;
  EXPECT_TRUE(checkScheduleRaces(App.P, {S}, Diags));
}

TEST(ScheduleCheck, InterIslandSharedWriteOverlapIsARace) {
  RaceApp App = makeRaceApp();
  IslandSchedule A, B;
  A.Index = 0;
  A.Passes = {{App.S0, Box3::fromExtents(16, 8, 4), true}};
  B.Index = 1;
  B.Passes = {{App.S0, Box3(12, 0, 0, 24, 8, 4), true}};
  DiagnosticEngine Diags;
  EXPECT_FALSE(checkScheduleRaces(App.P, {A, B}, Diags));
  EXPECT_TRUE(Diags.hasFinding("race.inter.write-write"));
  // Exactly one WW finding: the symmetric pair must not be double-counted.
  EXPECT_EQ(Diags.numErrors(), 1u);
}

TEST(ScheduleCheck, InterIslandReadOfForeignWriteIsARace) {
  RaceApp App = makeRaceApp();
  IslandSchedule A, B;
  A.Index = 0;
  A.Passes = {{App.S0, Box3::fromExtents(16, 8, 4), true}};
  // Island 1 writes a disjoint slab of 'out' but its consume halo reads
  // i=15, which island 0 writes — islands never sync within a step.
  B.Index = 1;
  B.Passes = {{App.S1, Box3(16, 0, 0, 32, 8, 4), true}};
  DiagnosticEngine Diags;
  EXPECT_FALSE(checkScheduleRaces(App.P, {A, B}, Diags));
  EXPECT_TRUE(Diags.hasFinding("race.inter.read-write"));
}

TEST(ScheduleCheck, IntermediatesArePerIslandAndNeverRaceAcrossIslands) {
  // Same shapes as the WW test above, but the overlapping array is an
  // Intermediate: each island has its own copy, so no race.
  StencilProgram P;
  ArrayId In = P.addArray("in", ArrayRole::StepInput);
  ArrayId Mid = P.addArray("mid", ArrayRole::Intermediate);
  ArrayId Out = P.addArray("out", ArrayRole::StepOutput);
  StageDef S0;
  S0.Name = "mid";
  S0.Outputs = {Mid};
  S0.Inputs = {StageInput::center(In)};
  StageId SMid = P.addStage(S0);
  StageDef S1;
  S1.Name = "fin";
  S1.Outputs = {Out};
  S1.Inputs = {StageInput::center(Mid)};
  StageId SFin = P.addStage(S1);

  IslandSchedule A, B;
  A.Index = 0;
  A.Passes = {{SMid, Box3::fromExtents(20, 8, 4), true},
              {SFin, Box3::fromExtents(16, 8, 4), true}};
  B.Index = 1;
  B.Passes = {{SMid, Box3(12, 0, 0, 32, 8, 4), true},
              {SFin, Box3(16, 0, 0, 32, 8, 4), true}};
  DiagnosticEngine Diags;
  EXPECT_TRUE(checkScheduleRaces(P, {A, B}, Diags)) << [&] {
    std::string Buf;
    StringOStream OS(Buf);
    Diags.printText(OS);
    return Buf;
  }();
}

TEST(ScheduleCheck, BuiltPlansAreRaceFree) {
  MpdataProgram M = buildMpdataProgram();
  MachineModel Machine = makeToyMachine();
  Box3 Target = Box3::fromExtents(48, 24, 8);
  for (Strategy Strat : {Strategy::Original, Strategy::Block31D,
                         Strategy::IslandsOfCores}) {
    PlanConfig Config;
    Config.Strat = Strat;
    Config.Sockets = 2;
    ExecutionPlan Plan = buildPlan(M.Program, Target, Machine, Config);
    std::vector<IslandSchedule> Schedules =
        buildIslandSchedules(Plan, buildEpochScripts(M.Program, Plan));
    // The executor barriers after every pass; the schedule must say so.
    for (const IslandSchedule &S : Schedules)
      for (const ScheduledPass &Pass : S.Passes) {
        EXPECT_TRUE(Pass.BarrierAfter);
        EXPECT_FALSE(Pass.Region.empty());
      }
    DiagnosticEngine Diags;
    EXPECT_TRUE(checkScheduleRaces(M.Program, Schedules, Diags))
        << strategyName(Strat) << ": " << Diags.firstErrorMessage();
  }
}

/// MPDATA's epoch scripts for a two-island blocked plan of temporal depth
/// \p Depth, which the fence check must accept as built. Then the first
/// barrier after island 0's first \p K op is deleted, and the result is
/// whether the fence check reports \p Id for it.
bool droppedFenceIsReported(EpochOp::Kind K, int Depth,
                            const std::string &Id) {
  MpdataProgram M = buildMpdataProgram();
  MachineModel Machine = makeToyMachine();
  Machine.NumSockets = std::max(Machine.NumSockets, 2);
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = 2;
  Config.TemporalDepth = Depth;
  ExecutionPlan Plan =
      buildPlan(M.Program, Box3::fromExtents(48, 24, 8), Machine, Config);
  std::vector<EpochScript> Scripts = buildEpochScripts(M.Program, Plan);
  DiagnosticEngine Clean;
  EXPECT_TRUE(checkScriptFences(Scripts, Clean)) << Clean.firstErrorMessage();

  std::vector<EpochOp> &Ops = Scripts[0].Ops;
  auto Op = std::find_if(Ops.begin(), Ops.end(),
                         [K](const EpochOp &O) { return O.K == K; });
  if (Op == Ops.end()) {
    ADD_FAILURE() << "no " << epochOpName(K) << " op at T=" << Depth;
    return false;
  }
  Ops.erase(std::find_if(Op, Ops.end(),
                         [](const EpochOp &O) { return O.isBarrier(); }));
  DiagnosticEngine Diags;
  EXPECT_FALSE(checkScriptFences(Scripts, Diags));
  return Diags.hasFinding(Id);
}

TEST(ScheduleCheck, DroppedFenceAfterSlideIsReported) {
  EXPECT_TRUE(
      droppedFenceIsReported(EpochOp::Kind::Slide, 1, "race.script.slide"));
  EXPECT_TRUE(
      droppedFenceIsReported(EpochOp::Kind::Slide, 2, "race.script.slide"));
}

TEST(ScheduleCheck, DroppedFenceAfterHaloSlabIsReported) {
  EXPECT_TRUE(droppedFenceIsReported(EpochOp::Kind::HaloSlab, 1,
                                     "race.script.halo-slab"));
}

TEST(ScheduleCheck, DroppedFenceAfterCombineAndSwapIsReported) {
  for (int Depth : {1, 2})
    EXPECT_TRUE(droppedFenceIsReported(EpochOp::Kind::CombineAndSwap, Depth,
                                       "race.script.combine-and-swap"))
        << "T=" << Depth;
}

TEST(ScheduleCheck, DroppedFenceAfterImportIsReported) {
  EXPECT_TRUE(droppedFenceIsReported(EpochOp::Kind::Import, 2,
                                     "race.script.import"));
}

//===----------------------------------------------------------------------===//
// Plan verifier (DiagnosticEngine retrofit)
//===----------------------------------------------------------------------===//

TEST(PlanVerifierDiags, ReportsAllFindingsNotJustTheFirst) {
  MpdataProgram M = buildMpdataProgram();
  MachineModel Machine = makeToyMachine();
  Box3 Target = Box3::fromExtents(48, 24, 8);
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = 2;
  ExecutionPlan Plan = buildPlan(M.Program, Target, Machine, Config);

  // Seed two independent defects: drop island 1's final output pass
  // (coverage) and push island 0's first pass past the dependence cone.
  BlockTask &Last = Plan.Islands[1].Blocks.back();
  ASSERT_EQ(Last.Passes.back().Stage, M.SOut);
  Last.Passes.pop_back();
  Plan.Islands[0].Blocks[0].Passes[0].Region = Target.grownAll(10);

  DiagnosticEngine Diags;
  EXPECT_FALSE(verifyPlan(Plan, M.Program, Diags));
  EXPECT_TRUE(Diags.hasFinding("plan.pass.exceeds-global"));
  EXPECT_TRUE(Diags.hasFinding("plan.output.coverage"));
  EXPECT_GE(Diags.numErrors(), 2u);
}

TEST(PlanVerifierDiags, EmptyPlanAndInvalidStage) {
  MpdataProgram M = buildMpdataProgram();
  ExecutionPlan Empty;
  DiagnosticEngine Diags;
  EXPECT_FALSE(verifyPlan(Empty, M.Program, Diags));
  EXPECT_TRUE(Diags.hasFinding("plan.no-islands"));

  ExecutionPlan Bad;
  Bad.GlobalTarget = Box3::fromExtents(8, 8, 8);
  IslandPlan Island;
  BlockTask Block;
  Block.Passes.push_back({static_cast<StageId>(99), Bad.GlobalTarget});
  Island.Blocks.push_back(Block);
  Bad.Islands.push_back(Island);
  Diags.clear();
  EXPECT_FALSE(verifyPlan(Bad, M.Program, Diags));
  EXPECT_TRUE(Diags.hasFinding("plan.pass.invalid-stage"));
}

//===----------------------------------------------------------------------===//
// Combined suite
//===----------------------------------------------------------------------===//

TEST(LintSuite, ShippedMpdataApplicationIsClean) {
  MpdataProgram M = buildMpdataProgram();
  MachineModel Machine = makeToyMachine();
  Box3 Target = Box3::fromExtents(48, 24, 8);

  KernelTable Ref = buildMpdataKernels(KernelVariant::Reference);
  KernelTable Opt = buildMpdataKernels(KernelVariant::Optimized);
  KernelTable Simd = buildMpdataKernels(KernelVariant::Simd);

  std::vector<ExecutionPlan> Plans;
  Plans.reserve(3);
  std::vector<LintPlanSet> PlanSets;
  for (auto [Label, Strat] :
       {std::pair<const char *, Strategy>{"original", Strategy::Original},
        {"31d", Strategy::Block31D},
        {"islands", Strategy::IslandsOfCores}}) {
    PlanConfig Config;
    Config.Strat = Strat;
    Config.Sockets = 2;
    Plans.push_back(buildPlan(M.Program, Target, Machine, Config));
    PlanSets.push_back({Label, &Plans.back()});
  }

  DiagnosticEngine Diags;
  EXPECT_TRUE(runLintSuite(M.Program,
                           {{"ref", &Ref}, {"opt", &Opt}, {"simd", &Simd}},
                           PlanSets, Diags));
  std::string Buf;
  StringOStream OS(Buf);
  Diags.printText(OS);
  EXPECT_EQ(Diags.numFindings(), 0u) << Buf;
}

TEST(LintSuite, TagsPlanFindingsWithThePlanLabel) {
  MpdataProgram M = buildMpdataProgram();
  MachineModel Machine = makeToyMachine();
  Box3 Target = Box3::fromExtents(48, 24, 8);
  PlanConfig Config;
  Config.Strat = Strategy::Original;
  Config.Sockets = 1;
  ExecutionPlan Plan = buildPlan(M.Program, Target, Machine, Config);
  Plan.Islands[0].Blocks[0].Passes[0].Region = Target.grownAll(10);

  DiagnosticEngine Diags;
  LintSuiteOptions Opts;
  Opts.RunAccessAudit = false; // Plan checks only.
  EXPECT_FALSE(
      runLintSuite(M.Program, {}, {{"seeded", &Plan}}, Diags, Opts));
  ASSERT_GE(Diags.numFindings(), 1u);
  bool Tagged = false;
  for (const Finding &F : Diags.findings())
    for (const auto &Note : F.Notes)
      if (Note.first == "plan" && Note.second == "seeded")
        Tagged = true;
  EXPECT_TRUE(Tagged);
}

TEST(LintSuite, TemporalJsonGoldenFile) {
  // Byte-stable icores.lint.v1 snapshot of a seeded-defect temporal
  // (T=4) plan: the flux->upwind barriers are dropped at the first and
  // last fused step of island 0, putting 'flux1' (whose output 'f1' the
  // i-split teams read at offset [0,1] along i) in one barrier-free
  // epoch with 'upwind' — a race at step 0 and step 3, with ids carrying
  // the .step<k> suffix. Set ICORES_UPDATE_GOLDEN=1 to regenerate the
  // fixture after an intentional format change.
  MpdataProgram M = buildMpdataProgram();
  MachineModel Machine = makeToyMachine();
  Box3 Target = Box3::fromExtents(48, 32, 32);
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = 2;
  Config.TemporalDepth = 4;
  ExecutionPlan Plan = buildPlan(M.Program, Target, Machine, Config);
  ASSERT_EQ(Plan.TemporalDepth, 4);
  ASSERT_EQ(Plan.Islands[0].Blocks.front().StepInEpoch, 0);
  ASSERT_EQ(Plan.Islands[0].Blocks.back().StepInEpoch, 3);
  for (size_t P = 0; P != 3; ++P) {
    Plan.Islands[0].Blocks.front().Passes[P].BarrierAfter = false;
    Plan.Islands[0].Blocks.back().Passes[P].BarrierAfter = false;
  }

  DiagnosticEngine Diags;
  LintSuiteOptions Opts;
  Opts.RunAccessAudit = false; // Plan checks only: keep the fixture small.
  EXPECT_FALSE(
      runLintSuite(M.Program, {}, {{"islands-T4", &Plan}}, Diags, Opts));
  EXPECT_TRUE(Diags.hasFinding("race.intra.read-write.step0"));
  EXPECT_TRUE(Diags.hasFinding("race.intra.read-write.step3"));
  std::string Buf;
  StringOStream OS(Buf);
  Diags.printJson(OS);

  std::string Path = std::string(ICORES_TEST_DATA_DIR) +
                     "/golden/lint_temporal.v1.json";
  if (std::getenv("ICORES_UPDATE_GOLDEN")) {
    std::FILE *F = std::fopen(Path.c_str(), "wb");
    ASSERT_NE(F, nullptr) << "cannot write golden file " << Path;
    std::fwrite(Buf.data(), 1, Buf.size(), F);
    std::fclose(F);
    return;
  }
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(F, nullptr) << "missing golden file " << Path;
  std::string Golden;
  char Chunk[4096];
  for (size_t N; (N = std::fread(Chunk, 1, sizeof(Chunk), F)) > 0;)
    Golden.append(Chunk, N);
  std::fclose(F);
  EXPECT_EQ(Buf, Golden)
      << "temporal icores.lint.v1 output drifted from the golden file; "
         "rerun with ICORES_UPDATE_GOLDEN=1 if the change is intentional";
}

TEST(LintSuite, IncompleteKernelTableIsAnError) {
  MpdataProgram M = buildMpdataProgram();
  KernelTable Empty; // Covers nothing.
  DiagnosticEngine Diags;
  EXPECT_FALSE(runLintSuite(M.Program, {{"ref", &Empty}}, {}, Diags));
  EXPECT_TRUE(Diags.hasFinding("access.kernels.incomplete"));
}

} // namespace
