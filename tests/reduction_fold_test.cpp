//===- tests/reduction_fold_test.cpp - Per-worker reduction folds ---------===//
//
// Directed regressions for the executor's thread-local reduction folds.
// Every worker folds only the cells it just computed into its own
// partial, so a pass producing a reduced array needs no trailing barrier
// of its own. A two-stage program whose reduced pass is followed by a
// conflict-free pass pins the consequences: the barrier-elision optimizer
// drops that barrier, the race check accepts the elided schedule, and the
// executor reproduces the serial stepper bit for bit — state and
// reduction history — across team widths (one of them wider than the
// split extent, so some workers fold nothing and contribute their
// identity partial), stealing on and off, and temporal depths 1 and 2.
//
//===----------------------------------------------------------------------===//

#include "core/PlanBuilder.h"
#include "core/ScheduleOptimizer.h"
#include "exec/ProgramExecutor.h"
#include "exec/RegionSplit.h"
#include "exec/ScheduleCheck.h"
#include "machine/MachineModel.h"
#include "stencil/SerialStepper.h"
#include "support/Diagnostics.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

using namespace icores;

namespace {

/// measure: peak <- in * in (a reduced step output no stage reads);
/// advance: out <- 0.75 * in + 0.125, fed back into in. Both read `in` at
/// the centre only, so the two passes never conflict across threads.
struct FoldApp {
  StencilProgram Program;
  ArrayId In = 0, Peak = 0, Out = 0;
  StageId Measure = 0, Advance = 0;
};

FoldApp makeFoldApp() {
  FoldApp A;
  A.In = A.Program.addArray("in", ArrayRole::StepInput);
  A.Peak = A.Program.addArray("peak", ArrayRole::StepOutput);
  A.Out = A.Program.addArray("out", ArrayRole::StepOutput);
  StageDef Measure;
  Measure.Name = "measure";
  Measure.Outputs = {A.Peak};
  Measure.Inputs = {StageInput::center(A.In)};
  Measure.FlopsPerPoint = 1;
  A.Measure = A.Program.addStage(Measure);
  StageDef Advance;
  Advance.Name = "advance";
  Advance.Outputs = {A.Out};
  Advance.Inputs = {StageInput::center(A.In)};
  Advance.FlopsPerPoint = 2;
  A.Advance = A.Program.addStage(Advance);
  A.Program.addFeedback(A.Out, A.In);
  A.Program.addReduction({"peak", A.Peak});
  return A;
}

KernelTable makeFoldKernels(const FoldApp &A) {
  KernelTable T(A.Program.numStages());
  auto pointwise = [](ArrayId Src, ArrayId Dst, auto Fn) {
    return [=](FieldStore &F, const Box3 &R) {
      const Array3D &In = F.get(Src);
      Array3D &Out = F.get(Dst);
      for (int I = R.Lo[0]; I < R.Hi[0]; ++I)
        for (int J = R.Lo[1]; J < R.Hi[1]; ++J)
          for (int K = R.Lo[2]; K < R.Hi[2]; ++K)
            Out.at(I, J, K) = Fn(In.at(I, J, K));
    };
  };
  T.set(A.Measure, pointwise(A.In, A.Peak, [](double V) { return V * V; }));
  T.set(A.Advance,
        pointwise(A.In, A.Out, [](double V) { return 0.75 * V + 0.125; }));
  return T;
}

std::vector<ReductionBinding> peakBinding() {
  return {{"peak", [](double Acc, double V) { return std::max(Acc, V); },
           -std::numeric_limits<double>::infinity()}};
}

/// Fills the core of `in` from a fixed stream and refreshes the halos.
template <typename Runner> void seedFoldApp(const FoldApp &A, Runner &R) {
  const Box3 Core = R.domain().coreBox();
  SplitMix64 Rng(0x5EEDu);
  Array3D &In = R.array(A.In);
  for (int I = Core.Lo[0]; I != Core.Hi[0]; ++I)
    for (int J = Core.Lo[1]; J != Core.Hi[1]; ++J)
      for (int K = Core.Lo[2]; K != Core.Hi[2]; ++K)
        In.at(I, J, K) = Rng.nextInRange(-1.0, 1.0);
  R.prepareInputs();
}

/// One team of \p Team threads over the whole domain (the original
/// strategy on a one-socket machine with \p Team cores).
ExecutionPlan makeTeamPlan(const FoldApp &A, const Domain &Dom, int Team,
                           int Depth) {
  MachineModel Machine = makeToyMachine();
  Machine.NumSockets = 1;
  Machine.CoresPerSocket = Team;
  PlanConfig Config;
  Config.Strat = Strategy::Original;
  Config.Sockets = 1;
  Config.TemporalDepth = Depth;
  return buildPlan(A.Program, Dom.coreBox(), Machine, Config);
}

constexpr int Teams[] = {1, 2, 4};
constexpr int Depths[] = {1, 2};

} // namespace

TEST(ReductionFoldTest, OptimizerElidesTheReducedPassBarrier) {
  FoldApp A = makeFoldApp();
  Domain Dom(12, 10, 6, 1);
  for (int Team : Teams)
    for (int Depth : Depths) {
      ExecutionPlan Plan = makeTeamPlan(A, Dom, Team, Depth);
      optimizeBarriers(A.Program, Plan);
      int MeasurePasses = 0;
      for (const IslandPlan &Island : Plan.Islands)
        for (const BlockTask &Block : Island.Blocks)
          for (const StagePass &Pass : Block.Passes)
            if (Pass.Stage == A.Measure && !Pass.Region.empty()) {
              ++MeasurePasses;
              EXPECT_FALSE(Pass.BarrierAfter)
                  << "team=" << Team << " T=" << Depth;
            }
      EXPECT_EQ(MeasurePasses, Depth);
      DiagnosticEngine Diags;
      EXPECT_TRUE(checkScheduleRaces(A.Program, buildIslandSchedules(Plan),
                                     Diags));
      EXPECT_EQ(Diags.numFindings(), 0u) << Diags.firstErrorMessage();
    }
}

TEST(ReductionFoldTest, ElidedReducedPassMatchesTheSerialStepper) {
  constexpr int Steps = 4;
  FoldApp A = makeFoldApp();
  // The 3 x 2 x 4 domain splits along i into 3 planes, so the team of 4
  // has a worker with an empty sub-region (and empty steal chunks).
  const Domain Narrow(3, 2, 4, 1);
  ASSERT_TRUE(teamSubRegion(Narrow.coreBox(), 3, 4).empty());
  for (const Domain &Dom : {Narrow, Domain(12, 10, 6, 1)}) {
    SerialStepper Oracle(A.Program, makeFoldKernels(A), Dom, peakBinding());
    seedFoldApp(A, Oracle);
    Oracle.run(Steps);
    for (int Team : Teams)
      for (int Depth : Depths)
        for (bool Stealing : {false, true})
          for (bool Elide : {false, true}) {
            // Elided: the measure barrier is cleared by hand, exactly the
            // schedule the optimizer now emits. Lockstep: both passes are
            // barrier-bracketed, so stealing dices and folds both.
            ExecutionPlan Plan = makeTeamPlan(A, Dom, Team, Depth);
            if (Elide)
              for (IslandPlan &Island : Plan.Islands)
                for (BlockTask &Block : Island.Blocks)
                  for (StagePass &Pass : Block.Passes)
                    if (Pass.Stage == A.Measure)
                      Pass.BarrierAfter = false;
            std::string Case = "domain=" + Dom.coreBox().str() +
                               " team=" + std::to_string(Team) +
                               " T=" + std::to_string(Depth) +
                               " stealing=" + std::to_string(Stealing) +
                               " elide=" + std::to_string(Elide);
            DiagnosticEngine Diags;
            EXPECT_TRUE(checkPlanRaces(A.Program, Plan, Diags))
                << Case << ": " << Diags.firstErrorMessage();

            ExecutorOptions Opts;
            Opts.Stealing = Stealing;
            Opts.Reductions = peakBinding();
            ProgramExecutor Exec(A.Program, makeFoldKernels(A), Dom,
                                 std::move(Plan), Opts);
            seedFoldApp(A, Exec);
            Exec.run(Steps);
            for (ArrayId Id : {A.In, A.Peak})
              EXPECT_EQ(Exec.array(Id).maxAbsDiff(Oracle.array(Id),
                                                  Dom.coreBox()),
                        0.0)
                  << Case << " array " << A.Program.array(Id).Name;
            EXPECT_EQ(Exec.reductionHistory(0), Oracle.reductionHistory(0))
                << Case;
          }
  }
}
