//===- tests/intermediate_window_test.cpp - Sliding intermediate buffers --===//
//
// The executor keeps each island-private intermediate in a buffer a few
// planes deep that slides along dim 0 (exec/IntermediateWindows.h). These
// tests pin the three things that makes true:
//
//  - the schedule: for every registered workload, strategy shape and
//    temporal depth, every intermediate read and write lies inside the
//    live window of its block, and a plane-level replay of the buffers
//    (slides included) finds every read plane holding the value its step
//    wrote;
//  - the footprint: an islands plan's owned intermediate bytes do not grow
//    with the part's dim-0 extent;
//  - the execution: runs that slide are bit-exact against the serial
//    stepper with stealing on, chaos armed and elision on and off, and
//    execute clean under the shadow race detector.
//
//===----------------------------------------------------------------------===//

#include "TestMatrix.h"

#include "apps/Workloads.h"
#include "exec/IntermediateWindows.h"
#include "fault/FaultInjector.h"
#include "support/Diagnostics.h"
#include "verify/ShadowStore.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

using namespace icores;

namespace {

/// Long enough in dim 0 that every registered workload's 1D islands plans
/// slide at the depths run here.
Domain slidingDomain(const WorkloadSpec &Spec) {
  return workloadDomain(Spec, 96, 32, 16);
}

/// The (plan-only) schedule sweep's domain: its larger cross-section thins
/// the blocks, so every shape and depth slides.
Domain sweepDomain(const WorkloadSpec &Spec) {
  return workloadDomain(Spec, 128, 64, 32);
}

/// The plan shapes that block: (3+1)D, 1D islands and a 2 x 2 island grid.
enum class Shape { Block31D, Islands1D, Islands2D };

const char *shapeName(Shape S) {
  switch (S) {
  case Shape::Block31D:
    return "block31d";
  case Shape::Islands1D:
    return "islands1d";
  case Shape::Islands2D:
    return "islands2d";
  }
  return "?";
}

ExecutionPlan makeShapePlan(const StencilProgram &Program, const Domain &Dom,
                            Shape S, int Depth, bool Elide = false) {
  if (S != Shape::Islands2D)
    return makeTestPlan(Program, Dom,
                        S == Shape::Block31D ? Strategy::Block31D
                                             : Strategy::IslandsOfCores,
                        Depth, Elide);
  MachineModel Machine = makeToyMachine();
  Machine.NumSockets = 4;
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = 4;
  Config.GridPartsI = 2;
  Config.GridPartsJ = 2;
  Config.TemporalDepth = Depth;
  ExecutionPlan Plan = buildPlan(Program, Dom.coreBox(), Machine, Config);
  if (Elide)
    optimizeBarriers(Program, Plan);
  return Plan;
}

/// Replays two epochs of \p Island's blocks against a plane-level model of
/// its intermediate buffers: every slot remembers which (epoch, step,
/// plane) value it holds, slides move slots exactly as SlideMove says, and
/// every read must find the value its own step wrote at the slot its
/// logical plane maps to. Adds the number of slides replayed to
/// \p Slides.
void replayIsland(const StencilProgram &Program, const IslandPlan &Island,
                  const std::string &Case, size_t &Slides) {
  const IslandWindows W = planIslandWindows(Program, Island);
  const std::vector<std::vector<PlaneRange>> Live =
      liveWindows(Program, Island);
  struct Held {
    int Step = -1; ///< Epoch-qualified fused step, -1 when nothing useful.
    int Plane = 0;
    bool operator==(const Held &O) const {
      return Step == O.Step && Plane == O.Plane;
    }
  };
  struct Buffer {
    int Base = 0;
    std::vector<Held> Slots;
  };
  std::vector<Buffer> Bufs(Program.numArrays());
  for (unsigned A = 0; A != Program.numArrays(); ++A)
    Bufs[A].Slots.resize(static_cast<size_t>(W.Buffers[A].extent(0)));

  for (int Epoch = 0; Epoch != 2; ++Epoch) {
    for (unsigned A = 0; A != Program.numArrays(); ++A)
      Bufs[A].Base = W.Buffers[A].Lo[0];
    size_t Next = 0;
    for (size_t B = 0; B != Island.Blocks.size(); ++B) {
      const BlockTask &Block = Island.Blocks[B];
      const int Step = Epoch * 1000 + Block.StepInEpoch;
      if (Next != W.SlideBlocks.size() &&
          W.SlideBlocks[Next] == static_cast<int>(B)) {
        for (size_t S = 0; S != W.Sliding.size(); ++S) {
          const SlideMove &M = W.move(Next, S);
          Buffer &Buf = Bufs[static_cast<size_t>(W.Sliding[S])];
          if (M.Count > 0) {
            EXPECT_LT(M.To, M.From) << Case;
            EXPECT_LE(M.From + M.Count, static_cast<int>(Buf.Slots.size()))
                << Case;
          }
          for (int P = 0; P != M.Count; ++P)
            Buf.Slots[static_cast<size_t>(M.To + P)] =
                Buf.Slots[static_cast<size_t>(M.From + P)];
          Buf.Base = M.NewBase;
        }
        ++Next;
        ++Slides;
      }
      // Every live window fits the buffer it is live in.
      for (unsigned A = 0; A != Program.numArrays(); ++A) {
        const PlaneRange &Win = Live[B][A];
        if (Win.empty())
          continue;
        EXPECT_GE(Win.Lo, Bufs[A].Base) << Case << " block " << B;
        EXPECT_LE(Win.Hi, Bufs[A].Base + static_cast<int>(Bufs[A].Slots.size()))
            << Case << " block " << B;
      }
      auto slotOf = [&](ArrayId Id, int Plane) -> Held * {
        Buffer &Buf = Bufs[static_cast<size_t>(Id)];
        int Slot = Plane - Buf.Base;
        if (Slot < 0 || Slot >= static_cast<int>(Buf.Slots.size()))
          return nullptr;
        return &Buf.Slots[static_cast<size_t>(Slot)];
      };
      for (const StagePass &Pass : Block.Passes) {
        if (Pass.Region.empty())
          continue;
        const StageDef &Stage = Program.stage(Pass.Stage);
        for (const StageInput &In : Stage.Inputs) {
          if (Program.array(In.Array).Role != ArrayRole::Intermediate)
            continue;
          const Box3 Read = In.readRegion(Pass.Region);
          const PlaneRange &Win = Live[B][static_cast<size_t>(In.Array)];
          const std::string Where = Case + " block " + std::to_string(B) +
                                    " reads " +
                                    Program.array(In.Array).Name;
          EXPECT_TRUE(Win.Lo <= Read.Lo[0] && Read.Hi[0] <= Win.Hi) << Where;
          Box3 Cross = W.Buffers[static_cast<size_t>(In.Array)];
          Cross.Lo[0] = Read.Lo[0];
          Cross.Hi[0] = Read.Hi[0];
          EXPECT_TRUE(Cross.containsBox(Read)) << Where;
          for (int Plane = Read.Lo[0]; Plane != Read.Hi[0]; ++Plane) {
            Held *H = slotOf(In.Array, Plane);
            ASSERT_NE(H, nullptr) << Where << " plane " << Plane;
            EXPECT_EQ(*H, (Held{Step, Plane})) << Where << " plane " << Plane;
          }
        }
        for (ArrayId Out : Stage.Outputs) {
          if (Program.array(Out).Role != ArrayRole::Intermediate)
            continue;
          const PlaneRange &Win = Live[B][static_cast<size_t>(Out)];
          const std::string Where = Case + " block " + std::to_string(B) +
                                    " writes " + Program.array(Out).Name;
          EXPECT_TRUE(Win.Lo <= Pass.Region.Lo[0] &&
                      Pass.Region.Hi[0] <= Win.Hi)
              << Where;
          for (int Plane = Pass.Region.Lo[0]; Plane != Pass.Region.Hi[0];
               ++Plane) {
            Held *H = slotOf(Out, Plane);
            ASSERT_NE(H, nullptr) << Where << " plane " << Plane;
            *H = Held{Step, Plane};
          }
        }
      }
    }
  }
}

class IntermediateWindows
    : public ::testing::TestWithParam<std::string> {
protected:
  const WorkloadSpec &spec() const {
    return *builtinWorkloads().find(GetParam());
  }
};

} // namespace

TEST_P(IntermediateWindows, EveryAccessLiesInsideItsLiveWindow) {
  const WorkloadSpec &Spec = spec();
  const Domain Dom = sweepDomain(Spec);
  for (Shape S : {Shape::Block31D, Shape::Islands1D, Shape::Islands2D})
    for (int T : {1, 2, 4}) {
      ExecutionPlan Plan = makeShapePlan(Spec.Program, Dom, S, T);
      size_t Slides = 0;
      for (size_t I = 0; I != Plan.Islands.size(); ++I)
        replayIsland(Spec.Program, Plan.Islands[I],
                     std::string(shapeName(S)) + " T=" + std::to_string(T) +
                         " island " + std::to_string(I),
                     Slides);
      EXPECT_GT(Slides, 0u) << shapeName(S) << " T=" << T
                            << ": the sweep must exercise slides";
    }
}

TEST_P(IntermediateWindows, OriginalPlansKeepTheFullLayout) {
  // One block per step: the window is the whole union, so nothing slides
  // and every intermediate is allocated exactly as before windowing.
  const WorkloadSpec &Spec = spec();
  const Domain Dom = sweepDomain(Spec);
  for (int T : {1, 2}) {
    ExecutionPlan Plan = makeTestPlan(Spec.Program, Dom, Strategy::Original, T);
    for (const IslandPlan &Island : Plan.Islands) {
      IslandWindows W = planIslandWindows(Spec.Program, Island);
      EXPECT_TRUE(W.Sliding.empty()) << "T=" << T;
      EXPECT_TRUE(W.SlideBlocks.empty()) << "T=" << T;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, IntermediateWindows,
    ::testing::ValuesIn(builtinWorkloads().names()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      std::string Name = Info.param;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

TEST(IntermediateWindowSchedule, UnservableHandBuiltPlanKeepsTheFullLayout) {
  // A hand-built plan whose second block writes below a plane that is
  // still live: the slide would have to move data towards the buffer end,
  // which the ascending copy cannot do, so the planner keeps the union.
  StencilProgram P;
  ArrayId In = P.addArray("in", ArrayRole::StepInput);
  ArrayId T = P.addArray("t", ArrayRole::Intermediate);
  ArrayId Out = P.addArray("out", ArrayRole::StepOutput);
  StageDef Produce;
  Produce.Name = "produce";
  Produce.Outputs = {T};
  Produce.Inputs = {StageInput::center(In)};
  StageId A = P.addStage(Produce);
  StageDef Consume;
  Consume.Name = "consume";
  Consume.Outputs = {Out};
  Consume.Inputs = {StageInput::center(T)};
  StageId B = P.addStage(Consume);
  auto planes = [](int Lo, int Hi) { return Box3(Lo, 0, 0, Hi, 4, 4); };
  IslandPlan Island;
  Island.Blocks.resize(3);
  Island.Blocks[0].Passes = {{A, planes(10, 11)}};
  Island.Blocks[1].Passes = {{A, planes(0, 1)}, {B, planes(10, 11)}};
  Island.Blocks[2].Passes = {{A, planes(30, 31)}, {B, planes(30, 31)}};
  IslandWindows W = planIslandWindows(P, Island);
  EXPECT_TRUE(W.Sliding.empty());
  EXPECT_TRUE(W.SlideBlocks.empty());
  EXPECT_EQ(W.Buffers[static_cast<size_t>(T)], planes(0, 31));
  // Moving the stray write above the live plane makes the plan servable.
  Island.Blocks[1].Passes[0].Region = planes(11, 12);
  W = planIslandWindows(P, Island);
  ASSERT_EQ(W.Sliding, std::vector<ArrayId>{T});
  EXPECT_FALSE(W.SlideBlocks.empty());
}

TEST(IntermediateWindowFootprint, OwnedBytesDoNotGrowWithThePartLength) {
  const WorkloadSpec &Spec = *builtinWorkloads().find("mpdata");
  auto ownedPerIsland = [&](int NI) {
    Domain Dom = workloadDomain(Spec, NI, 32, 16);
    auto Exec = makeWorkloadExecutor(
        Spec, Dom, makeTestPlan(Spec.Program, Dom, Strategy::IslandsOfCores));
    std::vector<int64_t> Bytes;
    for (size_t I = 0; I != Exec->plan().Islands.size(); ++I) {
      EXPECT_FALSE(Exec->intermediateWindows(I).SlideBlocks.empty());
      Bytes.push_back(Exec->islandStore(I).ownedBytes());
    }
    return Bytes;
  };
  std::vector<int64_t> Short = ownedPerIsland(64);
  std::vector<int64_t> Long = ownedPerIsland(128);
  ASSERT_EQ(Short.size(), 2u);
  EXPECT_EQ(Short, Long);
  EXPECT_GT(Short[0], 0);
}

TEST(IntermediateWindowExecution, SlidingRunsMatchTheSerialStepper) {
  constexpr int Steps = 4;
  constexpr uint64_t Seed = 11;
  for (const std::string &Name : builtinWorkloads().names()) {
    const WorkloadSpec &Spec = *builtinWorkloads().find(Name);
    const Domain Dom = slidingDomain(Spec);
    auto Oracle = serialOracle(Spec, Dom, Steps, Seed);
    for (int T : {1, 2})
      for (bool Elide : {false, true}) {
        const std::string Case = Name + " T=" + std::to_string(T) +
                                 " elide=" + std::to_string(Elide);
        FaultPlan FP;
        FP.Seed = 0xD1CEu + static_cast<uint64_t>(T);
        FP.StallRate = 0.1;
        FP.WakeRate = 0.2;
        FP.MaxStallSeconds = 1e-4;
        FaultInjector Injector(FP);
        ExecutorOptions Opts;
        Opts.Stealing = true;
        Opts.Chaos = &Injector;
        auto Exec = makeWorkloadExecutor(
            Spec, Dom,
            makeShapePlan(Spec.Program, Dom, Shape::Islands1D, T, Elide),
            KernelVariant::Reference, Opts, Seed);
        size_t Slides = 0;
        for (size_t I = 0; I != Exec->plan().Islands.size(); ++I)
          Slides += Exec->intermediateWindows(I).SlideBlocks.size();
        ASSERT_GT(Slides, 0u) << Case;
        Exec->run(Steps);
        EXPECT_EQ(maxNewestStateDiff(Spec.Program, *Exec, *Oracle,
                                     Dom.coreBox()),
                  0.0)
            << Case;
        EXPECT_TRUE(reductionHistoriesMatch(Spec.Program, *Exec, *Oracle))
            << Case;
      }
  }
}

TEST(IntermediateWindowExecution, SlidingRunsExecuteShadowClean) {
  // The slide copies and rebases run under the race detector: every copy
  // is recorded as reads of its source slots and writes of its
  // destination slots, and passes are keyed by the slots their logical
  // cells map to after each rebase.
  const WorkloadSpec &Spec = *builtinWorkloads().find("mpdata");
  const Domain Dom = workloadDomain(Spec, 48, 16, 8);
  for (int T : {1, 2})
    for (bool Elide : {false, true}) {
      ShadowStore Shadow;
      ExecutorOptions Opts;
      Opts.Observer = &Shadow;
      auto Exec = makeWorkloadExecutor(
          Spec, Dom,
          makeTestPlan(Spec.Program, Dom, Strategy::IslandsOfCores, T, Elide),
          KernelVariant::Reference, Opts);
      ASSERT_FALSE(Exec->intermediateWindows(0).SlideBlocks.empty());
      Exec->run(2 * T);
      EXPECT_GT(Shadow.accessCount(), 0u);
      DiagnosticEngine Diags;
      Shadow.reportFindings(Diags);
      EXPECT_TRUE(Shadow.clean())
          << "T=" << T << " elide=" << Elide << ": "
          << Diags.firstErrorMessage();
    }
}
