//===- tests/shadow_store_test.cpp - Dynamic shadow race detection --------===//
//
// The shadow race detector, both directions: seeded unordered access
// patterns driven through the direct-drive interface must be flagged
// (single-threaded on purpose — these replay *defective* schedules, which
// must never run as real races under the TSan job), and every execution
// the static ScheduleCheck certifies race-free — all strategies, temporal
// depths 1/2/4, stock and elided — must run clean under the observer
// hooks with the real threaded executor.
//
//===----------------------------------------------------------------------===//

#include "core/PlanBuilder.h"
#include "core/ScheduleOptimizer.h"
#include "exec/ProgramExecutor.h"
#include "exec/RegionSplit.h"
#include "exec/ScheduleCheck.h"
#include "machine/MachineModel.h"
#include "mpdata/InitialConditions.h"
#include "mpdata/Kernels.h"
#include "mpdata/MpdataProgram.h"
#include "support/Diagnostics.h"
#include "support/Random.h"
#include "verify/Mutator.h"
#include "verify/ShadowStore.h"
#include "verify/VectorClock.h"

#include <gtest/gtest.h>

#include <map>

using namespace icores;

namespace {

//===----------------------------------------------------------------------===//
// Vector clocks
//===----------------------------------------------------------------------===//

TEST(VectorClockTest, CoversMergeAndTick) {
  VectorClock A, B;
  A.set(0, 3);
  B.set(1, 2);
  EXPECT_TRUE(A.covers(0, 3));
  EXPECT_FALSE(A.covers(0, 4));
  EXPECT_FALSE(A.covers(1, 1));
  A.merge(B);
  EXPECT_TRUE(A.covers(0, 3));
  EXPECT_TRUE(A.covers(1, 2));
  A.tick(0);
  EXPECT_TRUE(A.covers(0, 4));
  // merge() keeps per-component maxima.
  VectorClock C;
  C.set(0, 10);
  A.merge(C);
  EXPECT_TRUE(A.covers(0, 10));
  EXPECT_TRUE(A.covers(1, 2));
}

//===----------------------------------------------------------------------===//
// Direct-drive seeded positives (single-threaded replays of bad schedules)
//===----------------------------------------------------------------------===//

/// Replays a barrier crossing for workers [0, N) at \p Site.
void crossBarrier(ShadowStore &Shadow, uint64_t Site, int N) {
  for (int W = 0; W != N; ++W)
    Shadow.onBarrierArrive(Site, W, N);
  for (int W = 0; W != N; ++W)
    Shadow.onBarrierDepart(Site, W);
}

TEST(ShadowStoreTest, UnorderedOverlappingWritesAreAWriteWriteRace) {
  Array3D A(Box3::fromExtents(16, 8, 4));
  ShadowStore Shadow;
  Shadow.recordWrite(0, A, Box3::fromExtents(10, 8, 4), "a");
  Shadow.recordWrite(1, A, Box3(6, 0, 0, 16, 8, 4), "a");
  EXPECT_GT(Shadow.raceCount(), 0u);
  DiagnosticEngine Diags;
  Shadow.reportFindings(Diags);
  EXPECT_TRUE(Diags.hasFinding("shadow.race.write-write"));
}

TEST(ShadowStoreTest, BarrierOrdersTheSameWrites) {
  Array3D A(Box3::fromExtents(16, 8, 4));
  ShadowStore Shadow;
  Shadow.recordWrite(0, A, Box3::fromExtents(10, 8, 4), "a");
  crossBarrier(Shadow, 1, 2);
  Shadow.recordWrite(1, A, Box3(6, 0, 0, 16, 8, 4), "a");
  EXPECT_TRUE(Shadow.clean());
  EXPECT_GT(Shadow.accessCount(), 0u);
}

TEST(ShadowStoreTest, UnorderedReadOfAForeignWriteIsAReadWriteRace) {
  Array3D A(Box3::fromExtents(16, 8, 4));
  ShadowStore Shadow;
  Shadow.recordWrite(0, A, Box3::fromExtents(8, 8, 4), "a");
  Shadow.recordRead(1, A, Box3(7, 0, 0, 9, 8, 4), "a");
  EXPECT_EQ(Shadow.raceCount(), 1u * 8 * 4); // The overlapping i=7 plane.
  DiagnosticEngine Diags;
  Shadow.reportFindings(Diags);
  EXPECT_TRUE(Diags.hasFinding("shadow.race.read-write"));
}

TEST(ShadowStoreTest, WriteAfterUnorderedReadIsARace) {
  // The dual direction: worker 1 already read the cells, worker 0's write
  // lands with no barrier in between — the read map must catch it even
  // though the last *writer* is worker 0 itself.
  Array3D A(Box3::fromExtents(8, 4, 2));
  ShadowStore Shadow;
  Shadow.recordWrite(0, A, Box3::fromExtents(8, 4, 2), "a");
  crossBarrier(Shadow, 1, 2);
  Shadow.recordRead(1, A, Box3::fromExtents(8, 4, 2), "a");
  Shadow.recordWrite(0, A, Box3::fromExtents(4, 4, 2), "a");
  EXPECT_GT(Shadow.raceCount(), 0u);
  DiagnosticEngine Diags;
  Shadow.reportFindings(Diags);
  EXPECT_TRUE(Diags.hasFinding("shadow.race.read-write"));
}

TEST(ShadowStoreTest, DistinctArraysNeverCollide) {
  Array3D A(Box3::fromExtents(8, 4, 2)), B(Box3::fromExtents(8, 4, 2));
  ShadowStore Shadow;
  Shadow.recordWrite(0, A, Box3::fromExtents(8, 4, 2), "a");
  Shadow.recordWrite(1, B, Box3::fromExtents(8, 4, 2), "b");
  EXPECT_TRUE(Shadow.clean());
}

TEST(ShadowStoreTest, BarrierGenerationsSurviveReuse) {
  // Three crossings of the same site; accesses between consecutive
  // crossings are ordered, accesses spanning none are not.
  Array3D A(Box3::fromExtents(4, 4, 4));
  ShadowStore Shadow;
  for (int Round = 0; Round != 3; ++Round) {
    Shadow.recordWrite(Round % 2, A, Box3::fromExtents(4, 4, 4), "a");
    crossBarrier(Shadow, 7, 2);
  }
  EXPECT_TRUE(Shadow.clean());
  Shadow.clear();
  EXPECT_EQ(Shadow.accessCount(), 0u);
}

TEST(ShadowStoreTest, WitnessStorageIsCappedButCountingIsNot) {
  ShadowStore::Options Opts;
  Opts.MaxWitnesses = 2;
  ShadowStore Shadow(Opts);
  Array3D A(Box3::fromExtents(8, 8, 8));
  Shadow.recordWrite(0, A, Box3::fromExtents(8, 8, 8), "a");
  Shadow.recordWrite(1, A, Box3::fromExtents(8, 8, 8), "a");
  EXPECT_EQ(Shadow.raceCount(), 8u * 8 * 8);
  DiagnosticEngine Diags;
  Shadow.reportFindings(Diags);
  EXPECT_EQ(Diags.numErrors(), 2u);
  EXPECT_TRUE(Diags.hasFinding("shadow.race.truncated"));
}

TEST(ShadowStoreTest, SlideCopyWithoutItsTrailingBarrierIsARace) {
  // Two workers slide a 4-plane buffer by two planes, each copying its
  // half of the rows of planes 2..3 to planes 0..1; worker 0 then rebases
  // the index space and worker 1 reads the moved planes. Only the barrier
  // after the slide orders that read after worker 0's half of the copy
  // and after the rebase.
  auto replay = [](bool TrailingBarrier) {
    Array3D A(Box3::fromExtents(4, 4, 2), Array3D::VectorPadK);
    ShadowStore Shadow;
    Shadow.recordWrite(0, A, Box3::fromExtents(4, 4, 2), "a");
    crossBarrier(Shadow, 1, 2);
    Shadow.onSlide(0, A, SlideShare{2, 0, 2, 0, 2, /*Rebases=*/true});
    Shadow.onSlide(1, A, SlideShare{2, 0, 2, 2, 4, /*Rebases=*/false});
    A.rebasePlanes(2);
    if (TrailingBarrier)
      crossBarrier(Shadow, 1, 2);
    Shadow.recordRead(1, A, Box3(2, 0, 0, 4, 4, 2), "a");
    DiagnosticEngine Diags;
    Shadow.reportFindings(Diags);
    EXPECT_EQ(Diags.hasFinding("shadow.race.read-write"), !TrailingBarrier);
    EXPECT_EQ(Diags.hasFinding("shadow.race.rebase"), !TrailingBarrier);
    return Shadow.raceCount();
  };
  EXPECT_EQ(replay(true), 0u);
  // Worker 0 copied rows 0..1 of planes 0..1 (2 planes x 2 rows x 2
  // cells), plus the unordered rebase.
  EXPECT_EQ(replay(false), 2u * 2 * 2 + 1);
}

TEST(ShadowStoreTest, HaloFillWithoutItsTrailingBarrierIsARace) {
  // Worker 0 refreshes the halo slab of planes [-1, 1); worker 1 then runs
  // a pass reading plane -1, whose every cell is a halo cell worker 0
  // wrote. Only a global barrier crossing after the fill orders the read.
  auto replay = [](bool TrailingBarrier) {
    Domain Dom(4, 3, 2, 1);
    Array3D A(Dom.allocBox(), Array3D::VectorPadK);
    ShadowStore Shadow;
    Shadow.onHaloFill(0, Dom, A, -1, 1);
    if (TrailingBarrier)
      crossBarrier(Shadow, 0, 2);
    Shadow.recordRead(1, A, Box3(-1, 0, 0, 0, 3, 2), "a");
    DiagnosticEngine Diags;
    Shadow.reportFindings(Diags);
    EXPECT_EQ(Diags.hasFinding("shadow.race.read-write"), !TrailingBarrier);
    return Shadow.raceCount();
  };
  EXPECT_EQ(replay(true), 0u);
  EXPECT_EQ(replay(false), 3u * 2);
}

TEST(ShadowStoreTest, HaloFillReadsTheCoreCellOfTheDomainsBoundaryMap) {
  // Plane -1's halo copies plane NI - 1 under periodic boundaries and
  // plane 0 under zero-gradient ones: an unordered write of the copied
  // core plane races with the fill, a write of the other one does not.
  for (BoundaryMode Mode :
       {BoundaryMode::Periodic, BoundaryMode::ZeroGradient}) {
    const bool Periodic = Mode == BoundaryMode::Periodic;
    for (int Plane : {0, 3}) {
      Domain Dom(4, 3, 2, 1, Mode);
      Array3D A(Dom.allocBox());
      ShadowStore Shadow;
      Shadow.onHaloFill(0, Dom, A, -1, 0);
      Shadow.recordWrite(1, A, Box3(Plane, 0, 0, Plane + 1, 3, 2), "a");
      EXPECT_EQ(Shadow.clean(), (Plane == 3) != Periodic)
          << (Periodic ? "periodic" : "zero-gradient") << " plane "
          << Plane;
    }
  }
}

//===----------------------------------------------------------------------===//
// Mutated schedules replayed through the shadow store (still one thread)
//===----------------------------------------------------------------------===//

TEST(ShadowStoreTest, DropBarrierMutantIsCaughtInReplay) {
  // Apply the drop-barrier analysis mutation to a real islands plan, then
  // replay island 0's schedule — every thread's reads and writes under
  // the executor's teamSubRegion split, with barrier hooks only where the
  // (mutated) barrier bits say so. The dropped barrier must surface as a
  // shadow race; the unmutated replay must stay clean.
  MpdataProgram M = buildMpdataProgram();
  MachineModel Machine = makeToyMachine();
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = 2;
  ExecutionPlan Plan =
      buildPlan(M.Program, Box3::fromExtents(32, 16, 8), Machine, Config);

  auto replayIsland = [&](const ExecutionPlan &P, size_t Island) {
    ShadowStore Shadow;
    const IslandPlan &IP = P.Islands[Island];
    int N = IP.NumThreads;
    std::map<ArrayId, Array3D> Arrays;
    for (ArrayId A = 0; A != static_cast<ArrayId>(M.Program.numArrays());
         ++A)
      Arrays.emplace(A, Array3D(Box3::fromExtents(32, 16, 8).grownAll(8)));
    std::vector<IslandSchedule> Schedules = buildIslandSchedules(P);
    for (const ScheduledPass &Pass : Schedules[Island].Passes) {
      const StageDef &SD = M.Program.stage(Pass.Stage);
      for (int T = 0; T != N; ++T) {
        Box3 Sub = teamSubRegion(Pass.Region, T, N);
        if (Sub.empty())
          continue;
        for (const StageInput &In : SD.Inputs)
          Shadow.recordRead(T, Arrays.at(In.Array), In.readRegion(Sub),
                            M.Program.array(In.Array).Name);
        for (ArrayId Out : SD.Outputs)
          Shadow.recordWrite(T, Arrays.at(Out), Sub,
                             M.Program.array(Out).Name);
      }
      if (Pass.BarrierAfter)
        crossBarrier(Shadow, Island + 1, N);
    }
    return Shadow.raceCount();
  };

  EXPECT_EQ(replayIsland(Plan, 0), 0u);

  ExecutionPlan Mutant = Plan;
  SplitMix64 Rng(0xC0FFEEu);
  ASSERT_TRUE(
      applyMutation(Mutant, M.Program, MutantClass::DropBarrier, Rng));
  size_t Races = 0;
  for (size_t I = 0; I != Mutant.Islands.size(); ++I)
    Races += replayIsland(Mutant, I);
  EXPECT_GT(Races, 0u);
}

//===----------------------------------------------------------------------===//
// Real-executor cross-check: statically certified ⇒ dynamically clean
//===----------------------------------------------------------------------===//

void initMpdata(ProgramExecutor &E, const MpdataProgram &M,
                const Domain &Dom) {
  GaussianBlob Blob;
  Blob.CenterI = Dom.ni() / 3.0;
  Blob.CenterJ = Dom.nj() / 2.0;
  Blob.CenterK = Dom.nk() / 2.0;
  Blob.Sigma = 2.5;
  fillGaussian(E.array(M.XIn), Dom, Blob);
  E.array(M.U1).fill(0.25);
  E.array(M.U2).fill(-0.2);
  E.array(M.U3).fill(0.1);
  E.array(M.H).fill(1.0);
  E.prepareInputs();
}

TEST(ShadowStoreTest, CertifiedPlansExecuteCleanAcrossDepthsAndElision) {
  MpdataProgram M = buildMpdataProgram();
  Domain Dom(18, 12, 8, mpdataHaloDepth());
  MachineModel Machine = makeToyMachine();
  const int Steps = 4;
  for (Strategy Strat : {Strategy::Original, Strategy::Block31D,
                         Strategy::IslandsOfCores})
    for (int T : {1, 2, 4})
      for (bool Elide : {false, true}) {
        PlanConfig Config;
        Config.Strat = Strat;
        Config.Sockets = Strat == Strategy::Original ? 1 : 2;
        Config.TemporalDepth = T;
        ExecutionPlan Plan =
            buildPlan(M.Program, Dom.coreBox(), Machine, Config);
        if (Elide)
          optimizeBarriers(M.Program, Plan);
        // Only statically certified schedules are cross-checked: the
        // claim under test is "ScheduleCheck race-free ⇒ shadow clean".
        DiagnosticEngine Diags;
        ASSERT_TRUE(checkPlanRaces(M.Program, Plan, Diags))
            << strategyName(Strat) << " T=" << T << " elide=" << Elide;

        ShadowStore Shadow;
        ExecutorOptions Opts;
        Opts.Observer = &Shadow;
        ProgramExecutor Exec(M.Program, buildMpdataKernels(), Dom, Plan,
                             Opts);
        initMpdata(Exec, M, Dom);
        Exec.run(Steps);
        EXPECT_GT(Shadow.accessCount(), 0u)
            << "observer hooks did not fire";
        DiagnosticEngine ShadowDiags;
        Shadow.reportFindings(ShadowDiags);
        std::string Witness = ShadowDiags.firstErrorMessage();
        EXPECT_TRUE(Shadow.clean())
            << strategyName(Strat) << " T=" << T << " elide=" << Elide
            << ": " << Shadow.raceCount() << " shadow races, first: "
            << Witness;
      }
}

} // namespace
