//===- exec/ScheduleCheck.cpp - Plan schedule race analysis ---------------===//

#include "exec/ScheduleCheck.h"

#include "exec/RegionSplit.h"
#include "support/Diagnostics.h"
#include "support/Format.h"

#include <algorithm>
#include <limits>

using namespace icores;

std::vector<IslandSchedule>
icores::buildIslandSchedules(const ExecutionPlan &Plan,
                             const std::vector<EpochScript> &Scripts) {
  std::vector<IslandSchedule> Schedules(Scripts.size());
  for (size_t I = 0; I != Scripts.size(); ++I) {
    IslandSchedule &S = Schedules[I];
    S.Index = Plan.Islands[I].Index;
    S.NumThreads = std::max(1, Plan.Islands[I].NumThreads);
    S.TemporalDepth = std::max(1, Plan.TemporalDepth);
    for (const EpochOp &Op : Scripts[I].Ops) {
      if (Op.isBarrier() && !S.Passes.empty())
        S.Passes.back().BarrierAfter = true;
      else if (Op.K == EpochOp::Kind::Pass && !Op.Pass->Region.empty())
        S.Passes.push_back({Op.Stage, Op.Pass->Region,
                            /*BarrierAfter=*/false, Op.Step,
                            Op.Images ? Plan.GlobalTarget : Box3()});
    }
  }
  return Schedules;
}

namespace {

using OpKind = EpochOp::Kind;

/// Ops that touch state every island reaches: the shared arrays and the
/// run-wide reduction partials. Their fences must be global barriers (the
/// import's trailing one need only publish the island's own buffers), and
/// no two kinds of them may share a barrier interval.
bool touchesRunState(OpKind K) {
  return K == OpKind::CombineAndSwap || K == OpKind::Import;
}

} // namespace

bool icores::checkScriptFences(const std::vector<EpochScript> &Scripts,
                               DiagnosticEngine &Diags) {
  size_t ErrorsBefore = Diags.numErrors();
  for (size_t I = 0; I != Scripts.size(); ++I) {
    const std::vector<EpochOp> &Ops = Scripts[I].Ops;
    for (size_t P = 0; P != Ops.size(); ++P) {
      const OpKind K = Ops[P].K;
      if (Ops[P].isBarrier() || K == OpKind::Pass)
        continue;
      for (int Dir : {-1, 1}) {
        // Walk to the nearest barrier on this side, stopping early at an
        // op that must not run concurrently with this one.
        size_t Q = P;
        while ((Dir < 0 ? Q-- != 0 : ++Q != Ops.size()) &&
               !Ops[Q].isBarrier() && Ops[Q].K != OpKind::Pass &&
               !(Dir > 0 && touchesRunState(K) &&
                 touchesRunState(Ops[Q].K) && Ops[Q].K != K)) {
        }
        std::string Why;
        if (Q >= Ops.size())
          Why = "has no barrier";
        else if (!Ops[Q].isBarrier())
          Why = formatString("shares its barrier interval with the %s op "
                             "%zu",
                             epochOpName(Ops[Q].K), Q);
        else if (touchesRunState(K) && (Dir < 0 || K != OpKind::Import) &&
                 Ops[Q].K != OpKind::GlobalBarrier)
          Why = "has a team barrier where a global one is needed";
        else
          continue;
        const char *Side = Dir < 0 ? "before" : "after";
        Diags
            .report(Severity::Error,
                    std::string("race.script.") + epochOpName(K),
                    formatString("island %zu: the %s op %zu %s %s it", I,
                                 epochOpName(K), P, Why.c_str(), Side))
            .note("island", formatString("%zu", I))
            .note("side", Side);
      }
    }
  }
  return Diags.numErrors() == ErrorsBefore;
}

namespace {

/// Per-array read hull of a stage (several StageInputs on the same array
/// merge into one box window).
struct ReadHull {
  ArrayId Array = 0;
  std::array<int, 3> MinOff = {0, 0, 0}, MaxOff = {0, 0, 0};
};

std::vector<ReadHull> readHulls(const StageDef &S) {
  std::vector<ReadHull> Hulls;
  for (const StageInput &In : S.Inputs) {
    ReadHull *Existing = nullptr;
    for (ReadHull &H : Hulls)
      if (H.Array == In.Array)
        Existing = &H;
    if (!Existing) {
      Hulls.push_back({In.Array, In.MinOff, In.MaxOff});
      continue;
    }
    for (int D = 0; D != 3; ++D) {
      Existing->MinOff[D] = std::min(Existing->MinOff[D], In.MinOff[D]);
      Existing->MaxOff[D] = std::max(Existing->MaxOff[D], In.MaxOff[D]);
    }
  }
  return Hulls;
}

Box3 expandByWindow(const Box3 &B, const std::array<int, 3> &MinOff,
                    const std::array<int, 3> &MaxOff) {
  Box3 R = B;
  for (int D = 0; D != 3; ++D) {
    R.Lo[D] += MinOff[D];
    R.Hi[D] += MaxOff[D];
  }
  return R;
}

bool overlaps(const Box3 &A, const Box3 &B) {
  return !A.intersect(B).empty();
}

bool writesArray(const StageDef &S, ArrayId A) {
  return std::find(S.Outputs.begin(), S.Outputs.end(), A) != S.Outputs.end();
}

bool isFeedbackSource(const StencilProgram &Program, ArrayId A) {
  for (const FeedbackPair &FB : Program.feedbacks())
    if (FB.Source == A)
      return true;
  return false;
}

/// Whether the halo images that a share writing \p W of array \p A in
/// pass \p P may write overlap \p R; fills \p Witness when they do. The
/// footprint holds under either boundary mode and any halo depth: per
/// axis, a periodic image shifts the range by the core extent, and a
/// clamped one fills the whole halo side beyond a boundary cell. Image
/// writes never collide with each other where the core writes do not
/// (every halo cell has one source cell), so only reads are checked
/// against them.
bool imagesOverlap(const StencilProgram &Program, const ScheduledPass &P,
                   ArrayId A, const Box3 &W, const Box3 &R, Box3 &Witness) {
  const Box3 &Core = P.ImageCore;
  if (Core.empty() || W.empty() || !isFeedbackSource(Program, A))
    return false;
  // Per axis: the written range, then its image ranges below and above.
  constexpr int Far = std::numeric_limits<int>::max() / 4;
  int Lo[3][3], Hi[3][3];
  for (int D = 0; D != 3; ++D) {
    const int N = Core.extent(D);
    const bool AtLo = W.Lo[D] == Core.Lo[D], AtHi = W.Hi[D] == Core.Hi[D];
    Lo[D][0] = W.Lo[D];
    Hi[D][0] = W.Hi[D];
    Lo[D][1] = AtLo ? -Far : W.Lo[D] - N;
    Hi[D][1] = AtLo ? Core.Lo[D] : W.Hi[D] - N;
    Lo[D][2] = AtHi ? Core.Hi[D] : W.Lo[D] + N;
    Hi[D][2] = AtHi ? Far : W.Hi[D] + N;
  }
  for (int X = 0; X != 3; ++X)
    for (int Y = 0; Y != 3; ++Y)
      for (int Z = X == 0 && Y == 0 ? 1 : 0; Z != 3; ++Z) {
        Box3 Image(Lo[0][X], Lo[1][Y], Lo[2][Z], Hi[0][X], Hi[1][Y],
                   Hi[2][Z]);
        if (overlaps(Image, R)) {
          Witness = Image.intersect(R);
          return true;
        }
      }
  return false;
}

} // namespace

bool icores::findPassPairConflict(const StencilProgram &Program,
                                  const ScheduledPass &Earlier,
                                  const ScheduledPass &Later, int NumThreads,
                                  PassConflict &Out) {
  const int N = std::max(1, NumThreads);
  if (N < 2 || Earlier.Region.empty() || Later.Region.empty())
    return false; // One thread runs its passes sequentially: no race.
  const StageDef &S1 = Program.stage(Earlier.Stage);
  const StageDef &S2 = Program.stage(Later.Stage);

  // Write-write: both passes write the same array and two different
  // threads' sub-regions overlap. Sub-regions are subsets of the pass
  // regions, so disjoint full regions rule the thread loop out cheaply.
  for (ArrayId Out1 : S1.Outputs) {
    if (!writesArray(S2, Out1) || !overlaps(Earlier.Region, Later.Region))
      continue;
    for (int T1 = 0; T1 != N; ++T1)
      for (int T2 = 0; T2 != N; ++T2) {
        if (T1 == T2)
          continue;
        Box3 W1 = teamSubRegion(Earlier.Region, T1, N);
        Box3 W2 = teamSubRegion(Later.Region, T2, N);
        if (!overlaps(W1, W2))
          continue;
        Out.ConflictKind = PassConflict::Kind::WriteWrite;
        Out.Array = Out1;
        Out.ThreadA = T1;
        Out.ThreadB = T2;
        Out.StageA = Earlier.Stage;
        Out.StageB = Later.Stage;
        Out.Overlap = W1.intersect(W2);
        return true;
      }
  }

  // Read-write, both directions: the earlier pass's writes vs the later
  // pass's window-expanded reads, and vice versa (a later write clobbering
  // cells an unfinished earlier pass still reads).
  for (int Dir = 0; Dir != 2; ++Dir) {
    const ScheduledPass &WP = Dir == 0 ? Earlier : Later;
    const ScheduledPass &RP = Dir == 0 ? Later : Earlier;
    const StageDef &WS = Dir == 0 ? S1 : S2;
    const StageDef &RS = Dir == 0 ? S2 : S1;
    for (const ReadHull &H : readHulls(RS)) {
      if (!writesArray(WS, H.Array))
        continue;
      const Box3 Reads = expandByWindow(RP.Region, H.MinOff, H.MaxOff);
      Box3 Hit;
      if (!overlaps(WP.Region, Reads) &&
          !imagesOverlap(Program, WP, H.Array, WP.Region, Reads, Hit))
        continue;
      for (int T1 = 0; T1 != N; ++T1)
        for (int T2 = 0; T2 != N; ++T2) {
          if (T1 == T2)
            continue;
          Box3 W = teamSubRegion(WP.Region, T1, N);
          Box3 R = expandByWindow(teamSubRegion(RP.Region, T2, N), H.MinOff,
                                  H.MaxOff);
          Box3 Witness = W.intersect(R);
          if (Witness.empty() &&
              !imagesOverlap(Program, WP, H.Array, W, R, Witness))
            continue;
          Out.ConflictKind = PassConflict::Kind::ReadWrite;
          Out.Array = H.Array;
          Out.ThreadA = T1;
          Out.ThreadB = T2;
          Out.StageA = WP.Stage;
          Out.StageB = RP.Stage;
          Out.Overlap = Witness;
          return true;
        }
    }
  }
  return false;
}

namespace {

/// Searches one epoch (passes [Begin, End) of \p S with no intervening
/// barrier) for conflicting thread pairs, reporting the first conflict of
/// each conflicting pass pair. A conflict needs two *different* threads:
/// one thread executes its share of every pass in order, so same-thread
/// overlap is sequential, not a race.
void checkEpoch(const StencilProgram &Program, const IslandSchedule &S,
                size_t Begin, size_t End, DiagnosticEngine &Diags) {
  for (size_t PI = Begin; PI != End; ++PI)
    for (size_t PJ = PI + 1; PJ != End; ++PJ) {
      PassConflict C;
      if (!findPassPairConflict(Program, S.Passes[PI], S.Passes[PJ],
                                S.NumThreads, C))
        continue;
      const std::string &NameA = Program.stage(C.StageA).Name;
      const std::string &NameB = Program.stage(C.StageB).Name;
      const std::string &ArrayName = Program.array(C.Array).Name;
      std::string Msg =
          C.ConflictKind == PassConflict::Kind::WriteWrite
              ? formatString("island %d: stages '%s' and '%s' both write "
                             "'%s' in overlapping thread sub-regions with "
                             "no barrier between the passes",
                             S.Index, NameA.c_str(), NameB.c_str(),
                             ArrayName.c_str())
              : formatString("island %d: stage '%s' writes '%s' while "
                             "stage '%s' reads it in an overlapping thread "
                             "sub-region with no barrier between the passes",
                             S.Index, NameA.c_str(), ArrayName.c_str(),
                             NameB.c_str());
      // Temporal plans replay each conflicting pass pair once per fused
      // step; encoding the epoch step keeps the id stable and distinct
      // per step (the same textual conflict at step 0 and step 3 are two
      // different findings, not duplicates).
      std::string Id = C.ConflictKind == PassConflict::Kind::WriteWrite
                           ? "race.intra.write-write"
                           : "race.intra.read-write";
      if (S.TemporalDepth > 1)
        Id += formatString(".step%d", S.Passes[PI].StepInEpoch);
      Finding &F = Diags.report(Severity::Error, Id, Msg);
      F.note("island", formatString("%d", S.Index))
          .note("array", ArrayName)
          .note("threads", formatString("%d,%d", C.ThreadA, C.ThreadB))
          .note("overlap", C.Overlap.str());
      if (S.TemporalDepth > 1)
        F.note("step", formatString("%d", S.Passes[PI].StepInEpoch));
    }
}

void checkIntraIsland(const StencilProgram &Program, const IslandSchedule &S,
                      DiagnosticEngine &Diags) {
  if (S.NumThreads < 2)
    return; // A one-thread team cannot race with itself.
  size_t Begin = 0;
  for (size_t P = 0; P != S.Passes.size(); ++P) {
    if (!S.Passes[P].BarrierAfter && P + 1 != S.Passes.size())
      continue;
    checkEpoch(Program, S, Begin, P + 1, Diags);
    Begin = P + 1;
  }
  // Declared reductions add nothing to check: the runtime folds each
  // worker's own sub-region right after computing it, so the fold reads
  // only cells the pass-pair query already attributes to that thread.
}

/// Checks A's writes against B's accesses. Write-write conflicts are
/// symmetric, so they are only examined when \p CheckWriteWrite is set (the
/// caller passes true for one direction only); read-write conflicts are
/// directional and checked on every call.
void checkInterIsland(const StencilProgram &Program,
                      const IslandSchedule &A, const IslandSchedule &B,
                      bool CheckWriteWrite, DiagnosticEngine &Diags) {
  // Islands share only non-Intermediate arrays; intermediates live in
  // per-island field stores. Within one step there is no inter-island
  // synchronisation at all, so *any* write overlap on a shared array is a
  // race regardless of pass order. Whole pass regions are used: the team
  // covers its full region collectively.
  //
  // Temporal blocking narrows what is shared: with TemporalDepth > 1 every
  // island imports its step inputs into private buffers once per epoch and
  // runs intermediate fused steps entirely on private storage, so only the
  // *final* fused step's accesses to the step-output arrays reach shared
  // memory.
  const int Depth = std::max(1, std::max(A.TemporalDepth, B.TemporalDepth));
  auto sharedWrite = [&](ArrayId Id, const ScheduledPass &P) {
    if (Program.array(Id).Role == ArrayRole::Intermediate)
      return false;
    return Depth == 1 || P.StepInEpoch == Depth - 1;
  };
  auto sharedRead = [&](ArrayId Id, const ScheduledPass &P) {
    if (Program.array(Id).Role == ArrayRole::Intermediate)
      return false;
    if (Depth == 1)
      return true;
    // Step inputs are read from the island-private import buffers at every
    // fused step; a step-output array only binds shared storage while the
    // final fused step runs.
    return Program.producerOf(Id) != NoStage && P.StepInEpoch == Depth - 1;
  };
  auto reportOnce = [&](const char *Id, const std::string &Msg, ArrayId Arr,
                        const Box3 &Overlap) {
    Diags.report(Severity::Error, Id, Msg)
        .note("islands", formatString("%d,%d", A.Index, B.Index))
        .note("array", Program.array(Arr).Name)
        .note("overlap", Overlap.str());
  };

  for (const ScheduledPass &PA : A.Passes) {
    const StageDef &SA = Program.stage(PA.Stage);
    for (const ScheduledPass &PB : B.Passes) {
      const StageDef &SB = Program.stage(PB.Stage);

      for (ArrayId Out : SA.Outputs) {
        if (!sharedWrite(Out, PA))
          continue;
        if (CheckWriteWrite && writesArray(SB, Out) &&
            sharedWrite(Out, PB) && overlaps(PA.Region, PB.Region))
          reportOnce("race.inter.write-write",
                     formatString("islands %d and %d both write shared "
                                  "array '%s' in overlapping regions within "
                                  "one step (stages '%s' / '%s')",
                                  A.Index, B.Index,
                                  Program.array(Out).Name.c_str(),
                                  SA.Name.c_str(), SB.Name.c_str()),
                     Out, PA.Region.intersect(PB.Region));
        for (const ReadHull &H : readHulls(SB)) {
          if (H.Array != Out || !sharedRead(Out, PB))
            continue;
          Box3 R = expandByWindow(PB.Region, H.MinOff, H.MaxOff);
          Box3 Witness = PA.Region.intersect(R);
          if (!Witness.empty() ||
              imagesOverlap(Program, PA, Out, PA.Region, R, Witness))
            reportOnce("race.inter.read-write",
                       formatString("island %d writes shared array '%s' "
                                    "(stage '%s') while island %d reads it "
                                    "(stage '%s') with no synchronisation "
                                    "within the step",
                                    A.Index, Program.array(Out).Name.c_str(),
                                    SA.Name.c_str(), B.Index,
                                    SB.Name.c_str()),
                       Out, Witness);
        }
      }
    }
  }
}

} // namespace

bool icores::checkScheduleRaces(const StencilProgram &Program,
                                const std::vector<IslandSchedule> &Schedules,
                                DiagnosticEngine &Diags) {
  size_t ErrorsBefore = Diags.numErrors();
  for (const IslandSchedule &S : Schedules)
    checkIntraIsland(Program, S, Diags);
  for (size_t A = 0; A != Schedules.size(); ++A)
    for (size_t B = A + 1; B != Schedules.size(); ++B) {
      checkInterIsland(Program, Schedules[A], Schedules[B],
                       /*CheckWriteWrite=*/true, Diags);
      checkInterIsland(Program, Schedules[B], Schedules[A],
                       /*CheckWriteWrite=*/false, Diags);
    }
  return Diags.numErrors() == ErrorsBefore;
}

namespace {

/// At T = 1 the shares that compute a feedback Source's cells also write
/// their halo images, so the Source's producer passes, over all islands,
/// must write each core cell exactly once per step: inside the core,
/// pairwise disjoint, and as many cells as the core holds. A gap leaves
/// some halo cells stale; an overlap images them twice.
bool checkImageCoverage(const StencilProgram &Program,
                        const ExecutionPlan &Plan, DiagnosticEngine &Diags) {
  if (Plan.TemporalDepth > 1)
    return true;
  size_t ErrorsBefore = Diags.numErrors();
  const Box3 &Core = Plan.GlobalTarget;
  for (const FeedbackPair &FB : Program.feedbacks()) {
    const StageId Producer = Program.producerOf(FB.Source);
    std::vector<std::pair<int, const Box3 *>> Writes; // Island, region.
    for (const IslandPlan &Island : Plan.Islands)
      for (const BlockTask &Block : Island.Blocks)
        for (const StagePass &Pass : Block.Passes)
          if (Pass.Stage == Producer && !Pass.Region.empty())
            Writes.push_back({Island.Index, &Pass.Region});
    const std::string &Name = Program.array(FB.Source).Name;
    auto report = [&](const std::string &What, const Box3 &Cells) {
      Diags
          .report(Severity::Error, "race.images.coverage",
                  formatString("feedback source '%s' %s; its halo images "
                               "need exactly one writer per core cell",
                               Name.c_str(), What.c_str()))
          .note("array", Name)
          .note("cells", Cells.str());
    };
    int64_t Written = 0;
    bool Reported = false;
    for (size_t A = 0; A != Writes.size() && !Reported; ++A) {
      const auto [IslandA, RegionA] = Writes[A];
      Written += RegionA->numPoints();
      if (!Core.containsBox(*RegionA)) {
        report(formatString("is written outside the core by island %d",
                            IslandA),
               *RegionA);
        Reported = true;
      }
      for (size_t B = A + 1; B != Writes.size() && !Reported; ++B)
        if (overlaps(*RegionA, *Writes[B].second)) {
          report(formatString("is written twice per step, by passes of "
                              "islands %d and %d",
                              IslandA, Writes[B].first),
                 RegionA->intersect(*Writes[B].second));
          Reported = true;
        }
    }
    if (!Reported && Written != Core.numPoints())
      report(formatString("has %lld of its %lld core cells written per step",
                          static_cast<long long>(Written),
                          static_cast<long long>(Core.numPoints())),
             Core);
  }
  return Diags.numErrors() == ErrorsBefore;
}

} // namespace

bool icores::checkPlanRaces(const StencilProgram &Program,
                            const ExecutionPlan &Plan,
                            DiagnosticEngine &Diags) {
  const std::vector<EpochScript> Scripts = buildEpochScripts(Program, Plan);
  const bool Fenced = checkScriptFences(Scripts, Diags);
  const bool Covered = checkImageCoverage(Program, Plan, Diags);
  return checkScheduleRaces(Program, buildIslandSchedules(Plan, Scripts),
                            Diags) &&
         Fenced && Covered;
}
