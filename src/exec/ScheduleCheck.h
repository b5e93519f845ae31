//===- exec/ScheduleCheck.h - Plan schedule race analysis -------*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Happens-before analysis of the epoch scripts the threaded executor runs
/// (exec/EpochScript.h). Each island's team runs its script's passes in
/// order, splitting each pass region among the team's threads with
/// teamSubRegion(), and meets at the script's barrier ops; islands
/// synchronise only at global barriers. The check certifies the scripts
/// themselves, so what it proves is what runs:
///
///  - *Fences* (`race.script.*`): every non-pass op of a script — rebase,
///    combine-and-swap, halo slab, rebind, import, slide — needs a barrier
///    on each side with no pass in between. Ops that touch state other
///    islands reach (the combine and swap, the halo slab, the import's
///    shared reads) need global barriers there, and no two kinds of them
///    may share a barrier interval.
///
///  - *Intra-island* (`race.intra.*`): within a maximal barrier-free run
///    of passes (an "epoch"), thread t1's writes may overlap thread t2's
///    writes or window-expanded reads of a later pass — a data race the
///    barrier normally prevents. The schedule is derived from the script,
///    so plans transformed by the barrier elision optimizer
///    (core/ScheduleOptimizer.h) are checked exactly as the executor runs
///    them; this check is the optimizer's safety gate.
///
///  - *Inter-island* (`race.inter.*`): islands share only the
///    non-Intermediate arrays (the per-island FieldStore privatises
///    intermediates). Two islands whose passes write overlapping cells of a
///    shared array, or where one writes cells another reads, race for the
///    whole time step.
///
/// Findings use the stable `race.*` id namespace (see DESIGN.md §7).
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_EXEC_SCHEDULECHECK_H
#define ICORES_EXEC_SCHEDULECHECK_H

#include "core/ExecutionPlan.h"
#include "exec/EpochScript.h"
#include "grid/Box3.h"
#include "stencil/StencilIR.h"

#include <vector>

namespace icores {

class DiagnosticEngine;

/// One stage evaluation in an island's schedule, with the synchronisation
/// edge that follows it.
struct ScheduledPass {
  StageId Stage = 0;
  Box3 Region;
  /// Whether a barrier separates this pass from the next one.
  bool BarrierAfter = true;
  /// Which fused time step of the temporal epoch this pass belongs to
  /// (always 0 for TemporalDepth == 1 plans).
  int StepInEpoch = 0;
};

/// The per-island view the race check operates on.
struct IslandSchedule {
  int Index = 0;
  int NumThreads = 1;
  /// Fused steps per epoch, copied from the plan. For Depth > 1 the
  /// executor privatises the step inputs (per-island import buffers) and
  /// only the final fused step's output passes touch the shared arrays,
  /// which relaxes the inter-island sharedness rules accordingly.
  int TemporalDepth = 1;
  std::vector<ScheduledPass> Passes;
};

/// The race-check view of \p Plan's epoch scripts \p Scripts (one per
/// island, plan order): each island's non-empty passes in order, with
/// BarrierAfter set when any barrier op comes before the next pass. So an
/// empty pass's barrier lands on the previous retained pass, and
/// structural and slide barriers end a barrier-free run like pass
/// barriers do.
std::vector<IslandSchedule>
buildIslandSchedules(const ExecutionPlan &Plan,
                     const std::vector<EpochScript> &Scripts);

/// Checks the fences of \p Scripts (one per island, plan order), reporting
/// `race.script.*` findings into \p Diags. Returns true when no error was
/// added.
bool checkScriptFences(const std::vector<EpochScript> &Scripts,
                       DiagnosticEngine &Diags);

/// One provable cross-thread conflict between two passes of one island
/// executed with no intervening team barrier.
struct PassConflict {
  enum class Kind {
    WriteWrite, ///< Two threads' write sub-regions overlap.
    ReadWrite,  ///< One thread's writes overlap another's expanded reads.
  };
  Kind ConflictKind = Kind::WriteWrite;
  ArrayId Array = 0;
  /// The conflicting thread pair. WriteWrite: owners of the two write
  /// sub-regions, earlier pass first. ReadWrite: writer, then reader.
  int ThreadA = 0;
  int ThreadB = 0;
  /// The conflicting stages. WriteWrite: pass order. ReadWrite: the
  /// writing stage, then the reading stage (either pass may be the writer
  /// — a later write can clobber cells an unfinished earlier pass still
  /// reads).
  StageId StageA = 0;
  StageId StageB = 0;
  Box3 Overlap; ///< A witness cell region of the conflict.
};

/// Searches for a cross-thread conflict between \p Earlier and \p Later
/// assuming both run in one barrier-free epoch of a \p NumThreads team,
/// each pass split with teamSubRegion() and reads expanded by the stage
/// windows. Returns true and fills \p Out with the first conflict found
/// (write-write checked before read-write). This is the dependence query
/// shared by the race checker and the barrier elision optimizer: a barrier
/// separating two passes is redundant exactly when no pair of passes it
/// would order has such a conflict.
bool findPassPairConflict(const StencilProgram &Program,
                          const ScheduledPass &Earlier,
                          const ScheduledPass &Later, int NumThreads,
                          PassConflict &Out);

/// Runs the happens-before analysis over \p Schedules, reporting `race.*`
/// findings into \p Diags. Returns true when no error was added.
bool checkScheduleRaces(const StencilProgram &Program,
                        const std::vector<IslandSchedule> &Schedules,
                        DiagnosticEngine &Diags);

/// Builds every island's epoch script and certifies it: checkScriptFences
/// plus checkScheduleRaces over the schedules derived from the scripts.
bool checkPlanRaces(const StencilProgram &Program, const ExecutionPlan &Plan,
                    DiagnosticEngine &Diags);

} // namespace icores

#endif // ICORES_EXEC_SCHEDULECHECK_H
