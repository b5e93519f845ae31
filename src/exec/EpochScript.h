//===- exec/EpochScript.h - An island's epoch protocol as data --*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The synchronisation protocol of one island's temporal epoch as a vector
/// of ops, built from the plan, the island's intermediate windows and the
/// temporal depth. The executor's workers run it (threadMain is one loop
/// over it), the race check certifies it (exec/ScheduleCheck.h) and
/// the simulator counts and prices its barrier ops (sim/Simulator.h); no
/// other code encodes where an epoch's barriers go. Every team worker runs
/// every op once per epoch. DESIGN.md §11.2 lists the ops per temporal
/// depth and feedback shape.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_EXEC_EPOCHSCRIPT_H
#define ICORES_EXEC_EPOCHSCRIPT_H

#include "core/ExecutionPlan.h"
#include "exec/IntermediateWindows.h"

#include <cstdint>
#include <vector>

namespace icores {

/// One step of the epoch protocol.
struct EpochOp {
  enum class Kind : uint8_t {
    GlobalBarrier,  ///< Every worker of the run meets.
    Rebase,         ///< Thread 0 rebases the sliding intermediates.
    CombineAndSwap, ///< First island, thread 0, every epoch but a run's
                    ///< first: combine the reduction partials, swap the
                    ///< feedback pairs' shared arrays.
    Rebind,         ///< Thread 0 binds fused step Step's buffers.
    Import,         ///< The team gathers the import buffers (T > 1).
    Slide,          ///< The team slides the intermediates (slide Index).
    TeamBarrier,    ///< The team meets; its wait is booked to Stage, the
                    ///< pass it ends (NoStage: structural or slide).
    Pass,           ///< The team runs *Pass of fused step Step; Index
                    ///< counts the epoch's plan passes, empty ones too.
  };

  Kind K = Kind::GlobalBarrier;
  /// Pass: real barriers bracket it on both sides, so the work-stealing
  /// scheduler may run it (when ExecutorOptions::Stealing is set). The
  /// epoch's last pass counts as bracketed: the next epoch's leading
  /// global barrier, or the end of the run, follows it.
  bool Steals = false;
  /// Pass: a TeamBarrier op follows it. False for a pass the barrier
  /// optimizer left barrier-free and for the epoch's last pass.
  bool BarrierAfter = false;
  /// Pass (T = 1): the stage produces a feedback Source, so every share
  /// also writes the halo images of the Source cells it computed
  /// (Domain::writeImages), which the next epoch's leading global barrier
  /// publishes to the readers of the swapped-in Target.
  bool Images = false;
  StageId Stage = NoStage;
  int Step = 0;
  int Index = 0;
  const StagePass *Pass = nullptr; ///< Into the plan the script came from.

  bool isBarrier() const {
    return K == Kind::GlobalBarrier || K == Kind::TeamBarrier;
  }
};

/// One island's epoch protocol.
struct EpochScript {
  std::vector<EpochOp> Ops;

  int64_t count(EpochOp::Kind K) const;
};

/// The op kind's name ("slide", "combine-and-swap", ...).
const char *epochOpName(EpochOp::Kind K);

/// Whether the passes of \p Stage write halo images under \p Plan
/// (EpochOp::Images): at T = 1, when the stage produces a feedback Source.
bool passWritesImages(const StencilProgram &Program, const ExecutionPlan &Plan,
                      StageId Stage);

/// Builds the script of \p Island, one of \p Plan's islands, whose
/// planIslandWindows() are \p Windows. Its Pass ops point into \p Plan.
EpochScript buildEpochScript(const StencilProgram &Program,
                             const ExecutionPlan &Plan,
                             const IslandPlan &Island,
                             const IslandWindows &Windows);

/// Every island's script, in plan order.
std::vector<EpochScript> buildEpochScripts(const StencilProgram &Program,
                                           const ExecutionPlan &Plan);

} // namespace icores

#endif // ICORES_EXEC_EPOCHSCRIPT_H
