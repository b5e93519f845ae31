//===- exec/ProgramExecutor.h - Generic threaded plan execution -*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The application-agnostic threaded runtime: executes any ExecutionPlan
/// for any (StencilProgram, KernelTable) pair. Islands run concurrently
/// with private intermediates, each kept in a buffer a few planes deep
/// that slides along the blocking dimension (exec/IntermediateWindows.h;
/// plans with one block per step keep them part-sized); passes are split
/// among team threads along their longest non-unit-stride dimension and
/// followed by a team barrier when the pass's BarrierAfter bit is set (the
/// barrier-elision optimizer, core/ScheduleOptimizer.h, clears redundant
/// bits); the program's feedback pairs advance the state between steps.
/// Both the per-pass team
/// rendezvous and the step-boundary global rendezvous use the hybrid
/// combining-tree TeamBarrier, tunable through ExecutorOptions. Every
/// workload, MPDATA included, runs through this class directly: callers
/// pass its program and kernel table and seed its external arrays.
///
/// The plan's threads live in a persistent WorkerPool: they are spawned
/// (and optionally pinned) once, on the first run(), and reused by every
/// later call, so bench loops time the schedule rather than thread
/// creation. With enableProfiling(true) the executor records per-stage
/// kernel time and per-pass barrier waits into an ExecStats (see
/// exec/ExecStats.h); results are bit-identical either way.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_EXEC_PROGRAMEXECUTOR_H
#define ICORES_EXEC_PROGRAMEXECUTOR_H

#include "core/ExecutionPlan.h"
#include "core/PlacementMap.h"
#include "exec/Affinity.h"
#include "exec/ExecStats.h"
#include "exec/IntermediateWindows.h"
#include "exec/TeamBarrier.h"
#include "exec/WorkerPool.h"
#include "grid/Array3D.h"
#include "grid/Domain.h"
#include "stencil/FieldStore.h"
#include "stencil/KernelTable.h"
#include "stencil/StencilIR.h"

#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace icores {

class ExecObserver;
class FaultInjector;
struct MachineModel;

/// Runtime knobs for the executor's barriers. Results are bit-identical
/// for every setting; only latency/CPU-burn trade-offs change.
struct ExecutorOptions {
  TeamBarrier::WaitPolicy BarrierPolicy = TeamBarrier::WaitPolicy::Hybrid;
  int BarrierSpinLimit = TeamBarrier::DefaultSpinLimit;
  /// k-row pad multiple for every array the executor allocates (externals,
  /// per-island intermediate buffers and temporal buffers); rows start
  /// cache-line aligned at the default. 0 disables padding. Layout only —
  /// results are identical.
  int PadKRows = Array3D::VectorPadK;
  /// Chaos hook: when non-null, worker threads stall before passes and
  /// team/global barriers force spurious wakeups and detect stalled-team
  /// timeouts, all per the injector's seeded plan. Results stay
  /// bit-identical (faults here perturb timing, never data); injector
  /// counters are mirrored into ExecStats (schema v3).
  FaultInjector *Chaos = nullptr;
  /// Observation hook: when non-null, worker threads report every barrier
  /// crossing, pass, epoch import, intermediate slide and halo-refresh
  /// slab (see exec/ExecObserver.h). The shadow race detector rides on this. Results
  /// are bit-identical; only timing changes.
  ExecObserver *Observer = nullptr;
  /// NUMA page placement for every array the executor allocates. None is
  /// the legacy behaviour: the constructing thread zero-fills serially,
  /// so all pages land on its node. FirstTouch and Interleave allocate
  /// untouched storage and run a placement init epoch on the worker pool
  /// before the constructor returns: FirstTouch has each island's team
  /// zero its arena segment (and its private buffers), Interleave spreads
  /// pages round-robin across all workers. Results are bit-identical for
  /// every policy; only page residency (and therefore bandwidth) changes.
  PlacementPolicy Placement = PlacementPolicy::None;
  /// Advise transparent huge pages (madvise(MADV_HUGEPAGE)) on the arenas
  /// between allocation and first touch. Best effort; Linux only.
  bool HugePages = false;
  /// Worker pinning applied *before* the placement init epoch, in the
  /// (island, thread) order of computeThreadPlacement() — first touch
  /// only places pages correctly when the touching thread already sits on
  /// its socket. With Placement == None, setThreadPinning() before the
  /// first run() remains equivalent.
  std::vector<ThreadPlacement> Pinning;
  /// Work-stealing block scheduler: within an island, passes bracketed by
  /// real barriers on both sides are diced into four chunks per team
  /// thread along the team split dimension; each thread drains its own
  /// chunk deque front-first, then steals from teammates' backs, and runs
  /// every chunk like a static share. Stealing never crosses an island,
  /// stolen chunks run under the same pass-end barrier, and barrier-elided
  /// pass groups keep the static split (the race-freedom proof of
  /// core/ScheduleCheck assumes it), so results are bit-identical.
  bool Stealing = false;
  /// Optional machine model used to price the executed plan's predicted
  /// island skew (core/BalanceModel.h) into ExecStats — the SAME function
  /// the simulator reports, so predicted-vs-predicted parity is exact.
  /// When null, ExecStats::PredictedIslandSkew stays 0.0.
  const MachineModel *Machine = nullptr;
  /// Combiners for the program's declared reductions (see ReductionBinding
  /// in stencil/StencilIR.h; workloads registered in the WorkloadRegistry
  /// carry them). Must cover every declared reduction — checked at
  /// construction. Every worker folds the cells of each reduced array it
  /// just computed (its static share or a stolen chunk) into its own
  /// per-step partial, right after its kernel call and with no barrier;
  /// the per-worker partials are combined in worker order at the next
  /// global barrier, so every schedule yields values bit-identical to the
  /// serial stepper's canonical scan (the combiner contract makes the fold
  /// order, the split and the islands' redundant cone overlap immaterial).
  std::vector<ReductionBinding> Reductions;
};

/// Threaded executor for one plan of one program over one domain.
///
/// Temporal blocking: a plan with TemporalDepth T > 1 is executed in
/// epochs of T fused time steps between global barriers. Each epoch every
/// island imports its step inputs once into island-private buffers
/// (periodically wrap-gathered from the shared core cells, so the widened
/// overlap cones are exact — periodic boundaries are required), runs the
/// T fused steps entirely on private storage with only team-level
/// synchronization, and writes the shared output arrays only from the
/// final fused step. Results are bit-identical to the T = 1 schedule.
class ProgramExecutor {
public:
  /// \p Plan must target Dom.coreBox(); \p Kernels must cover the program.
  ProgramExecutor(StencilProgram Program, KernelTable Kernels,
                  const Domain &Dom, ExecutionPlan Plan,
                  ExecutorOptions Opts = {});
  ~ProgramExecutor();

  const Domain &domain() const { return Dom; }
  const StencilProgram &program() const { return Program; }
  const ExecutionPlan &plan() const { return Plan; }

  /// Mutable access to any step-input or step-output array.
  Array3D &array(ArrayId Id);
  const Array3D &array(ArrayId Id) const;

  /// Refreshes the halos of every step input (call after initialization).
  void prepareInputs();

  /// Turns per-stage/per-pass timing collection on or off for subsequent
  /// run() calls. Off by default; when off, run() takes no timestamps.
  void enableProfiling(bool On);

  /// The measurements accumulated so far (pool counters are maintained
  /// even with profiling off).
  const ExecStats &stats() const { return Stats; }

  /// Zeroes the accumulated measurements (layout and pool kept).
  void resetStats() { Stats.resetMeasurements(); }

  /// Requests that worker I be pinned to Placements[I].GlobalCore (the
  /// (island, thread) order of computeThreadPlacement). Takes effect only
  /// if called before the first run(); best effort on the host. With a
  /// placement policy armed the pool already spun up for the init epoch —
  /// pass ExecutorOptions::Pinning instead so the touching threads are
  /// pinned before they touch.
  void setThreadPinning(const std::vector<ThreadPlacement> &Placements);

  /// Advances \p Steps steps with the plan's threads. Afterwards each
  /// feedback Target array holds the newest state. \p Steps must be a
  /// multiple of the plan's TemporalDepth (whole epochs only).
  void run(int Steps);

  /// Logical bytes this executor moves between an island and the shared
  /// arrays per *time step* (averaged over an epoch): for T == 1 every
  /// island streams its input footprint in and its output part out each
  /// step; for T > 1 one import plus one final write per epoch, divided
  /// by T. This is the measured side of the simulator's
  /// SharedBytesPerStep projection.
  int64_t sharedBytesPerStep() const;

  /// The placement model's remote-DRAM bytes per time step for this
  /// plan under the options' policy (core/PlacementMap.h) — the measured
  /// side of SimResult::PlacementRemoteBytesPerStep, equal to it by
  /// construction.
  int64_t remoteBytesPerStep() const;

  /// The plan-derived page-ownership map the init epoch placed by.
  const PlacementMap &placementMap() const { return PMap; }

  /// Island \p Island's field store: its owned intermediates and the
  /// bindings of the current (or last) fused step.
  const FieldStore &islandStore(size_t Island) const;

  /// Island \p Island's intermediate buffers and slide schedule.
  const IslandWindows &intermediateWindows(size_t Island) const {
    return Windows[Island];
  }

  /// Per-step global values of the program's \p R-th reduction, one entry
  /// per step run so far — bit-identical to the serial stepper's
  /// reductionHistory for every plan shape.
  const std::vector<double> &reductionHistory(size_t R) const;

private:
  struct IslandState;
  class WorkerSeam;

  void threadMain(int Worker, int Island, int ThreadInTeam, int Steps,
                  TeamBarrier &Global);
  void runShare(WorkerSeam &Seam, StageId Stage, int StepInEpoch,
                const Box3 &Sub);
  void runStealingPass(IslandState &IS, WorkerSeam &Seam, int ThreadInTeam,
                       int NumThreads, const StagePass &Pass,
                       int StepInEpoch);
  void rebindForStep(IslandState &IS, int StepInEpoch);
  void importEpochInputs(IslandState &IS, int Worker, int ThreadInTeam,
                         int NumThreads);
  void runPlacementEpoch();
  void slideWindows(IslandState &IS, const IslandWindows &Win, size_t Slide,
                    int Worker, int ThreadInTeam, int NumThreads);
  double &partialAt(int Worker, int StepInEpoch, size_t R);
  void resetWorkerPartials(int Worker);
  void foldSubRegion(IslandState &IS, int Worker, int StepInEpoch,
                     StageId Stage, const Box3 &Sub);
  void appendEpochReductions();

  StencilProgram Program;
  KernelTable Kernels;
  Domain Dom;
  ExecutionPlan Plan;
  ExecutorOptions Opts;

  std::map<ArrayId, Array3D> External;
  std::vector<std::unique_ptr<IslandState>> IslandStates;

  /// Worker I's (island, thread-in-team) coordinates.
  std::vector<std::pair<int, int>> WorkerCoords;
  std::unique_ptr<WorkerPool> Pool;

  /// Logical shared-array traffic of one epoch (all islands): import (or
  /// per-step input) reads and final-step output writes. Computed once at
  /// construction from the plan's pass regions.
  int64_t SharedReadBytesPerEpoch = 0;
  int64_t SharedWriteBytesPerEpoch = 0;

  /// Placement model state: the page-ownership map under Opts.Placement
  /// and the remote slice of the per-epoch shared traffic it implies,
  /// both fixed at construction.
  PlacementMap PMap;
  int64_t RemoteBytesPerEpoch = 0;
  int64_t PagesTouched = 0; ///< Pages zeroed by the placement epoch.

  /// Reduction machinery (empty when the program declares none).
  /// Reductions holds the combiners in ReductionDef order;
  /// StageFolds[stage] lists the reduction indices the stage produces;
  /// Partials is the worker-major (worker, step-in-epoch, reduction)
  /// scratch, each slot written only by its worker (reset per epoch,
  /// combined in worker order at global barriers);
  /// ReductionLog accumulates the per-step global values.
  std::vector<ReductionBinding> Reductions;
  std::vector<std::vector<size_t>> StageFolds;
  std::vector<double> Partials;
  std::vector<std::vector<double>> ReductionLog;

  /// Per island: the intermediates' buffers and slide schedule
  /// (exec/IntermediateWindows.h), fixed at construction.
  std::vector<IslandWindows> Windows;

  bool Profiling = false;
  ExecStats Stats;
  std::mutex StatsMutex;
};

} // namespace icores

#endif // ICORES_EXEC_PROGRAMEXECUTOR_H
