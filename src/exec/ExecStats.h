//===- exec/ExecStats.h - Executor observability layer ----------*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measured counterpart of the sim/ cost model: ProgramExecutor can record
/// per-island, per-thread and per-stage kernel time, per-pass barrier-wait
/// time, step wall time and team imbalance while running a plan with real
/// threads. The paper's whole argument is about *where time goes* (barrier
/// waits sink the pure (3+1)D decomposition at large P; islands eliminate
/// them), so the executor must be able to answer that question directly
/// and let benches print predicted-vs-measured barrier shares.
///
/// Collection protocol: every booking goes through the executor's one
/// per-worker seam into a private ExecThreadAccum on the worker's stack (no
/// shared cache lines on the hot path), merged into the ExecStats under a
/// mutex once per run(). Unprofiled, the executor takes no timestamps.
///
/// Since the barrier-elision optimizer (core/ScheduleOptimizer.h) landed,
/// the stats also count how many pass barriers were *not* crossed
/// (elided) and how remaining TeamBarrier waits were released (spin vs
/// futex sleep), so the synchronization win is directly observable.
///
/// Reporting: writeJson() emits the "icores.exec_stats.v5" schema
/// (documented in README.md; v3 added the chaos counters faults_injected /
/// retries / timeouts / recovered mirrored from the FaultInjector — all
/// zero on unarmed runs; v4 added the NUMA placement fields placement /
/// remote_bytes_est / pages_first_touched / pin_failures; v5 adds the
/// load-balance fields balance / stealing / steals / steal_failures /
/// idle_seconds / predicted_island_skew / measured_island_skew and the
/// per-island imbalance_per_step array; fold_seconds, top level and per
/// thread, came later without a version bump). v2..v4 documents remain
/// parseable by bench/validate_bench_json.py.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_EXEC_EXECSTATS_H
#define ICORES_EXEC_EXECSTATS_H

#include <cstdint>
#include <string>
#include <vector>

namespace icores {

class OStream;
struct ExecutionPlan;

/// Time attributed to one stage's passes within one island (summed over
/// the team's threads; the barrier wait is the time spent in the team
/// barrier that follows each pass of the stage).
struct StageStat {
  double KernelSeconds = 0.0;
  double BarrierWaitSeconds = 0.0;
  int64_t Passes = 0; ///< Team-level pass executions (not x threads).
  /// Team-level passes no team barrier follows in the epoch script: the
  /// elided ones and each epoch's last pass.
  int64_t BarriersElided = 0;
};

/// Totals for one thread of an island's team.
struct ThreadStat {
  int ThreadInTeam = 0;
  double KernelSeconds = 0.0;
  /// Team barriers only: the pass barriers (also booked per stage) plus
  /// the epoch script's structural and slide barriers, which end no pass
  /// and are booked to no stage.
  double BarrierWaitSeconds = 0.0;
  int64_t Passes = 0;              ///< Pass visits by this thread.
  int64_t BarriersElided = 0;      ///< Passes no team barrier followed.
  int64_t SpinWakes = 0;  ///< Barrier releases observed while spinning.
  int64_t SleepWakes = 0; ///< Barrier releases via the futex sleep path.
  int64_t Steals = 0;        ///< Chunks claimed from teammates' deques.
  int64_t StealFailures = 0; ///< Lost steal races (CAS retries).
  /// Out-of-work time: from the end of the thread's last executed chunk
  /// (its kernel call and any reduction fold over it) to its entry
  /// into the pass barrier, summed over stealing-scheduled passes. The
  /// barrier wait itself is counted separately in BarrierWaitSeconds.
  double IdleSeconds = 0.0;
  /// Reduction-fold time: the thread's folds of the cells it computed
  /// into its partials. Neither kernel nor idle time.
  double FoldSeconds = 0.0;
  /// Kernel seconds attributed to each fused step of the temporal epoch
  /// (index = BlockTask::StepInEpoch; size = plan TemporalDepth), summed
  /// over all epochs, so imbalance can be reported per step.
  std::vector<double> StepKernelSeconds;

  /// Pass-barrier crossings: every pass not run barrier-free.
  int64_t barrierWaits() const { return Passes - BarriersElided; }
};

/// Per-island aggregation: per-stage and per-thread views of the same
/// measurements.
struct IslandStat {
  int Island = 0;
  int NumThreads = 0;
  std::vector<StageStat> Stages; ///< Indexed by StageId.
  std::vector<ThreadStat> Threads;

  double kernelSeconds() const;
  double barrierWaitSeconds() const;
  int64_t teamPasses() const;

  /// Team imbalance: max over threads of kernel seconds divided by the
  /// mean. Pinned edge cases: a single-thread team and an island whose
  /// kernels recorded zero seconds are both defined as 1.0 — a team that
  /// cannot be unbalanced is trivially balanced, never 0 (which would
  /// read as "better than perfect" to ratio consumers).
  double imbalance() const;

  /// imbalance() restricted to fused step \p Step of the temporal epoch
  /// (0 <= Step < the plan's TemporalDepth), from the threads'
  /// StepKernelSeconds. Same pinned edge cases as imbalance().
  double imbalanceAtStep(int Step) const;
};

/// Per-thread accumulator for one run() call; lives on the worker's stack.
struct ExecThreadAccum {
  std::vector<double> StageKernelSeconds;
  std::vector<double> StageBarrierWaitSeconds;
  std::vector<int64_t> StagePasses;
  std::vector<int64_t> StageBarriersElided;
  std::vector<double> StepKernelSeconds; ///< By fused step in epoch.
  double GlobalBarrierWaitSeconds = 0.0;
  /// Team-barrier waits that end no pass (structural and slide barriers).
  double StructuralBarrierWaitSeconds = 0.0;
  int64_t SpinWakes = 0;  ///< Team + global barrier spin releases.
  int64_t SleepWakes = 0; ///< Team + global barrier sleep releases.
  int64_t Steals = 0;        ///< Chunks claimed from teammates.
  int64_t StealFailures = 0; ///< Lost steal races.
  double IdleSeconds = 0.0;  ///< Out-of-work time before pass barriers.
  double FoldSeconds = 0.0;  ///< Reduction folds.

  ExecThreadAccum(unsigned NumStages, unsigned TemporalDepth)
      : StageKernelSeconds(NumStages, 0.0),
        StageBarrierWaitSeconds(NumStages, 0.0), StagePasses(NumStages, 0),
        StageBarriersElided(NumStages, 0),
        StepKernelSeconds(NumStages == 0 ? 0 : TemporalDepth, 0.0) {}
};

/// Everything the executor measured, across all run() calls since the
/// last reset. Pool counters are filled in even when timing is disabled.
struct ExecStats {
  bool Enabled = false;
  int StepsRun = 0;
  /// The executed plan's fused steps per temporal epoch (1 = classic
  /// per-step execution); copied from the plan at initLayout().
  int TemporalDepth = 1;
  /// Logical bytes moved between the islands and the shared arrays over
  /// all run() calls: per-epoch import (or per-step input) reads and
  /// final-step output writes, scaled by the epochs run. Maintained even
  /// with timing disabled, like the pool counters.
  int64_t SharedBytesRead = 0;
  int64_t SharedBytesWritten = 0;
  int64_t RunCalls = 0;
  int64_t ThreadsSpawned = 0; ///< OS threads ever created by the pool.
  int64_t PoolDispatches = 0;
  double WallSeconds = 0.0; ///< Wall time inside run(), all calls.
  double GlobalBarrierWaitSeconds = 0.0; ///< Summed over all threads.

  // Chaos counters (schema v3), mirrored from the armed FaultInjector
  // after each run(); all zero when the executor runs unarmed.
  int64_t FaultsInjected = 0;
  int64_t FaultRetries = 0;
  int64_t FaultTimeouts = 0;
  int64_t FaultsRecovered = 0;

  // NUMA placement fields (schema v4). Placement is the policy the
  // executor enforced ("none" when it allocated serially); RemoteBytesEst
  // is the placement model's remote-DRAM byte estimate accumulated over
  // all run() calls (core/PlacementMap.h — the same function the
  // simulator projects with, so measured-vs-projected parity is exact);
  // PagesFirstTouched counts pages the init epoch's pinned workers
  // touched; PinFailures mirrors WorkerPool::pinFailures().
  std::string Placement = "none";
  int64_t RemoteBytesEst = 0;
  int64_t PagesFirstTouched = 0;
  int64_t PinFailures = 0;

  // Load-balance fields (schema v5). Balance names the plan's partition
  // sizing policy; Stealing says whether the work-stealing block scheduler
  // was armed; PredictedIslandSkew is core/BalanceModel.h's
  // predictedIslandSkew() for the executed plan — the SAME function the
  // simulator reports, so predicted-vs-predicted parity is exact by
  // construction (0.0 when the executor was given no machine model to
  // price with). The measured counterpart is measuredIslandSkew().
  std::string Balance = "uniform";
  bool Stealing = false;
  double PredictedIslandSkew = 0.0;

  std::vector<IslandStat> Islands;

  /// Sizes Islands/Stages/Threads to match \p Plan with \p NumStages
  /// stages and zeroes all accumulators (pool counters included).
  void initLayout(const ExecutionPlan &Plan, unsigned NumStages);

  /// Zeroes all measurements, keeping the layout and the pool counters.
  void resetMeasurements();

  /// Merges one thread's accumulator for one run() call.
  void mergeThread(int Island, int ThreadInTeam,
                   const ExecThreadAccum &Accum);

  double kernelSeconds() const;
  double teamBarrierWaitSeconds() const;

  /// Team-level passes no team barrier followed, across all islands
  /// (schedule counts, not x threads), summed over all profiled steps:
  /// the elided pass barriers plus each epoch's last pass, which the next
  /// epoch's leading global barrier orders.
  int64_t barriersElided() const;

  /// Barrier releases observed while spinning / after the futex sleep
  /// fallback, summed over all threads (team + global barriers).
  int64_t spinWakes() const;
  int64_t sleepWakes() const;

  /// Work-stealing totals over all threads: chunks claimed from
  /// teammates, lost steal races, and out-of-work seconds.
  int64_t steals() const;
  int64_t stealFailures() const;
  double idleSeconds() const;

  /// Reduction-fold seconds summed over all threads.
  double foldSeconds() const;

  /// Measured island skew: max over islands of measured kernel seconds
  /// divided by the mean — the measured counterpart of
  /// PredictedIslandSkew. 1.0 for single-island plans and when no kernel
  /// time was recorded (the same pinned edges as IslandStat::imbalance).
  double measuredIslandSkew() const;

  /// Measured share of barrier time: (team + global barrier waits) over
  /// (kernel + all barrier waits). The analogue of the simulator's
  /// Barrier fraction of the per-step breakdown.
  double barrierShare() const;

  /// Emits the icores.exec_stats.v5 JSON document.
  void writeJson(OStream &OS) const;

  std::string toJsonString() const;
};

} // namespace icores

#endif // ICORES_EXEC_EXECSTATS_H
