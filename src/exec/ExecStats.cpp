//===- exec/ExecStats.cpp - Executor observability layer ------------------===//

#include "exec/ExecStats.h"

#include "core/ExecutionPlan.h"
#include "grid/Placement.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/OStream.h"

#include <algorithm>

using namespace icores;

double IslandStat::kernelSeconds() const {
  double Sum = 0.0;
  for (const ThreadStat &T : Threads)
    Sum += T.KernelSeconds;
  return Sum;
}

double IslandStat::barrierWaitSeconds() const {
  double Sum = 0.0;
  for (const ThreadStat &T : Threads)
    Sum += T.BarrierWaitSeconds;
  return Sum;
}

int64_t IslandStat::teamPasses() const {
  int64_t Sum = 0;
  for (const StageStat &S : Stages)
    Sum += S.Passes;
  return Sum;
}

double IslandStat::imbalance() const {
  // Pinned edges: single-thread teams and zero-kernel-time islands are
  // trivially balanced (1.0), never 0 — a ratio consumer comparing
  // against the ideal 1.0 must not see "better than perfect".
  if (Threads.size() < 2)
    return 1.0;
  double Max = 0.0, Sum = 0.0;
  for (const ThreadStat &T : Threads) {
    Max = std::max(Max, T.KernelSeconds);
    Sum += T.KernelSeconds;
  }
  double Mean = Sum / static_cast<double>(Threads.size());
  return Mean > 0.0 ? Max / Mean : 1.0;
}

double IslandStat::imbalanceAtStep(int Step) const {
  if (Threads.size() < 2)
    return 1.0;
  double Max = 0.0, Sum = 0.0;
  for (const ThreadStat &T : Threads) {
    double Seconds =
        Step >= 0 && static_cast<size_t>(Step) < T.StepKernelSeconds.size()
            ? T.StepKernelSeconds[static_cast<size_t>(Step)]
            : 0.0;
    Max = std::max(Max, Seconds);
    Sum += Seconds;
  }
  double Mean = Sum / static_cast<double>(Threads.size());
  return Mean > 0.0 ? Max / Mean : 1.0;
}

void ExecStats::initLayout(const ExecutionPlan &Plan, unsigned NumStages) {
  Islands.clear();
  Islands.resize(Plan.Islands.size());
  for (size_t I = 0; I != Plan.Islands.size(); ++I) {
    IslandStat &Stat = Islands[I];
    Stat.Island = static_cast<int>(I);
    Stat.NumThreads = Plan.Islands[I].NumThreads;
    Stat.Stages.assign(NumStages, StageStat());
    Stat.Threads.resize(static_cast<size_t>(Plan.Islands[I].NumThreads));
    for (int T = 0; T != Stat.NumThreads; ++T) {
      Stat.Threads[static_cast<size_t>(T)].ThreadInTeam = T;
      Stat.Threads[static_cast<size_t>(T)].StepKernelSeconds.assign(
          static_cast<size_t>(Plan.TemporalDepth), 0.0);
    }
  }
  StepsRun = 0;
  TemporalDepth = Plan.TemporalDepth;
  SharedBytesRead = 0;
  SharedBytesWritten = 0;
  RunCalls = 0;
  ThreadsSpawned = 0;
  PoolDispatches = 0;
  WallSeconds = 0.0;
  GlobalBarrierWaitSeconds = 0.0;
  FaultsInjected = 0;
  FaultRetries = 0;
  FaultTimeouts = 0;
  FaultsRecovered = 0;
  Placement = placementPolicyName(PlacementPolicy::None);
  RemoteBytesEst = 0;
  PagesFirstTouched = 0;
  PinFailures = 0;
  Balance = balancePolicyName(Plan.Balance);
  Stealing = false;
  PredictedIslandSkew = 0.0;
}

void ExecStats::resetMeasurements() {
  StepsRun = 0;
  SharedBytesRead = 0;
  SharedBytesWritten = 0;
  WallSeconds = 0.0;
  GlobalBarrierWaitSeconds = 0.0;
  FaultsInjected = 0;
  FaultRetries = 0;
  FaultTimeouts = 0;
  FaultsRecovered = 0;
  RemoteBytesEst = 0;
  for (IslandStat &Island : Islands) {
    std::fill(Island.Stages.begin(), Island.Stages.end(), StageStat());
    for (ThreadStat &T : Island.Threads) {
      int Keep = T.ThreadInTeam;
      size_t Depth = T.StepKernelSeconds.size();
      T = ThreadStat();
      T.ThreadInTeam = Keep;
      T.StepKernelSeconds.assign(Depth, 0.0);
    }
  }
}

void ExecStats::mergeThread(int Island, int ThreadInTeam,
                            const ExecThreadAccum &Accum) {
  ICORES_CHECK(static_cast<size_t>(Island) < Islands.size(),
               "stats merge for an unknown island");
  IslandStat &IslandS = Islands[static_cast<size_t>(Island)];
  ICORES_CHECK(static_cast<size_t>(ThreadInTeam) < IslandS.Threads.size(),
               "stats merge for an unknown thread");
  ThreadStat &ThreadS = IslandS.Threads[static_cast<size_t>(ThreadInTeam)];

  for (size_t S = 0; S != Accum.StagePasses.size(); ++S) {
    StageStat &Stage = IslandS.Stages[S];
    Stage.KernelSeconds += Accum.StageKernelSeconds[S];
    Stage.BarrierWaitSeconds += Accum.StageBarrierWaitSeconds[S];
    // Every team thread visits every pass; count the schedule once.
    if (ThreadInTeam == 0) {
      Stage.Passes += Accum.StagePasses[S];
      Stage.BarriersElided += Accum.StageBarriersElided[S];
    }

    ThreadS.KernelSeconds += Accum.StageKernelSeconds[S];
    ThreadS.BarrierWaitSeconds += Accum.StageBarrierWaitSeconds[S];
    ThreadS.Passes += Accum.StagePasses[S];
    ThreadS.BarriersElided += Accum.StageBarriersElided[S];
  }
  ThreadS.SpinWakes += Accum.SpinWakes;
  ThreadS.SleepWakes += Accum.SleepWakes;
  ThreadS.Steals += Accum.Steals;
  ThreadS.StealFailures += Accum.StealFailures;
  ThreadS.IdleSeconds += Accum.IdleSeconds;
  ThreadS.FoldSeconds += Accum.FoldSeconds;
  ThreadS.BarrierWaitSeconds += Accum.StructuralBarrierWaitSeconds;
  size_t Steps =
      std::min(ThreadS.StepKernelSeconds.size(), Accum.StepKernelSeconds.size());
  for (size_t S = 0; S != Steps; ++S)
    ThreadS.StepKernelSeconds[S] += Accum.StepKernelSeconds[S];
  GlobalBarrierWaitSeconds += Accum.GlobalBarrierWaitSeconds;
}

double ExecStats::kernelSeconds() const {
  double Sum = 0.0;
  for (const IslandStat &Island : Islands)
    Sum += Island.kernelSeconds();
  return Sum;
}

double ExecStats::teamBarrierWaitSeconds() const {
  double Sum = 0.0;
  for (const IslandStat &Island : Islands)
    Sum += Island.barrierWaitSeconds();
  return Sum;
}

int64_t ExecStats::barriersElided() const {
  int64_t Sum = 0;
  for (const IslandStat &Island : Islands)
    for (const StageStat &Stage : Island.Stages)
      Sum += Stage.BarriersElided;
  return Sum;
}

int64_t ExecStats::spinWakes() const {
  int64_t Sum = 0;
  for (const IslandStat &Island : Islands)
    for (const ThreadStat &T : Island.Threads)
      Sum += T.SpinWakes;
  return Sum;
}

int64_t ExecStats::sleepWakes() const {
  int64_t Sum = 0;
  for (const IslandStat &Island : Islands)
    for (const ThreadStat &T : Island.Threads)
      Sum += T.SleepWakes;
  return Sum;
}

int64_t ExecStats::steals() const {
  int64_t Sum = 0;
  for (const IslandStat &Island : Islands)
    for (const ThreadStat &T : Island.Threads)
      Sum += T.Steals;
  return Sum;
}

int64_t ExecStats::stealFailures() const {
  int64_t Sum = 0;
  for (const IslandStat &Island : Islands)
    for (const ThreadStat &T : Island.Threads)
      Sum += T.StealFailures;
  return Sum;
}

double ExecStats::idleSeconds() const {
  double Sum = 0.0;
  for (const IslandStat &Island : Islands)
    for (const ThreadStat &T : Island.Threads)
      Sum += T.IdleSeconds;
  return Sum;
}

double ExecStats::foldSeconds() const {
  double Sum = 0.0;
  for (const IslandStat &Island : Islands)
    for (const ThreadStat &T : Island.Threads)
      Sum += T.FoldSeconds;
  return Sum;
}

double ExecStats::measuredIslandSkew() const {
  if (Islands.size() < 2)
    return 1.0;
  double Max = 0.0, Sum = 0.0;
  for (const IslandStat &Island : Islands) {
    double Seconds = Island.kernelSeconds();
    Max = std::max(Max, Seconds);
    Sum += Seconds;
  }
  double Mean = Sum / static_cast<double>(Islands.size());
  return Mean > 0.0 ? Max / Mean : 1.0;
}

double ExecStats::barrierShare() const {
  double Kernel = kernelSeconds();
  double Barrier = teamBarrierWaitSeconds() + GlobalBarrierWaitSeconds;
  double Total = Kernel + Barrier;
  return Total > 0.0 ? Barrier / Total : 0.0;
}

namespace {

std::string jsonNumber(double Value) {
  return formatString("%.9g", Value);
}

} // namespace

void ExecStats::writeJson(OStream &OS) const {
  OS << "{\n";
  OS << "  \"schema\": \"icores.exec_stats.v5\",\n";
  OS << "  \"enabled\": " << Enabled << ",\n";
  OS << "  \"steps\": " << StepsRun << ",\n";
  OS << "  \"temporal_depth\": " << TemporalDepth << ",\n";
  OS << "  \"placement\": \"" << Placement << "\",\n";
  OS << "  \"remote_bytes_est\": " << RemoteBytesEst << ",\n";
  OS << "  \"pages_first_touched\": " << PagesFirstTouched << ",\n";
  OS << "  \"pin_failures\": " << PinFailures << ",\n";
  OS << "  \"balance\": \"" << Balance << "\",\n";
  OS << "  \"stealing\": " << Stealing << ",\n";
  OS << "  \"steals\": " << steals() << ",\n";
  OS << "  \"steal_failures\": " << stealFailures() << ",\n";
  OS << "  \"idle_seconds\": " << jsonNumber(idleSeconds()) << ",\n";
  OS << "  \"fold_seconds\": " << jsonNumber(foldSeconds()) << ",\n";
  OS << "  \"predicted_island_skew\": " << jsonNumber(PredictedIslandSkew)
     << ",\n";
  OS << "  \"measured_island_skew\": " << jsonNumber(measuredIslandSkew())
     << ",\n";
  OS << "  \"shared_read_bytes\": " << SharedBytesRead << ",\n";
  OS << "  \"shared_written_bytes\": " << SharedBytesWritten << ",\n";
  OS << "  \"run_calls\": " << RunCalls << ",\n";
  OS << "  \"pool\": {\"threads_spawned\": " << ThreadsSpawned
     << ", \"dispatches\": " << PoolDispatches << "},\n";
  OS << "  \"wall_seconds\": " << jsonNumber(WallSeconds) << ",\n";
  OS << "  \"step_wall_seconds\": "
     << jsonNumber(StepsRun > 0 ? WallSeconds / StepsRun : 0.0) << ",\n";
  OS << "  \"kernel_seconds\": " << jsonNumber(kernelSeconds()) << ",\n";
  OS << "  \"team_barrier_wait_seconds\": "
     << jsonNumber(teamBarrierWaitSeconds()) << ",\n";
  OS << "  \"global_barrier_wait_seconds\": "
     << jsonNumber(GlobalBarrierWaitSeconds) << ",\n";
  OS << "  \"barrier_share\": " << jsonNumber(barrierShare()) << ",\n";
  OS << "  \"elided_barriers\": " << barriersElided() << ",\n";
  OS << "  \"spin_wakes\": " << spinWakes() << ",\n";
  OS << "  \"sleep_wakes\": " << sleepWakes() << ",\n";
  OS << "  \"faults_injected\": " << FaultsInjected << ",\n";
  OS << "  \"retries\": " << FaultRetries << ",\n";
  OS << "  \"timeouts\": " << FaultTimeouts << ",\n";
  OS << "  \"recovered\": " << FaultsRecovered << ",\n";
  OS << "  \"islands\": [";
  for (size_t I = 0; I != Islands.size(); ++I) {
    const IslandStat &Island = Islands[I];
    OS << (I ? ",\n    {" : "\n    {");
    OS << "\"island\": " << Island.Island
       << ", \"num_threads\": " << Island.NumThreads
       << ", \"kernel_seconds\": " << jsonNumber(Island.kernelSeconds())
       << ", \"barrier_wait_seconds\": "
       << jsonNumber(Island.barrierWaitSeconds())
       << ", \"imbalance\": " << jsonNumber(Island.imbalance())
       << ", \"imbalance_per_step\": [";
    for (int Step = 0; Step != TemporalDepth; ++Step)
      OS << (Step ? ", " : "")
         << jsonNumber(Island.imbalanceAtStep(Step));
    OS << "],\n";
    OS << "     \"stages\": [";
    bool First = true;
    for (size_t S = 0; S != Island.Stages.size(); ++S) {
      const StageStat &Stage = Island.Stages[S];
      if (Stage.Passes == 0)
        continue;
      OS << (First ? "\n       " : ",\n       ");
      First = false;
      OS << "{\"stage\": " << static_cast<int>(S)
         << ", \"passes\": " << Stage.Passes
         << ", \"elided_barriers\": " << Stage.BarriersElided
         << ", \"kernel_seconds\": " << jsonNumber(Stage.KernelSeconds)
         << ", \"barrier_wait_seconds\": "
         << jsonNumber(Stage.BarrierWaitSeconds) << "}";
    }
    OS << (First ? "],\n" : "\n     ],\n");
    OS << "     \"threads\": [";
    for (size_t T = 0; T != Island.Threads.size(); ++T) {
      const ThreadStat &Thread = Island.Threads[T];
      OS << (T ? ",\n       " : "\n       ");
      OS << "{\"thread\": " << Thread.ThreadInTeam
         << ", \"passes\": " << Thread.Passes
         << ", \"barrier_waits\": " << Thread.barrierWaits()
         << ", \"elided_barriers\": " << Thread.BarriersElided
         << ", \"spin_wakes\": " << Thread.SpinWakes
         << ", \"sleep_wakes\": " << Thread.SleepWakes
         << ", \"steals\": " << Thread.Steals
         << ", \"steal_failures\": " << Thread.StealFailures
         << ", \"idle_seconds\": " << jsonNumber(Thread.IdleSeconds)
         << ", \"fold_seconds\": " << jsonNumber(Thread.FoldSeconds)
         << ", \"kernel_seconds\": " << jsonNumber(Thread.KernelSeconds)
         << ", \"barrier_wait_seconds\": "
         << jsonNumber(Thread.BarrierWaitSeconds) << "}";
    }
    OS << "\n     ]}";
  }
  OS << "\n  ]\n}\n";
}

std::string ExecStats::toJsonString() const {
  std::string Buffer;
  StringOStream OS(Buffer);
  writeJson(OS);
  return Buffer;
}
