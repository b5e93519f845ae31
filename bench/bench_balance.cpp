//===- bench/bench_balance.cpp - Cost-balanced partitioning study ---------===//
//
// Quantifies what cost-balanced island cuts and the work-stealing block
// scheduler buy on a skewed plan. Under temporal blocking the interior
// islands' dependence cones widen on *both* sides while the boundary
// islands widen on one, so equal-extent (uniform) cuts hand the interior
// islands strictly more redundant work — and the one-barrier-per-step
// structure means the slowest island gates every step. Cost balancing
// (core/BalanceModel.h) shrinks the interior slabs until predicted
// per-island seconds equalize; stealing then smooths the residual
// intra-island imbalance at run time.
//
// For each (balance policy, stealing, temporal depth) the bench runs the
// real threaded executor with profiling on, records the measured island
// skew (max island kernel seconds / mean) and the per-team imbalance, and
// compares the executor's predicted skew against the simulator's — equal
// by construction, since both call the same predictedIslandSkew().
// Results land in BENCH_balance.json (schema icores.bench.v2, "balance"
// rows; see bench/validate_bench_json.py).
//
// Shape checks:
//   - every configuration stays bit-identical to the uniform/static run,
//   - executor predicted skew == simulator predicted skew (exact),
//   - the cost-balanced plan passes the plan verifier (cuts tile the
//     domain, every island keeps the minimum extent),
//   - cost cuts predict strictly less island skew than uniform cuts on
//     the skewed (T>1) configurations,
//   - cost cuts + stealing *measure* less island skew than uniform/static
//     on the T=4 configuration (the paper-motivating case). Measured
//     skew is wall-clock-based, so this check is hard only when the host
//     has at least as many hardware threads as the plan spawns; on an
//     oversubscribed host (CI containers are often 1-2 vCPUs) the
//     kernel timings measure OS scheduling, not work, and the line is
//     reported informationally instead. Each configuration accumulates
//     kernel seconds over several repetitions to damp the residual noise.
//
// Wall-clock is recorded in the JSON and the table but not shape-checked:
// CI hosts are too noisy for a hard latency assertion.
//
// `--quick` restricts the matrix to T=4 uniform/static vs cost/steal for
// CI smoke runs.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/BalanceModel.h"
#include "core/PlanVerifier.h"
#include "exec/ProgramExecutor.h"
#include "mpdata/InitialConditions.h"
#include "mpdata/Kernels.h"
#include "support/Format.h"
#include "support/OStream.h"
#include "support/Table.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

using namespace icores;
using namespace icores::bench;

namespace {

// Many islands along i and a deep epoch: the interior cones' redundant
// work is what the uniform cuts mis-assign.
constexpr int NI = 96, NJ = 32, NK = 16;
constexpr int Steps = 8;
constexpr int Islands = 4;

struct RunResult {
  Array3D State; ///< State after the first Steps steps (rep 1).
  double PredictedSkewExec = 1.0;
  double MeasuredSkew = 1.0;
  double MaxImbalance = 1.0;
  int64_t Steals = 0;
  int64_t StealFailures = 0;
  double IdleSeconds = 0.0;
  double Seconds = 0.0; ///< Wall seconds of the first repetition.
  size_t Threads = 0;   ///< Worker threads the plan spawned.
};

ExecutionPlan makePlan(const MpdataProgram &M, BalancePolicy Balance,
                       int Depth, int NumIslands, MachineModel &Host) {
  Host = makeToyMachine();
  Host.NumSockets = NumIslands;
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = NumIslands;
  Config.TemporalDepth = Depth;
  Config.Balance = Balance;
  ExecutionPlan Plan =
      buildPlan(M.Program, Box3::fromExtents(NI, NJ, NK), Host, Config);
  optimizeBarriers(M.Program, Plan);
  return Plan;
}

RunResult runOnce(const MpdataProgram &M, BalancePolicy Balance, bool Steal,
                  int Depth, int NumIslands, int Reps) {
  Domain Dom(NI, NJ, NK, mpdataHaloDepth());
  MachineModel Host;
  ExecutionPlan Plan = makePlan(M, Balance, Depth, NumIslands, Host);
  ExecutorOptions Opts;
  Opts.Stealing = Steal;
  Opts.Machine = &Host;
  ProgramExecutor Exec(M.Program, buildMpdataKernels(), Dom,
                       std::move(Plan), Opts);
  Exec.enableProfiling(true);
  seedMpdata(Exec, M, 42, 0.1, 2.0, 0.25, -0.2, 0.15);
  auto Begin = std::chrono::steady_clock::now();
  Exec.run(Steps);
  auto End = std::chrono::steady_clock::now();

  RunResult R;
  R.State = Exec.array(M.XIn);
  R.Seconds = std::chrono::duration<double>(End - Begin).count();
  // Extra repetitions keep evolving the state (still deterministic) while
  // the profile accumulates, so the skew is measured over Reps * Steps
  // steps instead of one noisy sample.
  for (int Rep = 1; Rep < Reps; ++Rep)
    Exec.run(Steps);

  const ExecStats &Stats = Exec.stats();
  R.PredictedSkewExec = Stats.PredictedIslandSkew;
  R.MeasuredSkew = Stats.measuredIslandSkew();
  for (const IslandStat &Island : Stats.Islands) {
    R.MaxImbalance = std::max(R.MaxImbalance, Island.imbalance());
    R.Threads += static_cast<size_t>(Island.NumThreads);
  }
  R.Steals = Stats.steals();
  R.StealFailures = Stats.stealFailures();
  R.IdleSeconds = Stats.idleSeconds();
  return R;
}

double simSkew(const MpdataProgram &M, BalancePolicy Balance, int Depth,
               int NumIslands) {
  MachineModel Host;
  ExecutionPlan Plan = makePlan(M, Balance, Depth, NumIslands, Host);
  return simulate(Plan, M.Program, Host, Steps).PredictedIslandSkew;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false;
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--quick") == 0)
      Quick = true;
  std::printf("load balance: island skew under uniform vs cost-balanced "
              "cuts, static vs stealing (%dx%dx%d, %d steps, %d "
              "islands%s)\n\n",
              NI, NJ, NK, Steps, Islands, Quick ? ", quick" : "");
  MpdataProgram M = buildMpdataProgram();

  struct Cell {
    BalancePolicy Balance;
    bool Steal;
  };
  const Cell FullMatrix[] = {{BalancePolicy::Uniform, false},
                             {BalancePolicy::Uniform, true},
                             {BalancePolicy::Cost, false},
                             {BalancePolicy::Cost, true}};
  const Cell QuickMatrix[] = {{BalancePolicy::Uniform, false},
                              {BalancePolicy::Cost, true}};

  TablePrinter Table({"balance", "steal", "T", "pred skew", "meas skew",
                      "max imbal", "steals", "seconds", "bit-exact"});
  std::vector<BalanceBenchJsonRow> Rows;
  int Failures = 0;
  for (int Depth : {2, 4}) {
    if (Quick && Depth != 4)
      continue;
    // The cost-balanced plan must still tile the domain exactly.
    {
      MachineModel Host;
      ExecutionPlan CostPlan =
          makePlan(M, BalancePolicy::Cost, Depth, Islands, Host);
      PlanVerification V = verifyPlan(CostPlan, M.Program);
      Failures += shapeCheck(
          V.Ok, formatString("T=%d cost-balanced plan passes the verifier "
                             "(cuts tile, min extent)%s%s",
                             Depth, V.Ok ? "" : ": ",
                             V.Ok ? "" : V.FirstError.c_str())
                    .c_str());
    }

    RunResult Baseline;
    RunResult ByCell[4];
    size_t NumCells = Quick ? 2 : 4;
    const Cell *Matrix = Quick ? QuickMatrix : FullMatrix;
    for (size_t C = 0; C != NumCells; ++C) {
      const Cell &Cfg = Matrix[C];
      RunResult R =
          runOnce(M, Cfg.Balance, Cfg.Steal, Depth, Islands, Quick ? 2 : 3);
      double SkewSim = simSkew(M, Cfg.Balance, Depth, Islands);
      bool Exact = true;
      if (C == 0)
        Baseline = R;
      else
        Exact = R.State.maxAbsDiff(Baseline.State,
                                   Box3::fromExtents(NI, NJ, NK)) == 0.0;
      ByCell[C] = R;
      Table.addRow({balancePolicyName(Cfg.Balance),
                    Cfg.Steal ? "yes" : "no", formatString("%d", Depth),
                    formatString("%.4f", R.PredictedSkewExec),
                    formatString("%.4f", R.MeasuredSkew),
                    formatString("%.4f", R.MaxImbalance),
                    formatString("%lld", static_cast<long long>(R.Steals)),
                    formatString("%.3f", R.Seconds),
                    Exact ? "yes" : "NO"});
      Rows.push_back({balancePolicyName(Cfg.Balance), Cfg.Steal, Depth,
                      Islands, SkewSim, R.PredictedSkewExec, R.MeasuredSkew,
                      R.MaxImbalance, R.Steals, R.StealFailures,
                      R.IdleSeconds, R.Seconds});
      Failures += shapeCheck(
          Exact, formatString("%s%s T=%d bit-identical to uniform/static",
                              balancePolicyName(Cfg.Balance),
                              Cfg.Steal ? "+steal" : "", Depth)
                     .c_str());
      Failures += shapeCheck(
          R.PredictedSkewExec == SkewSim,
          formatString("%s%s T=%d executor predicted skew matches "
                       "simulator exactly (%.6f)",
                       balancePolicyName(Cfg.Balance),
                       Cfg.Steal ? "+steal" : "", Depth, SkewSim)
              .c_str());
    }
    // Uniform cuts mis-assign the interior cones; cost cuts must predict
    // strictly less skew, and must measure less on the real run.
    const RunResult &Uniform = ByCell[0];
    const RunResult &CostSteal = ByCell[NumCells - 1];
    Failures += shapeCheck(
        CostSteal.PredictedSkewExec < Uniform.PredictedSkewExec,
        formatString("T=%d cost cuts predict less island skew than "
                     "uniform (%.4f < %.4f)",
                     Depth, CostSteal.PredictedSkewExec,
                     Uniform.PredictedSkewExec)
            .c_str());
    // Measured skew is wall-clock-based: only a hard check when the host
    // can actually run the team in parallel. Oversubscribed (CI) hosts
    // measure OS scheduling, not work, so the line turns informational.
    if (Depth == 4) {
      bool Parallel =
          std::thread::hardware_concurrency() >= Uniform.Threads;
      if (Parallel)
        Failures += shapeCheck(
            CostSteal.MeasuredSkew < Uniform.MeasuredSkew,
            formatString("T=%d cost+steal measures less island skew than "
                         "uniform/static (%.4f < %.4f)",
                         Depth, CostSteal.MeasuredSkew,
                         Uniform.MeasuredSkew)
                .c_str());
      else
        std::printf("  [info] T=%d cost+steal measured skew %.4f vs "
                    "uniform/static %.4f (host has %u hardware threads "
                    "for %zu workers; not checked)\n",
                    Depth, CostSteal.MeasuredSkew, Uniform.MeasuredSkew,
                    std::thread::hardware_concurrency(), Uniform.Threads);
    }
  }

  // Single-island fallback: nothing to balance, skew pinned to 1.0 on
  // both the simulator and the executor.
  {
    RunResult R = runOnce(M, BalancePolicy::Cost, /*Steal=*/true,
                          /*Depth=*/1, /*NumIslands=*/1, /*Reps=*/1);
    double SkewSim = simSkew(M, BalancePolicy::Cost, 1, 1);
    Rows.push_back({balancePolicyName(BalancePolicy::Cost), true, 1, 1,
                    SkewSim, R.PredictedSkewExec, R.MeasuredSkew,
                    R.MaxImbalance, R.Steals, R.StealFailures,
                    R.IdleSeconds, R.Seconds});
    Failures += shapeCheck(
        SkewSim == 1.0 && R.PredictedSkewExec == 1.0 &&
            R.MeasuredSkew == 1.0,
        "single-island fallback: predicted and measured skew exactly 1.0");
  }

  std::printf("\n");
  Table.print(outs());
  writeBalanceBenchJson("balance", Rows);
  return Failures == 0 ? 0 : 1;
}
