//===- bench/BenchUtil.cpp - Shared benchmark-harness helpers -------------===//

#include "BenchUtil.h"

#include "exec/ProgramExecutor.h"
#include "mpdata/InitialConditions.h"
#include "mpdata/Kernels.h"
#include "support/Format.h"
#include "support/OStream.h"

#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace icores;
using namespace icores::bench;

namespace {

/// The toy machine both sides of the model check target: enough sockets
/// for the requested island count, host-friendly team sizes.
MachineModel hostCheckMachine(int Islands) {
  MachineModel M = makeToyMachine();
  M.NumSockets = Islands;
  return M;
}

ExecutionPlan hostCheckPlan(const MpdataProgram &M, Strategy Strat,
                            int Islands, const Box3 &Grid) {
  PlanConfig Config;
  Config.Strat = Strat;
  Config.Sockets = Islands;
  return buildPlan(M.Program, Grid, hostCheckMachine(Islands), Config);
}

} // namespace

// Table 1 / Table 3 of the paper (seconds for 50 steps, P = 1..14).
const std::array<double, 14> icores::bench::PaperOriginalSerialInit = {
    30.4, 44.5, 58.2, 61.5, 64.3, 70.1, 71.6,
    73.7, 75.4, 77.6, 78.4, 78.2, 80.6, 82.2};
const std::array<double, 14> icores::bench::PaperOriginalFirstTouch = {
    30.4, 15.4, 10.5, 7.87, 6.55, 5.61, 4.95,
    4.27, 4.01, 3.58, 3.31, 3.14, 2.95, 2.81};
const std::array<double, 14> icores::bench::PaperBlock31D = {
    9.00, 8.20, 7.38, 7.98, 7.06, 7.22, 7.26,
    7.69, 9.11, 9.48, 10.2, 10.1, 10.3, 10.4};
const std::array<double, 14> icores::bench::PaperIslands = {
    9.00, 5.62, 4.17, 2.93, 2.34, 1.97, 1.72,
    1.49, 1.36, 1.25, 1.12, 1.06, 1.05, 1.01};

// Table 2 of the paper (percent extra elements).
const std::array<double, 14> icores::bench::PaperExtraVariantA = {
    0.00, 0.25, 0.49, 0.74, 0.99, 1.24, 1.48,
    1.73, 1.98, 2.22, 2.47, 2.72, 2.96, 3.21};
const std::array<double, 14> icores::bench::PaperExtraVariantB = {
    0.00, 0.49, 0.99, 1.48, 1.98, 2.47, 2.96,
    3.46, 3.95, 4.45, 4.94, 5.43, 5.93, 6.42};

// Table 4 of the paper (Gflop/s; the paper omits P=13, interpolated here).
const std::array<double, 14> icores::bench::PaperSustainedGflops = {
    42.7,  68.5,  92.5,  131.9, 165.5, 197.0, 226.1,
    261.4, 287.0, 325.9, 349.8, 370.3, 380.0, 390.1};

SimResult icores::bench::simulatePaperRun(const MpdataProgram &M,
                                          const MachineModel &Uv,
                                          Strategy Strat, int Sockets,
                                          PagePlacement Placement,
                                          PartitionVariant Variant) {
  PlanConfig Config;
  Config.Strat = Strat;
  Config.Sockets = Sockets;
  Config.Placement = Placement;
  Config.Variant = Variant;
  Box3 Grid = Box3::fromExtents(PaperNI, PaperNJ, PaperNK);
  ExecutionPlan Plan = buildPlan(M.Program, Grid, Uv, Config);
  return simulate(Plan, M.Program, Uv, PaperSteps);
}

SimResult icores::bench::simulateOptimizedPaperRun(
    const MpdataProgram &M, const MachineModel &Uv, Strategy Strat,
    int Sockets, ScheduleOptimizerReport *Report) {
  PlanConfig Config;
  Config.Strat = Strat;
  Config.Sockets = Sockets;
  Box3 Grid = Box3::fromExtents(PaperNI, PaperNJ, PaperNK);
  ExecutionPlan Plan = buildPlan(M.Program, Grid, Uv, Config);
  ScheduleOptimizerReport R = optimizeBarriers(M.Program, Plan);
  if (Report)
    *Report = R;
  return simulate(Plan, M.Program, Uv, PaperSteps);
}

int icores::bench::shapeCheck(bool Ok, const char *Description) {
  std::printf("  [%s] %s\n", Ok ? "PASS" : "FAIL", Description);
  return Ok ? 0 : 1;
}

std::string
icores::bench::writeBenchJson(const std::string &BenchName,
                              const std::vector<BenchJsonRow> &Rows) {
  const char *Dir = std::getenv("ICORES_BENCH_DIR");
  std::string Path = formatString("%s/BENCH_%s.json", Dir ? Dir : ".",
                                  BenchName.c_str());
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::printf("note: could not write %s\n", Path.c_str());
    return std::string();
  }
  std::fprintf(F, "{\n  \"schema\": \"icores.bench.v1\",\n");
  std::fprintf(F, "  \"bench\": \"%s\",\n", BenchName.c_str());
  std::fprintf(F, "  \"rows\": [");
  for (size_t I = 0; I != Rows.size(); ++I) {
    const BenchJsonRow &R = Rows[I];
    std::fprintf(F, "%s\n    {\"strategy\": \"%s\", \"p\": %d, "
                 "\"seconds\": %.9g, \"barrier_share\": %.9g, "
                 "\"total_barriers\": %lld, \"elided_barriers\": %lld, "
                 "\"optimized_seconds\": %.9g, \"gflops\": %.9g}",
                 I ? "," : "", R.Strategy.c_str(), R.P, R.Seconds,
                 R.BarrierShare, static_cast<long long>(R.TotalBarriers),
                 static_cast<long long>(R.ElidedBarriers),
                 R.OptimizedSeconds, R.Gflops);
  }
  std::fprintf(F, "\n  ]\n}\n");
  std::fclose(F);
  std::printf("wrote %s\n", Path.c_str());
  return Path;
}

std::string icores::bench::writeKernelBenchJson(
    const std::string &BenchName,
    const std::vector<KernelBenchJsonRow> &Rows) {
  const char *Dir = std::getenv("ICORES_BENCH_DIR");
  std::string Path = formatString("%s/BENCH_%s.json", Dir ? Dir : ".",
                                  BenchName.c_str());
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::printf("note: could not write %s\n", Path.c_str());
    return std::string();
  }
  std::fprintf(F, "{\n  \"schema\": \"icores.bench.v1\",\n");
  std::fprintf(F, "  \"bench\": \"%s\",\n", BenchName.c_str());
  std::fprintf(F, "  \"rows\": [");
  for (size_t I = 0; I != Rows.size(); ++I) {
    const KernelBenchJsonRow &R = Rows[I];
    std::fprintf(F,
                 "%s\n    {\"variant\": \"%s\", \"stage\": \"%s\", "
                 "\"region\": \"%s\", \"seconds\": %.9g, "
                 "\"gflops\": %.9g, \"gbps\": %.9g}",
                 I ? "," : "", R.Variant.c_str(), R.Stage.c_str(),
                 R.Region.c_str(), R.Seconds, R.Gflops, R.GBps);
  }
  std::fprintf(F, "\n  ]\n}\n");
  std::fclose(F);
  std::printf("wrote %s\n", Path.c_str());
  return Path;
}

std::string icores::bench::writeTemporalBenchJson(
    const std::string &BenchName,
    const std::vector<TemporalBenchJsonRow> &Rows) {
  const char *Dir = std::getenv("ICORES_BENCH_DIR");
  std::string Path = formatString("%s/BENCH_%s.json", Dir ? Dir : ".",
                                  BenchName.c_str());
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::printf("note: could not write %s\n", Path.c_str());
    return std::string();
  }
  std::fprintf(F, "{\n  \"schema\": \"icores.bench.v2\",\n");
  std::fprintf(F, "  \"bench\": \"%s\",\n", BenchName.c_str());
  std::fprintf(F, "  \"rows\": [");
  for (size_t I = 0; I != Rows.size(); ++I) {
    const TemporalBenchJsonRow &R = Rows[I];
    std::fprintf(F,
                 "%s\n    {\"workload\": \"%s\", \"strategy\": \"%s\", "
                 "\"temporal_depth\": %d, "
                 "\"measured_bytes_per_step\": %lld, "
                 "\"projected_bytes_per_step\": %lld, "
                 "\"seconds\": %.9g}",
                 I ? "," : "", R.Workload.c_str(), R.Strategy.c_str(),
                 R.TemporalDepth,
                 static_cast<long long>(R.MeasuredBytesPerStep),
                 static_cast<long long>(R.ProjectedBytesPerStep),
                 R.Seconds);
  }
  std::fprintf(F, "\n  ]\n}\n");
  std::fclose(F);
  std::printf("wrote %s\n", Path.c_str());
  return Path;
}

std::string icores::bench::writeNumaBenchJson(
    const std::string &BenchName,
    const std::vector<NumaBenchJsonRow> &Rows) {
  const char *Dir = std::getenv("ICORES_BENCH_DIR");
  std::string Path = formatString("%s/BENCH_%s.json", Dir ? Dir : ".",
                                  BenchName.c_str());
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::printf("note: could not write %s\n", Path.c_str());
    return std::string();
  }
  std::fprintf(F, "{\n  \"schema\": \"icores.bench.v2\",\n");
  std::fprintf(F, "  \"bench\": \"%s\",\n", BenchName.c_str());
  std::fprintf(F, "  \"rows\": [");
  for (size_t I = 0; I != Rows.size(); ++I) {
    const NumaBenchJsonRow &R = Rows[I];
    std::fprintf(F,
                 "%s\n    {\"workload\": \"%s\", \"strategy\": \"%s\", "
                 "\"temporal_depth\": %d, \"placement\": \"%s\", "
                 "\"remote_bytes_per_step\": %lld, "
                 "\"projected_remote_bytes_per_step\": %lld, "
                 "\"pages_first_touched\": %lld, "
                 "\"pin_failures\": %lld, "
                 "\"seconds\": %.9g}",
                 I ? "," : "", R.Workload.c_str(), R.Strategy.c_str(),
                 R.TemporalDepth, R.Placement.c_str(),
                 static_cast<long long>(R.RemoteBytesPerStep),
                 static_cast<long long>(R.ProjectedRemoteBytesPerStep),
                 static_cast<long long>(R.PagesFirstTouched),
                 static_cast<long long>(R.PinFailures), R.Seconds);
  }
  std::fprintf(F, "\n  ]\n}\n");
  std::fclose(F);
  std::printf("wrote %s\n", Path.c_str());
  return Path;
}

std::string icores::bench::writeBalanceBenchJson(
    const std::string &BenchName,
    const std::vector<BalanceBenchJsonRow> &Rows) {
  const char *Dir = std::getenv("ICORES_BENCH_DIR");
  std::string Path = formatString("%s/BENCH_%s.json", Dir ? Dir : ".",
                                  BenchName.c_str());
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::printf("note: could not write %s\n", Path.c_str());
    return std::string();
  }
  std::fprintf(F, "{\n  \"schema\": \"icores.bench.v2\",\n");
  std::fprintf(F, "  \"bench\": \"%s\",\n", BenchName.c_str());
  std::fprintf(F, "  \"rows\": [");
  for (size_t I = 0; I != Rows.size(); ++I) {
    const BalanceBenchJsonRow &R = Rows[I];
    std::fprintf(F,
                 "%s\n    {\"workload\": \"%s\", \"balance\": \"%s\", "
                 "\"stealing\": %s, "
                 "\"temporal_depth\": %d, \"islands\": %d, "
                 "\"predicted_skew_sim\": %.9g, "
                 "\"predicted_skew_exec\": %.9g, "
                 "\"measured_skew\": %.9g, \"max_imbalance\": %.9g, "
                 "\"steals\": %lld, \"steal_failures\": %lld, "
                 "\"idle_seconds\": %.9g, \"seconds\": %.9g}",
                 I ? "," : "", R.Workload.c_str(), R.Balance.c_str(),
                 R.Stealing ? "true" : "false", R.TemporalDepth, R.Islands,
                 R.PredictedSkewSim, R.PredictedSkewExec, R.MeasuredSkew,
                 R.MaxImbalance, static_cast<long long>(R.Steals),
                 static_cast<long long>(R.StealFailures), R.IdleSeconds,
                 R.Seconds);
  }
  std::fprintf(F, "\n  ]\n}\n");
  std::fclose(F);
  std::printf("wrote %s\n", Path.c_str());
  return Path;
}

MeasuredProfile icores::bench::measureHostRun(const MpdataProgram &M,
                                              Strategy Strat, int Islands,
                                              int NI, int NJ, int NK,
                                              int Steps, bool Optimize) {
  Domain Dom(NI, NJ, NK, mpdataHaloDepth());
  ExecutionPlan Plan = hostCheckPlan(M, Strat, Islands, Dom.coreBox());
  if (Optimize)
    optimizeBarriers(M.Program, Plan);
  ProgramExecutor Exec(M.Program, buildMpdataKernels(), Dom,
                       std::move(Plan));
  seedMpdata(Exec, M, 42, 0.1, 2.0, 0.25, -0.2, 0.15);
  Exec.enableProfiling(true);
  Exec.run(Steps);

  const ExecStats &Stats = Exec.stats();
  MeasuredProfile P;
  P.KernelSeconds = Stats.kernelSeconds();
  P.TeamBarrierWaitSeconds = Stats.teamBarrierWaitSeconds();
  P.WallSeconds = Stats.WallSeconds;
  P.ThreadsSpawned = Stats.ThreadsSpawned;
  P.RunCalls = Stats.RunCalls;
  P.ElidedBarriers = Stats.barriersElided();
  P.SpinWakes = Stats.spinWakes();
  P.SleepWakes = Stats.sleepWakes();
  return P;
}

SimResult icores::bench::simulateHostRun(const MpdataProgram &M,
                                         Strategy Strat, int Islands,
                                         int NI, int NJ, int NK, int Steps,
                                         bool Optimize) {
  ExecutionPlan Plan =
      hostCheckPlan(M, Strat, Islands, Box3::fromExtents(NI, NJ, NK));
  if (Optimize)
    optimizeBarriers(M.Program, Plan);
  return simulate(Plan, M.Program, hostCheckMachine(Islands), Steps);
}

int icores::bench::printBarrierShareModelCheck(const MpdataProgram &M,
                                               int Islands, int Steps) {
  constexpr int NI = 64, NJ = 32, NK = 16;
  std::printf("\nmodel check: predicted vs measured barrier share "
              "(real executor, %dx%dx%d, %d steps, %d islands on this "
              "host)\n",
              NI, NJ, NK, Steps, Islands);
  unsigned HostThreads = std::thread::hardware_concurrency();
  int PlanThreads = Islands * hostCheckMachine(Islands).CoresPerSocket;
  if (HostThreads != 0 && PlanThreads > static_cast<int>(HostThreads))
    std::printf("note: plan runs %d threads on %u hardware threads — "
                "oversubscription inflates the measured share\n",
                PlanThreads, HostThreads);
  std::vector<ModelCompareRow> Rows;
  for (Strategy Strat : {Strategy::Original, Strategy::Block31D,
                         Strategy::IslandsOfCores}) {
    for (bool Optimize : {false, true}) {
      SimResult Predicted =
          simulateHostRun(M, Strat, Islands, NI, NJ, NK, Steps, Optimize);
      MeasuredProfile Measured =
          measureHostRun(M, Strat, Islands, NI, NJ, NK, Steps, Optimize);
      ModelCompareRow Row;
      Row.Label = Optimize
                      ? formatString("%s+elide", strategyName(Strat))
                      : std::string(strategyName(Strat));
      Row.Comparison = compareBarrierShare(Predicted.CriticalIsland,
                                           Measured.KernelSeconds,
                                           Measured.TeamBarrierWaitSeconds);
      Rows.push_back(Row);
    }
  }
  printModelCompareTable(Rows, outs());
  return static_cast<int>(Rows.size());
}
