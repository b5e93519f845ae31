//===- bench/BenchUtil.cpp - Shared benchmark-harness helpers -------------===//

#include "BenchUtil.h"

#include "exec/ProgramExecutor.h"
#include "mpdata/InitialConditions.h"
#include "mpdata/Kernels.h"
#include "support/Format.h"
#include "support/OStream.h"
#include "support/Table.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace icores;
using namespace icores::bench;

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

namespace {

/// Opens BENCH_<name>.json in $ICORES_BENCH_DIR (default: the current
/// directory) and writes the icores.bench.v1 envelope up to the rows
/// list. Returns null, after a note, when the file cannot be created.
std::FILE *openBenchJson(const std::string &BenchName, std::string &Path) {
  const char *Dir = std::getenv("ICORES_BENCH_DIR");
  Path = formatString("%s/BENCH_%s.json", Dir ? Dir : ".",
                      BenchName.c_str());
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::printf("note: could not write %s\n", Path.c_str());
    return nullptr;
  }
  std::fprintf(F, "{\n  \"schema\": \"icores.bench.v1\",\n");
  std::fprintf(F, "  \"bench\": \"%s\",\n", BenchName.c_str());
  std::fprintf(F, "  \"rows\": [");
  return F;
}

std::string closeBenchJson(std::FILE *F, const std::string &Path) {
  std::fprintf(F, "\n  ]\n}\n");
  std::fclose(F);
  std::printf("wrote %s\n", Path.c_str());
  return Path;
}

} // namespace

std::string
icores::bench::writeBenchJson(const std::string &BenchName,
                              const std::vector<BenchJsonRow> &Rows) {
  std::string Path;
  std::FILE *F = openBenchJson(BenchName, Path);
  if (!F)
    return std::string();
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
  return closeBenchJson(F, Path);
}

std::string icores::bench::writeKernelBenchJson(
    const std::string &BenchName,
    const std::vector<KernelBenchJsonRow> &Rows) {
  std::string Path;
  std::FILE *F = openBenchJson(BenchName, Path);
  if (!F)
    return std::string();
  for (size_t I = 0; I != Rows.size(); ++I) {
    const KernelBenchJsonRow &R = Rows[I];
    std::fprintf(F,
                 "%s\n    {\"variant\": \"%s\", \"stage\": \"%s\", "
                 "\"region\": \"%s\", \"seconds\": %.9g, "
                 "\"gflops\": %.9g, \"gbps\": %.9g}",
                 I ? "," : "", R.Variant.c_str(), R.Stage.c_str(),
                 R.Region.c_str(), R.Seconds, R.Gflops, R.GBps);
  }
  return closeBenchJson(F, Path);
}

namespace {

constexpr int CheckNI = 64, CheckNJ = 32, CheckNK = 16, CheckSteps = 5;
/// One 5-step run's measured share swings several-fold on a busy or
/// oversubscribed host; the median of this many runs is stable enough to
/// read the model error's sign on most rows (EXPERIMENTS.md, "Model
/// check").
constexpr int ModelCheckRuns = 9;

/// The toy machine both sides of the model check target: enough sockets
/// for the requested island count, host-friendly team sizes.
MachineModel hostCheckMachine(int Islands) {
  MachineModel M = makeToyMachine();
  M.NumSockets = Islands;
  return M;
}

/// Predicted vs measured share of barrier time for one configuration.
/// The executor's team-barrier waits correspond to the simulator's Barrier
/// term; its kernel time covers Compute + Dram + Remote (the kernels both
/// compute and stream); the global barriers and turnover (Overhead) are
/// excluded from both shares.
struct BarrierShareComparison {
  double PredictedShare = 0.0; ///< Barrier / (Compute+Dram+Remote+Barrier).
  double MeasuredShare = 0.0;  ///< Barrier wait / (kernel + barrier wait).

  /// Model error in percentage points (positive: model over-predicts).
  double errorPoints() const {
    return (PredictedShare - MeasuredShare) * 100.0;
  }
};

BarrierShareComparison compareBarrierShare(const SimBreakdown &Predicted,
                                           double MeasuredKernelSeconds,
                                           double MeasuredBarrierWaitSeconds) {
  BarrierShareComparison C;
  double PredictedTotal = Predicted.Compute + Predicted.Dram +
                          Predicted.Remote + Predicted.Barrier;
  if (PredictedTotal > 0.0)
    C.PredictedShare = Predicted.Barrier / PredictedTotal;
  double MeasuredTotal = MeasuredKernelSeconds + MeasuredBarrierWaitSeconds;
  if (MeasuredTotal > 0.0)
    C.MeasuredShare = MeasuredBarrierWaitSeconds / MeasuredTotal;
  return C;
}

ExecutionPlan hostCheckPlan(const MpdataProgram &M, const ModelCheckCase &C,
                            const Box3 &Grid) {
  PlanConfig Config;
  Config.Strat = C.Strat;
  Config.Sockets = C.Islands;
  ExecutionPlan Plan =
      buildPlan(M.Program, Grid, hostCheckMachine(C.Islands), Config);
  if (C.Optimize)
    optimizeBarriers(M.Program, Plan);
  return Plan;
}

/// Runs the case's plan on the real threaded executor with profiling on
/// and compares the measured barrier share against \p Predicted.
BarrierShareComparison measureHostRun(const MpdataProgram &M,
                                      const ModelCheckCase &C,
                                      const SimBreakdown &Predicted) {
  Domain Dom(CheckNI, CheckNJ, CheckNK, mpdataHaloDepth());
  ProgramExecutor Exec(M.Program, buildMpdataKernels(), Dom,
                       hostCheckPlan(M, C, Dom.coreBox()));
  seedMpdata(Exec, M, 42, 0.1, 2.0, 0.25, -0.2, 0.15);
  Exec.enableProfiling(true);
  Exec.run(CheckSteps);
  const ExecStats &Stats = Exec.stats();
  return compareBarrierShare(Predicted, Stats.kernelSeconds(),
                             Stats.teamBarrierWaitSeconds());
}

} // namespace

void icores::bench::printBarrierShareModelCheck(
    const MpdataProgram &M, const std::string &Title,
    const std::vector<ModelCheckCase> &Cases) {
  std::printf("\nmodel check: predicted vs measured barrier share for %s "
              "(real executor, %dx%dx%d, %d steps, median of %d runs)\n",
              Title.c_str(), CheckNI, CheckNJ, CheckNK, CheckSteps,
              ModelCheckRuns);
  unsigned HostThreads = std::thread::hardware_concurrency();
  int PlanThreads = 0;
  for (const ModelCheckCase &C : Cases)
    PlanThreads = std::max(PlanThreads,
                           C.Islands * hostCheckMachine(C.Islands)
                                           .CoresPerSocket);
  if (HostThreads != 0 && PlanThreads > static_cast<int>(HostThreads))
    std::printf("note: plans run up to %d threads on %u hardware threads "
                "— oversubscription inflates the measured share\n",
                PlanThreads, HostThreads);
  TablePrinter Table({"Configuration", "Predicted barrier [%]",
                      "Measured barrier [%]", "Measured min-max [%]",
                      "Model error [pts]"});
  for (const ModelCheckCase &C : Cases) {
    SimResult Predicted =
        simulate(hostCheckPlan(M, C,
                               Box3::fromExtents(CheckNI, CheckNJ, CheckNK)),
                 M.Program, hostCheckMachine(C.Islands), CheckSteps);
    std::vector<BarrierShareComparison> Runs;
    for (int R = 0; R != ModelCheckRuns; ++R)
      Runs.push_back(measureHostRun(M, C, Predicted.CriticalIsland));
    std::sort(Runs.begin(), Runs.end(),
              [](const BarrierShareComparison &A,
                 const BarrierShareComparison &B) {
                return A.MeasuredShare < B.MeasuredShare;
              });
    const BarrierShareComparison &Median = Runs[Runs.size() / 2];
    Table.addRow({C.Label, formatFixed(Median.PredictedShare * 100.0, 2),
                  formatFixed(Median.MeasuredShare * 100.0, 2),
                  formatFixed(Runs.front().MeasuredShare * 100.0, 2) +
                      "-" +
                      formatFixed(Runs.back().MeasuredShare * 100.0, 2),
                  formatFixed(Median.errorPoints(), 2)});
  }
  Table.print(outs());
}
