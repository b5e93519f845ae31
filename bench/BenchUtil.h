//===- bench/BenchUtil.h - Shared benchmark-harness helpers -----*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the table-reproduction benchmarks: the paper's
/// published numbers (for side-by-side printing), a one-call wrapper that
/// plans and simulates a strategy on the UV 2000 model, and shape checks
/// that flag regressions in the reproduced trends.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_BENCH_BENCHUTIL_H
#define ICORES_BENCH_BENCHUTIL_H

#include "core/PlanBuilder.h"
#include "core/ScheduleOptimizer.h"
#include "machine/MachineModel.h"
#include "mpdata/MpdataProgram.h"
#include "sim/Simulator.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace icores {
namespace bench {

/// The paper's benchmark configuration: grid 1024x512x64, 50 time steps.
inline constexpr int PaperNI = 1024;
inline constexpr int PaperNJ = 512;
inline constexpr int PaperNK = 64;
inline constexpr int PaperSteps = 50;
inline constexpr int PaperMaxCpus = 14;

/// Published numbers, indexed by P-1 (Tables 1, 3 and 4 of the paper).
extern const std::array<double, 14> PaperOriginalSerialInit;
extern const std::array<double, 14> PaperOriginalFirstTouch;
extern const std::array<double, 14> PaperBlock31D;
extern const std::array<double, 14> PaperIslands;
extern const std::array<double, 14> PaperExtraVariantA; // Table 2, percent.
extern const std::array<double, 14> PaperExtraVariantB;
extern const std::array<double, 14> PaperSustainedGflops; // Table 4 (P=13
                                                          // interpolated).

/// One-call wrapper: builds the plan for (Strat, Sockets, Placement) on
/// the paper's grid and simulates 50 steps on the UV 2000 model.
SimResult simulatePaperRun(const MpdataProgram &M, const MachineModel &Uv,
                           Strategy Strat, int Sockets,
                           PagePlacement Placement =
                               PagePlacement::FirstTouch,
                           PartitionVariant Variant = PartitionVariant::A);

/// simulatePaperRun() with the barrier-elision optimizer applied to the
/// plan first. The optimizer's report (total/elided barrier counts) is
/// returned through \p Report when non-null.
SimResult simulateOptimizedPaperRun(
    const MpdataProgram &M, const MachineModel &Uv, Strategy Strat,
    int Sockets, ScheduleOptimizerReport *Report = nullptr);

/// Prints a "shape check" verdict line: PASS/FAIL with a description.
/// Returns 0 for pass, 1 for fail (accumulate into main's exit code).
int shapeCheck(bool Ok, const char *Description);

/// One row of a machine-readable bench record (schema icores.bench.v1),
/// written so the perf trajectory can be tracked across PRs.
struct BenchJsonRow {
  std::string Strategy;
  int P = 0;
  double Seconds = 0.0;      ///< Simulated seconds for the paper run.
  double BarrierShare = 0.0; ///< Predicted critical-island barrier share.
  int64_t TotalBarriers = 0; ///< Per-step team barriers before elision.
  int64_t ElidedBarriers = 0; ///< Per-step barriers the optimizer removed.
  double OptimizedSeconds = 0.0; ///< Same run under the optimized plan.
  double Gflops = 0.0; ///< Sustained Gflop/s (0 when not tracked).
};

/// Writes BENCH_<name>.json into the directory named by $ICORES_BENCH_DIR
/// (default: the current directory). Returns the path written, or "" when
/// the file could not be created.
std::string writeBenchJson(const std::string &BenchName,
                           const std::vector<BenchJsonRow> &Rows);

/// One row of the per-stage kernel-roofline record (the second row shape
/// of schema icores.bench.v1, distinguished by the "variant" field; see
/// bench/validate_bench_json.py). Stage "all" rows carry the aggregate
/// over a full 17-stage sweep.
struct KernelBenchJsonRow {
  std::string Variant; ///< "ref", "opt" or "simd".
  std::string Stage;   ///< IR stage name, or "all" for the aggregate.
  std::string Region;  ///< "hot" (cache-resident) or "cold" (streaming).
  double Seconds = 0.0; ///< Best-of-reps seconds for one sweep.
  double Gflops = 0.0;  ///< IR flops / Seconds / 1e9.
  double GBps = 0.0;    ///< Logical (unpadded) IR bytes / Seconds / 1e9.
};

/// writeBenchJson() for kernel-roofline rows.
std::string
writeKernelBenchJson(const std::string &BenchName,
                     const std::vector<KernelBenchJsonRow> &Rows);

/// One configuration of the barrier-share model check: a strategy and
/// island count planned on the toy host machine, stock or with barrier
/// elision applied.
struct ModelCheckCase {
  std::string Label;
  Strategy Strat = Strategy::IslandsOfCores;
  int Islands = 1;
  bool Optimize = false;
};

/// Prints the predicted-vs-measured barrier-share table for \p Cases on
/// a small host grid (64x32x16, 5 steps). The predicted share comes from
/// the simulator on the toy machine; the measured share is the median of
/// 9 profiled runs of the real threaded executor on the same plan,
/// printed with its min-max spread so host noise is visible next to the
/// "model error" column. Purely informational: host timings are noisy.
void printBarrierShareModelCheck(const MpdataProgram &M,
                                 const std::string &Title,
                                 const std::vector<ModelCheckCase> &Cases);

} // namespace bench
} // namespace icores

#endif // ICORES_BENCH_BENCHUTIL_H
