//===- bench/BenchUtil.h - Shared benchmark-harness helpers -----*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the two bench drivers, paper_tables (the paper's
/// model tables) and bench_kernels (host-measured kernel timings): shape
/// checks that flag regressions in the reproduced trends, and the
/// machine-readable BENCH_<name>.json records.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_BENCH_BENCHUTIL_H
#define ICORES_BENCH_BENCHUTIL_H

#include <cstdint>
#include <string>
#include <vector>

namespace icores {
namespace bench {

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
  std::string Variant; ///< "ref" or "simd".
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

} // namespace bench
} // namespace icores

#endif // ICORES_BENCH_BENCHUTIL_H
