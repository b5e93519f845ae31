//===- bench/BenchUtil.cpp - Shared benchmark-harness helpers -------------===//

#include "BenchUtil.h"

#include "support/Format.h"

#include <cstdio>
#include <cstdlib>

using namespace icores;
using namespace icores::bench;

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
