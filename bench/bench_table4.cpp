//===- bench/bench_table4.cpp - Reproduce Table 4 -------------------------===//
//
// Table 4: sustained performance (Gflop/s) of the islands-of-cores
// approach, utilization relative to theoretical peak, and parallel
// efficiency, for P = 1..14 processors of the SGI UV 2000.
//
// Note on the efficiency row: the paper's "% of linear scaling" numbers
// coincide exactly with the *original* version's time-based scaling
// efficiency (e.g. 30.4/(14*2.81) = 77.3%); we print both that definition
// (to mirror the paper) and the honest islands-based definition.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "support/Format.h"
#include "support/OStream.h"
#include "support/Table.h"

#include <cstdio>

using namespace icores;
using namespace icores::bench;

int main() {
  std::printf("=== Table 4: sustained performance of islands-of-cores "
              "(1024x512x64, 50 steps) ===\n");
  std::printf("paper values in parentheses\n\n");

  MpdataProgram M = buildMpdataProgram();
  MachineModel Uv = makeSgiUv2000();

  TablePrinter Table({"#CPUs", "Peak Gflop/s", "Sustained Gflop/s",
                      "Utilization [%]", "Efficiency (paper def.) [%]",
                      "Efficiency (islands) [%]"});
  std::array<double, 14> Sustained{}, Util{};
  std::array<double, 14> OrigTimes{}, IslTimes{};
  for (int P = 1; P <= PaperMaxCpus; ++P) {
    SimResult R = simulatePaperRun(M, Uv, Strategy::IslandsOfCores, P);
    OrigTimes[P - 1] =
        simulatePaperRun(M, Uv, Strategy::Original, P).TotalSeconds;
    IslTimes[P - 1] = R.TotalSeconds;
    Sustained[P - 1] = R.sustainedGflops();
    Util[P - 1] = Sustained[P - 1] * 1e9 / Uv.peakFlops(P);
    double EffPaperDef =
        OrigTimes[0] / (P * OrigTimes[P - 1]) * 100.0;
    double EffIslands = IslTimes[0] / (P * IslTimes[P - 1]) * 100.0;
    Table.addRow({formatString("%d", P),
                  formatString("%.1f", Uv.peakFlops(P) / 1e9),
                  formatString("%.1f (%.1f)", Sustained[P - 1],
                               PaperSustainedGflops[P - 1]),
                  formatString("%.1f", Util[P - 1] * 100.0),
                  formatString("%.1f", EffPaperDef),
                  formatString("%.1f", EffIslands)});
  }
  Table.print(outs());
  std::printf("\nnote: our kernels count %lld flops/point/step; the "
              "authors' count is ~229, so sustained figures scale "
              "accordingly\n",
              static_cast<long long>(M.Program.totalFlopsPerPoint()));

  std::printf("\nshape checks:\n");
  int Failures = 0;
  bool SustainedMonotone = true;
  for (int P = 2; P <= PaperMaxCpus; ++P)
    if (Sustained[P - 1] <= Sustained[P - 2])
      SustainedMonotone = false;
  Failures += shapeCheck(SustainedMonotone,
                         "sustained Gflop/s grows with every added CPU");
  Failures += shapeCheck(Sustained[13] > 300.0,
                         "hundreds of Gflop/s at P=14 (paper: 390)");
  bool UtilBand = true;
  for (int P = 2; P <= PaperMaxCpus; ++P)
    if (Util[P - 1] < 0.20 || Util[P - 1] > 0.55)
      UtilBand = false;
  Failures += shapeCheck(UtilBand,
                         "utilization stays within 20-55% (paper: "
                         "~26-40%)");
  Failures += shapeCheck(Util[13] < Util[1],
                         "utilization declines at the largest "
                         "configuration");

  // Machine-readable rows (BENCH_table4.json): sustained Gflop/s plus
  // the barrier-elision savings for the islands strategy at every P.
  std::vector<BenchJsonRow> JsonRows;
  for (int P = 1; P <= PaperMaxCpus; ++P) {
    SimResult Plain = simulatePaperRun(M, Uv, Strategy::IslandsOfCores, P);
    ScheduleOptimizerReport Report;
    SimResult Opt =
        simulateOptimizedPaperRun(M, Uv, Strategy::IslandsOfCores, P,
                                  &Report);
    BenchJsonRow Row;
    Row.Strategy = strategyName(Strategy::IslandsOfCores);
    Row.P = P;
    Row.Seconds = Plain.TotalSeconds;
    Row.BarrierShare =
        Plain.CriticalIsland.total() > 0.0
            ? Plain.CriticalIsland.Barrier / Plain.CriticalIsland.total()
            : 0.0;
    Row.TotalBarriers = Report.TotalPasses;
    Row.ElidedBarriers = Report.ElidedBarriers;
    Row.OptimizedSeconds = Opt.TotalSeconds;
    Row.Gflops = Plain.sustainedGflops();
    JsonRows.push_back(Row);
  }
  writeBenchJson("table4", JsonRows);

  // Model-error column against the real executor (see bench_table3 for
  // the strategy sweep; here the islands count varies instead), covering
  // both the stock and the barrier-elision-optimized schedules.
  std::printf("\nmodel check: predicted vs measured barrier share for "
              "islands-of-cores (real executor, 64x32x16, 5 steps)\n");
  std::vector<ModelCompareRow> Rows;
  for (int Islands : {1, 2, 4}) {
    for (bool Optimize : {false, true}) {
      SimResult Predicted = simulateHostRun(M, Strategy::IslandsOfCores,
                                            Islands, 64, 32, 16, 5, Optimize);
      MeasuredProfile Measured = measureHostRun(M, Strategy::IslandsOfCores,
                                                Islands, 64, 32, 16, 5,
                                                Optimize);
      ModelCompareRow Row;
      Row.Label = formatString(Optimize ? "islands P=%d+elide"
                                        : "islands P=%d",
                               Islands);
      Row.Comparison = compareBarrierShare(Predicted.CriticalIsland,
                                           Measured.KernelSeconds,
                                           Measured.TeamBarrierWaitSeconds);
      Rows.push_back(Row);
    }
  }
  printModelCompareTable(Rows, outs());

  return Failures == 0 ? 0 : 1;
}
