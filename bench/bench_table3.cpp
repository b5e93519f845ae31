//===- bench/bench_table3.cpp - Reproduce Table 3 -------------------------===//
//
// Table 3: execution times for the original version, the pure (3+1)D
// decomposition and the islands-of-cores approach, plus the partial
// speedup S_pr (islands vs (3+1)D) and overall speedup S_ov (islands vs
// original), for P = 1..14 processors.
//
// Headline shape: S_pr grows with P and exceeds 10x at P=14, while S_ov
// stays roughly constant (~2.7-3) — the islands approach preserves the
// (3+1)D cache gain at every machine size.
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
  std::printf("=== Table 3: strategy comparison on SGI UV 2000 "
              "(1024x512x64, 50 steps) ===\n");
  std::printf("paper values in parentheses; simulated seconds\n\n");

  MpdataProgram M = buildMpdataProgram();
  MachineModel Uv = makeSgiUv2000();

  TablePrinter Table({"#CPUs", "Original", "(3+1)D", "Islands", "S_pr",
                      "S_ov"});
  std::array<double, 14> Orig{}, Blocked{}, Isl{};
  for (int P = 1; P <= PaperMaxCpus; ++P) {
    Orig[P - 1] = simulatePaperRun(M, Uv, Strategy::Original, P).TotalSeconds;
    Blocked[P - 1] =
        simulatePaperRun(M, Uv, Strategy::Block31D, P).TotalSeconds;
    Isl[P - 1] =
        simulatePaperRun(M, Uv, Strategy::IslandsOfCores, P).TotalSeconds;
    double SPr = Blocked[P - 1] / Isl[P - 1];
    double SOv = Orig[P - 1] / Isl[P - 1];
    double PaperSPr = PaperBlock31D[P - 1] / PaperIslands[P - 1];
    double PaperSOv = PaperOriginalFirstTouch[P - 1] / PaperIslands[P - 1];
    Table.addRow(
        {formatString("%d", P),
         formatString("%5.2f (%5.2f)", Orig[P - 1],
                      PaperOriginalFirstTouch[P - 1]),
         formatString("%5.2f (%5.2f)", Blocked[P - 1], PaperBlock31D[P - 1]),
         formatString("%5.2f (%5.2f)", Isl[P - 1], PaperIslands[P - 1]),
         formatString("%5.2f (%5.2f)", SPr, PaperSPr),
         formatString("%5.2f (%5.2f)", SOv, PaperSOv)});
  }
  Table.print(outs());

  std::printf("\nshape checks:\n");
  int Failures = 0;
  Failures += shapeCheck(Isl[0] == Blocked[0],
                         "islands == (3+1)D at P=1 (same plan)");
  bool Monotone = true;
  for (int P = 2; P <= PaperMaxCpus; ++P)
    if (Isl[P - 1] >= Isl[P - 2])
      Monotone = false;
  Failures += shapeCheck(Monotone, "islands times fall monotonically in P");
  bool FastestEverywhere = true;
  for (int P = 2; P <= PaperMaxCpus; ++P)
    if (Isl[P - 1] >= Orig[P - 1] || Isl[P - 1] >= Blocked[P - 1])
      FastestEverywhere = false;
  Failures += shapeCheck(FastestEverywhere,
                         "islands fastest of the three for all P >= 2");
  double SPr14 = Blocked[13] / Isl[13];
  Failures += shapeCheck(SPr14 > 8.0,
                         "S_pr approaches the paper's >10x at P=14");
  double SOvMin = 1e9, SOvMax = 0.0;
  for (int P = 2; P <= PaperMaxCpus; ++P) {
    double SOv = Orig[P - 1] / Isl[P - 1];
    SOvMin = SOv < SOvMin ? SOv : SOvMin;
    SOvMax = SOv > SOvMax ? SOv : SOvMax;
  }
  Failures += shapeCheck(SOvMax / SOvMin < 1.5,
                         "S_ov roughly constant across P (within 1.5x)");

  // --- Barrier elision: the schedule optimizer's per-step savings -------
  // The optimizer clears provably redundant BarrierAfter bits; the
  // simulator charges only the barriers that remain. Machine-readable
  // rows for every (strategy, P) go to BENCH_table3.json so the perf
  // trajectory is tracked across PRs.
  std::printf("\nbarrier elision (schedule optimizer, team barriers per "
              "step):\n");
  TablePrinter ETable({"strategy", "#CPUs", "barriers", "elided",
                       "remaining", "seconds", "optimized"});
  std::vector<BenchJsonRow> JsonRows;
  int64_t Elided31D14 = 0, Total31D14 = 0;
  bool OptimizedNoSlower = true, EveryStrategyElides = true;
  for (Strategy Strat : {Strategy::Original, Strategy::Block31D,
                         Strategy::IslandsOfCores}) {
    for (int P = 1; P <= PaperMaxCpus; ++P) {
      SimResult Plain = simulatePaperRun(M, Uv, Strat, P);
      ScheduleOptimizerReport Report;
      SimResult Opt = simulateOptimizedPaperRun(M, Uv, Strat, P, &Report);
      BenchJsonRow Row;
      Row.Strategy = strategyName(Strat);
      Row.P = P;
      Row.Seconds = Plain.TotalSeconds;
      Row.BarrierShare =
          Plain.CriticalIsland.total() > 0.0
              ? Plain.CriticalIsland.Barrier / Plain.CriticalIsland.total()
              : 0.0;
      Row.TotalBarriers = Report.TotalPasses;
      Row.ElidedBarriers = Report.ElidedBarriers;
      Row.OptimizedSeconds = Opt.TotalSeconds;
      JsonRows.push_back(Row);
      if (Opt.TotalSeconds > Plain.TotalSeconds + 1e-12)
        OptimizedNoSlower = false;
      if (P == PaperMaxCpus && Report.ElidedBarriers == 0)
        EveryStrategyElides = false;
      if (Strat == Strategy::Block31D && P == PaperMaxCpus) {
        Elided31D14 = Report.ElidedBarriers;
        Total31D14 = Report.TotalPasses;
      }
      if (P == 2 || P == PaperMaxCpus)
        ETable.addRow(
            {strategyName(Strat), formatString("%d", P),
             formatString("%lld", static_cast<long long>(Report.TotalPasses)),
             formatString("%lld",
                          static_cast<long long>(Report.ElidedBarriers)),
             formatString("%lld",
                          static_cast<long long>(Report.remainingBarriers())),
             formatString("%5.2f", Plain.TotalSeconds),
             formatString("%5.2f", Opt.TotalSeconds)});
    }
  }
  ETable.print(outs());
  std::printf("\nelision shape checks:\n");
  Failures += shapeCheck(
      Elided31D14 > 0 && Total31D14 > 0 &&
          static_cast<double>(Elided31D14) / static_cast<double>(Total31D14) >=
              0.3,
      "(3+1)D at P=14: at least 30% of per-step barriers elided");
  Failures += shapeCheck(EveryStrategyElides,
                         "every strategy elides some barriers at P=14");
  Failures += shapeCheck(OptimizedNoSlower,
                         "optimized schedules never slower in the model");
  writeBenchJson("table3", JsonRows);

  // Close the loop against the real executor: the barrier share the
  // simulator predicts for each strategy, stock and barrier-elision
  // optimized, vs the share ExecStats measures on this host
  // (informational; host timings vary run to run).
  std::vector<ModelCheckCase> Cases;
  for (Strategy Strat : {Strategy::Original, Strategy::Block31D,
                         Strategy::IslandsOfCores})
    for (bool Optimize : {false, true})
      Cases.push_back({formatString(Optimize ? "%s+elide" : "%s",
                                    strategyName(Strat)),
                       Strat, /*Islands=*/2, Optimize});
  printBarrierShareModelCheck(M, "each strategy on 2 islands", Cases);

  return Failures == 0 ? 0 : 1;
}
