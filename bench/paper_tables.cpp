//===- bench/paper_tables.cpp - Every model table and figure of the paper -===//
//
// One driver for the paper's claims that the performance model
// reproduces, one section per table or figure, always in this order:
//
//   Fig. 1      exchange vs recompute on a 3-stage chain and at MPDATA scale
//   Table 1     original (serial init, first touch) vs (3+1)D, P = 1..14
//   Table 2     redundant elements of 1D island splits A and B
//   Sect. 3.2   DRAM traffic 133 GB -> 30 GB on one E5-2660v2
//   Table 3     original vs (3+1)D vs islands with S_pr, S_ov, plus barrier
//               elision (writes BENCH_table3.json)
//   Fig. 2      the Table 3 series as CSV and ASCII curves
//   Table 4     sustained Gflop/s, utilization, efficiency (writes
//               BENCH_table4.json)
//   ablations   island partitioning, interconnect quality, cache budget,
//               islands within a CPU
//   cluster     the future-work multi-node extension
//
// Each section prints its table, with the paper's values in parentheses
// where the paper has them, then its shape checks; the driver exits 1 if
// any check FAILs. The P = 1..14 UV 2000 sweep that Tables 1, 3 and 4 and
// Fig. 2 read is simulated once. Every number is a model output,
// independent of the host, so tests/golden/paper_tables.txt pins the text.
// BENCH_*.json land in $ICORES_BENCH_DIR (default: the current directory).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/Partition.h"
#include "core/BlockPlanner.h"
#include "core/PlanBuilder.h"
#include "core/ScheduleOptimizer.h"
#include "dist/ClusterSim.h"
#include "machine/MachineModel.h"
#include "mpdata/MpdataProgram.h"
#include "sim/Simulator.h"
#include "stencil/ExtraElements.h"
#include "support/Format.h"
#include "support/OStream.h"
#include "support/Table.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <iterator>

using namespace icores;
using namespace icores::bench;

namespace {

/// The paper's benchmark configuration: grid 1024x512x64, 50 time steps,
/// up to 14 CPUs of the SGI UV 2000.
constexpr int PaperNI = 1024, PaperNJ = 512, PaperNK = 64;
constexpr int PaperSteps = 50;
constexpr int PaperMaxCpus = 14;
using PerCpu = std::array<double, PaperMaxCpus>; ///< Indexed by P-1.

// Tables 1 and 3 of the paper (seconds for 50 steps).
const PerCpu PaperOriginalSerialInit = {30.4, 44.5, 58.2, 61.5, 64.3,
                                        70.1, 71.6, 73.7, 75.4, 77.6,
                                        78.4, 78.2, 80.6, 82.2};
const PerCpu PaperOriginalFirstTouch = {30.4, 15.4, 10.5, 7.87, 6.55,
                                        5.61, 4.95, 4.27, 4.01, 3.58,
                                        3.31, 3.14, 2.95, 2.81};
const PerCpu PaperBlock31D = {9.00, 8.20, 7.38, 7.98, 7.06, 7.22, 7.26,
                              7.69, 9.11, 9.48, 10.2, 10.1, 10.3, 10.4};
const PerCpu PaperIslands = {9.00, 5.62, 4.17, 2.93, 2.34, 1.97, 1.72,
                             1.49, 1.36, 1.25, 1.12, 1.06, 1.05, 1.01};
// Table 2 of the paper (percent extra elements per island count).
const PerCpu PaperExtraVariantA = {0.00, 0.25, 0.49, 0.74, 0.99,
                                   1.24, 1.48, 1.73, 1.98, 2.22,
                                   2.47, 2.72, 2.96, 3.21};
const PerCpu PaperExtraVariantB = {0.00, 0.49, 0.99, 1.48, 1.98,
                                   2.47, 2.96, 3.46, 3.95, 4.45,
                                   4.94, 5.43, 5.93, 6.42};
// Table 4 of the paper (Gflop/s; the paper omits P=13, interpolated here).
const PerCpu PaperSustainedGflops = {42.7,  68.5,  92.5,  131.9, 165.5,
                                     197.0, 226.1, 261.4, 287.0, 325.9,
                                     349.8, 370.3, 380.0, 390.1};

const Box3 PaperGrid = Box3::fromExtents(PaperNI, PaperNJ, PaperNK);

PlanConfig paperConfig(Strategy Strat, int Sockets) {
  PlanConfig Config;
  Config.Strat = Strat;
  Config.Sockets = Sockets;
  return Config;
}

/// Plans \p Config over the paper's grid and simulates 50 steps.
SimResult paperRun(const MpdataProgram &M, const MachineModel &Machine,
                   const PlanConfig &Config) {
  ExecutionPlan Plan = buildPlan(M.Program, PaperGrid, Machine, Config);
  return simulate(Plan, M.Program, Machine, PaperSteps);
}

double paperSeconds(const MpdataProgram &M, const MachineModel &Machine,
                    Strategy Strat, int Sockets) {
  return paperRun(M, Machine, paperConfig(Strat, Sockets)).TotalSeconds;
}

/// The first-touch strategies in enum order: PaperSweep indexes its
/// series by the Strategy's value.
constexpr Strategy PaperStrategies[] = {
    Strategy::Original, Strategy::Block31D, Strategy::IslandsOfCores};
constexpr size_t NumStrategies = std::size(PaperStrategies);

/// The P = 1..14 sweep on the UV 2000 model, simulated once: the
/// serial-init original, and each first-touch strategy stock and with the
/// schedule optimizer's barrier elision applied. Every section reads the
/// program through it.
struct PaperSweep {
  const MpdataProgram &M;
  MachineModel Uv = makeSgiUv2000();
  PerCpu SerialInit{};
  SimResult Plain[NumStrategies][PaperMaxCpus];
  /// The BENCH_table3/4.json row of each strategy and P (Gflops unset).
  BenchJsonRow Rows[NumStrategies][PaperMaxCpus];

  explicit PaperSweep(const MpdataProgram &M) : M(M) {
    for (int P = 1; P <= PaperMaxCpus; ++P) {
      PlanConfig Serial = paperConfig(Strategy::Original, P);
      Serial.Placement = PagePlacement::None;
      SerialInit[P - 1] = paperRun(M, Uv, Serial).TotalSeconds;
      for (Strategy Strat : PaperStrategies) {
        ExecutionPlan Plan =
            buildPlan(M.Program, PaperGrid, Uv, paperConfig(Strat, P));
        SimResult &R = Plain[static_cast<int>(Strat)][P - 1];
        R = simulate(Plan, M.Program, Uv, PaperSteps);
        ScheduleOptimizerReport Report = optimizeBarriers(M.Program, Plan);
        BenchJsonRow &Row = Rows[static_cast<int>(Strat)][P - 1];
        Row.Strategy = strategyName(Strat);
        Row.P = P;
        Row.Seconds = R.TotalSeconds;
        Row.BarrierShare = R.CriticalIsland.total() > 0.0
                               ? R.CriticalIsland.Barrier /
                                     R.CriticalIsland.total()
                               : 0.0;
        Row.TotalBarriers = Report.TotalPasses;
        Row.ElidedBarriers = Report.ElidedBarriers;
        Row.OptimizedSeconds =
            simulate(Plan, M.Program, Uv, PaperSteps).TotalSeconds;
      }
    }
  }

  const SimResult &plain(Strategy Strat, int P) const {
    return Plain[static_cast<int>(Strat)][P - 1];
  }
  const BenchJsonRow &jsonRow(Strategy Strat, int P) const {
    return Rows[static_cast<int>(Strat)][P - 1];
  }
  PerCpu seconds(Strategy Strat) const {
    PerCpu Out{};
    for (int P = 1; P <= PaperMaxCpus; ++P)
      Out[P - 1] = plain(Strat, P).TotalSeconds;
    return Out;
  }
};

/// Fig. 1: a chain of three 1D stencil stages on two processors, run as
/// scenario 1 (exchange halo values: transfers + syncs) or scenario 2
/// (recompute them locally: extra elements, no transfers within the
/// step); first counted exactly on the toy chain, then simulated at
/// MPDATA scale on the UV 2000 and on a hypothetical 50x interconnect.
int fig1(const PaperSweep &S) {
  std::printf("=== Fig. 1: two scenarios for parallelizing a 3-stage "
              "stencil chain ===\n\n");

  // The chain in -> A -> B -> C, each stage reading {-1, 0, +1}.
  StencilProgram Chain;
  ArrayId Prev = Chain.addArray("in", ArrayRole::StepInput);
  for (const char *Name : {"A", "B", "C"}) {
    ArrayId Out = Chain.addArray(
        Name, *Name == 'C' ? ArrayRole::StepOutput : ArrayRole::Intermediate);
    StageDef Stage;
    Stage.Name = Name;
    Stage.Outputs = {Out};
    Stage.Inputs = {StageInput::alongDim(Prev, 0, -1, 1)};
    Stage.FlopsPerPoint = 2;
    Chain.addStage(Stage);
    Prev = Out;
  }
  Box3 Cells = Box3::fromExtents(16, 1, 1);

  // Scenario 1: each CPU computes only its half of every stage; produced
  // values read across the cut are transferred, one per offset and side.
  int Transfers = 0;
  for (unsigned Stage = 0; Stage != Chain.numStages(); ++Stage)
    for (const StageInput &In : Chain.stage(Stage).Inputs)
      if (Chain.producerOf(In.Array) != NoStage)
        Transfers += In.MaxOff[0] - In.MinOff[0];
  std::printf("scenario 1 (exchange): %d element transfers + %u "
              "synchronization points per step\n",
              Transfers, Chain.numStages());

  // Scenario 2: each CPU grows its regions by the dependence cone.
  long long Extra =
      countExtraElements(Chain, Cells, partition1D(Cells, 2, 0))
          .extraPoints();
  std::printf("scenario 2 (recompute): %lld extra elements per step, "
              "0 transfers, 0 intra-step syncs\n",
              Extra);
  std::printf("  (the paper's Fig. 1 counts 3 extra elements for one-sided "
              "dependencies; our symmetric {-1,0,+1} chain needs %lld on "
              "each side of the cut)\n\n",
              Extra);

  std::printf("=== The trade-off at MPDATA scale (1024x512x64, P=14) "
              "===\n\n");
  MachineModel Ideal = S.Uv;
  Ideal.Name = "hypothetical UV 2000 with a 50x interconnect";
  Ideal.LinkBandwidth *= 50.0;
  Ideal.BarrierPerSocket /= 50.0;
  Ideal.BarrierQuadratic /= 50.0;
  double Gap[2]; // Exchange time over recompute time.
  const MachineModel *Machines[] = {&S.Uv, &Ideal};
  for (int I = 0; I != 2; ++I) {
    double Exchange =
        paperSeconds(S.M, *Machines[I], Strategy::Block31D, 14);
    double Recompute =
        paperSeconds(S.M, *Machines[I], Strategy::IslandsOfCores, 14);
    Gap[I] = Exchange / Recompute;
    std::printf("%s:\n", Machines[I]->Name.c_str());
    std::printf("  scenario 1 ((3+1)D, exchange):      %6.2f s\n", Exchange);
    std::printf("  scenario 2 (islands, recompute):    %6.2f s  -> %s by "
                "%.1fx\n\n",
                Recompute,
                Recompute < Exchange ? "recompute wins" : "exchange wins",
                Recompute < Exchange ? Exchange / Recompute
                                     : Recompute / Exchange);
  }
  std::printf("conclusion (Sect. 4.1): replicated computation suits "
              "powerful CPUs behind a relatively slow interconnect; "
              "exchange suits fast networks — inside one socket the "
              "islands run scenario 1, across sockets scenario 2.\n");

  std::printf("\nshape checks:\n");
  int Failures = 0;
  Failures += shapeCheck(Transfers == 4 && Chain.numStages() == 3 &&
                             Extra == 6,
                         "toy chain: 4 transfers + 3 syncs (exchange) vs 6 "
                         "extra elements (recompute)");
  Failures += shapeCheck(Gap[0] > 1.0, "recompute wins on the UV 2000");
  Failures += shapeCheck(Gap[1] < Gap[0],
                         "the gap narrows under the 50x interconnect");
  return Failures;
}

/// Table 1: the original version with serial and with first-touch
/// initialization vs the pure (3+1)D decomposition. The paper's
/// observations: serial init gets *slower* with P, first touch scales,
/// and (3+1)D wins only for P <= ~3.
int table1(const PaperSweep &S) {
  std::printf("=== Table 1: original vs (3+1)D on SGI UV 2000 "
              "(1024x512x64, 50 steps) ===\n");
  std::printf("paper values in parentheses; simulated seconds\n\n");

  const PerCpu &Serial = S.SerialInit;
  PerCpu FirstTouch = S.seconds(Strategy::Original),
         Block = S.seconds(Strategy::Block31D);
  TablePrinter Table({"#CPUs", "Original (serial init)",
                      "Original (first touch)", "(3+1)D"});
  for (int P = 1; P <= PaperMaxCpus; ++P)
    Table.addRow({formatString("%d", P),
                  formatString("%5.1f (%5.1f)", Serial[P - 1],
                               PaperOriginalSerialInit[P - 1]),
                  formatString("%5.2f (%5.2f)", FirstTouch[P - 1],
                               PaperOriginalFirstTouch[P - 1]),
                  formatString("%5.2f (%5.2f)", Block[P - 1],
                               PaperBlock31D[P - 1])});
  Table.print(outs());

  std::printf("\nshape checks:\n");
  int Failures = 0;
  Failures += shapeCheck(Serial[13] > Serial[0] * 2.0,
                         "serial-init original degrades with P "
                         "(>2x slower at P=14)");
  Failures += shapeCheck(FirstTouch[13] < FirstTouch[0] / 8.0,
                         "first-touch original scales (>8x at P=14)");
  Failures += shapeCheck(Block[0] < FirstTouch[0] / 2.0,
                         "(3+1)D wins clearly at P=1");
  Failures += shapeCheck(Block[13] > FirstTouch[13] * 2.0,
                         "(3+1)D loses clearly at P=14");
  bool CrossoverFound = false;
  for (int P = 2; P <= PaperMaxCpus; ++P)
    if (Block[P - 1] > FirstTouch[P - 1] &&
        Block[P - 2] <= FirstTouch[P - 2])
      CrossoverFound = true;
  Failures += shapeCheck(CrossoverFound,
                         "original/(3+1)D crossover exists at small P");
  return Failures;
}

/// Table 2: redundantly computed elements (percent of the original
/// version's work) for 1D island splits along the first (variant A) or
/// second (variant B) dimension; exact dependence analysis, no simulation.
int table2(const PaperSweep &S) {
  std::printf("=== Table 2: redundant elements of the islands-of-cores "
              "approach (1024x512x64) ===\n");
  std::printf("percent extra vs original; paper values in parentheses\n\n");

  TablePrinter Table({"# islands", "Variant A [%]", "Variant B [%]"});
  PerCpu A{}, B{};
  for (int Islands = 1; Islands <= PaperMaxCpus; ++Islands) {
    auto extraPercent = [&](int Dim) {
      return countExtraElements(S.M.Program, PaperGrid,
                                partition1D(PaperGrid, Islands, Dim))
                 .extraFraction() *
             100.0;
    };
    A[Islands - 1] = extraPercent(0);
    B[Islands - 1] = extraPercent(1);
    Table.addRow({formatString("%d", Islands),
                  formatString("%.2f (%.2f)", A[Islands - 1],
                               PaperExtraVariantA[Islands - 1]),
                  formatString("%.2f (%.2f)", B[Islands - 1],
                               PaperExtraVariantB[Islands - 1])});
  }
  Table.print(outs());

  std::printf("\nshape checks:\n");
  int Failures = 0;
  Failures += shapeCheck(A[0] == 0.0 && B[0] == 0.0,
                         "one island computes nothing extra");
  bool LinearA = true, ALessB = true;
  for (int Islands = 2; Islands <= PaperMaxCpus; ++Islands) {
    if (std::fabs(A[Islands - 1] / (Islands - 1) - A[1]) > 1e-9)
      LinearA = false;
    if (A[Islands - 1] >= B[Islands - 1])
      ALessB = false;
  }
  Failures += shapeCheck(LinearA, "variant A grows linearly per boundary");
  Failures += shapeCheck(ALessB,
                         "variant A always cheaper than variant B");
  Failures += shapeCheck(std::fabs(B[1] / A[1] - 2.0) < 0.05,
                         "variant B/A ratio ~2 (boundary-area ratio)");
  Failures += shapeCheck(A[13] > 1.0 && A[13] < 6.0,
                         "variant A at 14 islands in the paper's "
                         "few-percent range");
  return Failures;
}

/// Sect. 3.2: on one Xeon E5-2660v2 with the 256x256x64 grid and 50
/// steps, (3+1)D cuts main-memory traffic from 133 GB to 30 GB
/// (likwid-perfctr) and runs about 2.8x faster.
int traffic(const PaperSweep &S) {
  std::printf("=== Sect. 3.2: DRAM traffic study (E5-2660v2, 256x256x64, "
              "50 steps) ===\n\n");

  MachineModel Xeon = makeXeonE5_2660v2();
  auto runCase = [&](Strategy Strat) {
    ExecutionPlan Plan =
        buildPlan(S.M.Program, Box3::fromExtents(256, 256, 64), Xeon,
                  paperConfig(Strat, 1));
    return simulate(Plan, S.M.Program, Xeon, 50);
  };
  SimResult Orig = runCase(Strategy::Original);
  SimResult Block = runCase(Strategy::Block31D);

  double OrigGB = static_cast<double>(Orig.totalDramBytes()) / 1e9;
  double BlockedGB = static_cast<double>(Block.totalDramBytes()) / 1e9;
  double Speedup = Orig.TotalSeconds / Block.TotalSeconds;

  std::printf("main-memory traffic, original:  %6.1f GB  (paper: 133 GB)\n",
              OrigGB);
  std::printf("main-memory traffic, (3+1)D:    %6.1f GB  (paper:  30 GB)\n",
              BlockedGB);
  std::printf("traffic reduction:              %6.2fx (paper: ~4.4x)\n",
              OrigGB / BlockedGB);
  std::printf("execution time, original:       %6.2f s\n", Orig.TotalSeconds);
  std::printf("execution time, (3+1)D:         %6.2f s\n",
              Block.TotalSeconds);
  std::printf("speedup:                        %6.2fx (paper: ~2.8x)\n\n",
              Speedup);

  std::printf("per-step breakdown (original):  compute %s, dram %s\n",
              formatSeconds(Orig.CriticalIsland.Compute).c_str(),
              formatSeconds(Orig.CriticalIsland.Dram).c_str());
  std::printf("per-step breakdown ((3+1)D):    compute %s, dram %s, "
              "barrier %s\n\n",
              formatSeconds(Block.CriticalIsland.Compute).c_str(),
              formatSeconds(Block.CriticalIsland.Dram).c_str(),
              formatSeconds(Block.CriticalIsland.Barrier).c_str());

  std::printf("shape checks:\n");
  int Failures = 0;
  Failures += shapeCheck(OrigGB > 100.0 && OrigGB < 170.0,
                         "original traffic in the paper's ~133 GB range");
  Failures += shapeCheck(BlockedGB > 15.0 && BlockedGB < 45.0,
                         "(3+1)D traffic in the paper's ~30 GB range");
  Failures += shapeCheck(Speedup > 2.0 && Speedup < 4.0,
                         "speedup near the paper's ~2.8x");
  Failures += shapeCheck(Orig.CriticalIsland.Dram >
                             Orig.CriticalIsland.Compute,
                         "original is memory-bound");
  Failures += shapeCheck(Block.CriticalIsland.Compute >
                             Block.CriticalIsland.Dram,
                         "(3+1)D is compute-bound");
  return Failures;
}

/// Table 3: the three strategies with the partial speedup S_pr (islands
/// vs (3+1)D) and the overall speedup S_ov (islands vs original). S_pr
/// grows past 10x at P=14 while S_ov stays ~2.7-3: the islands keep the
/// (3+1)D cache gain at every machine size. Then the schedule optimizer's
/// barrier elision per strategy, with every (strategy, P) row in
/// BENCH_table3.json.
int table3(const PaperSweep &S) {
  std::printf("=== Table 3: strategy comparison on SGI UV 2000 "
              "(1024x512x64, 50 steps) ===\n");
  std::printf("paper values in parentheses; simulated seconds\n\n");

  PerCpu Original = S.seconds(Strategy::Original),
         Block = S.seconds(Strategy::Block31D),
         Islands = S.seconds(Strategy::IslandsOfCores);
  TablePrinter Table({"#CPUs", "Original", "(3+1)D", "Islands", "S_pr",
                      "S_ov"});
  for (int P = 1; P <= PaperMaxCpus; ++P) {
    double SPr = Block[P - 1] / Islands[P - 1];
    double SOv = Original[P - 1] / Islands[P - 1];
    double PaperSPr = PaperBlock31D[P - 1] / PaperIslands[P - 1];
    double PaperSOv = PaperOriginalFirstTouch[P - 1] / PaperIslands[P - 1];
    Table.addRow(
        {formatString("%d", P),
         formatString("%5.2f (%5.2f)", Original[P - 1],
                      PaperOriginalFirstTouch[P - 1]),
         formatString("%5.2f (%5.2f)", Block[P - 1], PaperBlock31D[P - 1]),
         formatString("%5.2f (%5.2f)", Islands[P - 1], PaperIslands[P - 1]),
         formatString("%5.2f (%5.2f)", SPr, PaperSPr),
         formatString("%5.2f (%5.2f)", SOv, PaperSOv)});
  }
  Table.print(outs());

  std::printf("\nshape checks:\n");
  int Failures = 0;
  Failures += shapeCheck(Islands[0] == Block[0],
                         "islands == (3+1)D at P=1 (same plan)");
  bool Monotone = true, FastestEverywhere = true;
  double SOvMin = 1e9, SOvMax = 0.0;
  for (int P = 2; P <= PaperMaxCpus; ++P) {
    if (Islands[P - 1] >= Islands[P - 2])
      Monotone = false;
    if (Islands[P - 1] >= Original[P - 1] || Islands[P - 1] >= Block[P - 1])
      FastestEverywhere = false;
    double SOv = Original[P - 1] / Islands[P - 1];
    SOvMin = std::min(SOvMin, SOv);
    SOvMax = std::max(SOvMax, SOv);
  }
  Failures += shapeCheck(Monotone, "islands times fall monotonically in P");
  Failures += shapeCheck(FastestEverywhere,
                         "islands fastest of the three for all P >= 2");
  Failures += shapeCheck(Block[13] / Islands[13] > 8.0,
                         "S_pr approaches the paper's >10x at P=14");
  Failures += shapeCheck(SOvMax / SOvMin < 1.5,
                         "S_ov roughly constant across P (within 1.5x)");

  // The optimizer clears provably redundant BarrierAfter bits; the
  // simulator charges only the barriers that remain.
  std::printf("\nbarrier elision (schedule optimizer, team barriers per "
              "step):\n");
  TablePrinter ETable({"strategy", "#CPUs", "barriers", "elided",
                       "remaining", "seconds", "optimized"});
  std::vector<BenchJsonRow> JsonRows;
  bool OptimizedNoSlower = true, EveryStrategyElides = true;
  for (Strategy Strat : PaperStrategies) {
    for (int P = 1; P <= PaperMaxCpus; ++P) {
      const BenchJsonRow &Row = S.jsonRow(Strat, P);
      JsonRows.push_back(Row);
      if (Row.OptimizedSeconds > Row.Seconds + 1e-12)
        OptimizedNoSlower = false;
      if (P == PaperMaxCpus && Row.ElidedBarriers == 0)
        EveryStrategyElides = false;
      if (P == 2 || P == PaperMaxCpus)
        ETable.addRow(
            {Row.Strategy, formatString("%d", P),
             formatString("%lld", static_cast<long long>(Row.TotalBarriers)),
             formatString("%lld", static_cast<long long>(Row.ElidedBarriers)),
             formatString("%lld",
                          static_cast<long long>(Row.TotalBarriers -
                                                 Row.ElidedBarriers)),
             formatString("%5.2f", Row.Seconds),
             formatString("%5.2f", Row.OptimizedSeconds)});
    }
  }
  ETable.print(outs());
  const BenchJsonRow &Blocked14 = S.jsonRow(Strategy::Block31D, PaperMaxCpus);
  std::printf("\nelision shape checks:\n");
  Failures += shapeCheck(
      Blocked14.ElidedBarriers > 0 && Blocked14.TotalBarriers > 0 &&
          static_cast<double>(Blocked14.ElidedBarriers) /
                  static_cast<double>(Blocked14.TotalBarriers) >=
              0.3,
      "(3+1)D at P=14: at least 30% of per-step barriers elided");
  Failures += shapeCheck(EveryStrategyElides,
                         "every strategy elides some barriers at P=14");
  Failures += shapeCheck(OptimizedNoSlower,
                         "optimized schedules never slower in the model");
  writeBenchJson("table3", JsonRows);
  return Failures;
}

/// Minimal ASCII bar chart: one row per P, proportional bar for value.
void asciiSeries(const char *Name, const PerCpu &Values) {
  double Max = *std::max_element(Values.begin(), Values.end());
  std::printf("%s\n", Name);
  for (int P = 1; P <= PaperMaxCpus; ++P) {
    int Bars = static_cast<int>(Values[P - 1] / Max * 50.0 + 0.5);
    std::printf("  P=%2d %7.2f |%s\n", P, Values[P - 1],
                std::string(static_cast<size_t>(Bars), '#').c_str());
  }
}

/// Fig. 2: (a) the execution-time curves of the three versions and (b)
/// the islands' partial (S_pr) and overall (S_ov) speedups, as CSV for
/// replotting and as ASCII curves.
int fig2(const PaperSweep &S) {
  std::printf("=== Figure 2: performance curves (1024x512x64, 50 steps) "
              "===\n\n");

  PerCpu Original = S.seconds(Strategy::Original),
         Block = S.seconds(Strategy::Block31D),
         Islands = S.seconds(Strategy::IslandsOfCores), SPr{}, SOv{};
  for (int P = 0; P != PaperMaxCpus; ++P) {
    SPr[P] = Block[P] / Islands[P];
    SOv[P] = Original[P] / Islands[P];
  }

  std::printf("--- Fig. 2(a) series (CSV) ---\n");
  std::printf("P,original,31d,islands\n");
  for (int P = 1; P <= PaperMaxCpus; ++P)
    std::printf("%d,%.3f,%.3f,%.3f\n", P, Original[P - 1], Block[P - 1],
                Islands[P - 1]);
  std::printf("\n--- Fig. 2(b) series (CSV) ---\n");
  std::printf("P,S_pr,S_ov\n");
  for (int P = 1; P <= PaperMaxCpus; ++P)
    std::printf("%d,%.3f,%.3f\n", P, SPr[P - 1], SOv[P - 1]);

  std::printf("\n");
  asciiSeries("execution time: original [s]", Original);
  asciiSeries("execution time: (3+1)D [s]", Block);
  asciiSeries("execution time: islands-of-cores [s]", Islands);
  asciiSeries("partial speedup S_pr", SPr);
  asciiSeries("overall speedup S_ov", SOv);

  std::printf("\nshape checks:\n");
  int Failures = 0;
  bool SPrGrows = true;
  for (int P = 2; P <= PaperMaxCpus; ++P)
    if (SPr[P - 1] <= SPr[P - 2] * 0.9)
      SPrGrows = false;
  Failures += shapeCheck(SPrGrows,
                         "S_pr grows (near-monotonically) with P");
  Failures += shapeCheck(SPr[13] > 8.0, "S_pr exceeds ~10x at P=14");
  double SOvSpread = *std::max_element(SOv.begin() + 1, SOv.end()) /
                     *std::min_element(SOv.begin() + 1, SOv.end());
  Failures += shapeCheck(SOvSpread < 1.5,
                         "S_ov flat across P (spread < 1.5x)");
  return Failures;
}

/// Table 4: sustained Gflop/s of the islands, utilization of peak and
/// parallel efficiency. The paper's "% of linear scaling" equals the
/// *original* version's time-based efficiency (30.4/(14*2.81) = 77.3%),
/// so both that definition and the islands-based one are printed. Every
/// islands row, with its elision savings, goes to BENCH_table4.json.
int table4(const PaperSweep &S) {
  std::printf("=== Table 4: sustained performance of islands-of-cores "
              "(1024x512x64, 50 steps) ===\n");
  std::printf("paper values in parentheses\n\n");

  PerCpu Original = S.seconds(Strategy::Original),
         Islands = S.seconds(Strategy::IslandsOfCores);
  PerCpu Sustained{}, Util{};
  TablePrinter Table({"#CPUs", "Peak Gflop/s", "Sustained Gflop/s",
                      "Utilization [%]", "Efficiency (paper def.) [%]",
                      "Efficiency (islands) [%]"});
  std::vector<BenchJsonRow> JsonRows;
  for (int P = 1; P <= PaperMaxCpus; ++P) {
    Sustained[P - 1] = S.plain(Strategy::IslandsOfCores, P).sustainedGflops();
    Util[P - 1] = Sustained[P - 1] * 1e9 / S.Uv.peakFlops(P);
    Table.addRow(
        {formatString("%d", P),
         formatString("%.1f", S.Uv.peakFlops(P) / 1e9),
         formatString("%.1f (%.1f)", Sustained[P - 1],
                      PaperSustainedGflops[P - 1]),
         formatString("%.1f", Util[P - 1] * 100.0),
         formatString("%.1f", Original[0] / (P * Original[P - 1]) * 100.0),
         formatString("%.1f", Islands[0] / (P * Islands[P - 1]) * 100.0)});
    JsonRows.push_back(S.jsonRow(Strategy::IslandsOfCores, P));
    JsonRows.back().Gflops = Sustained[P - 1];
  }
  Table.print(outs());
  std::printf("\nnote: our kernels count %lld flops/point/step; the "
              "authors' count is ~229, so sustained figures scale "
              "accordingly\n",
              static_cast<long long>(S.M.Program.totalFlopsPerPoint()));

  std::printf("\nshape checks:\n");
  int Failures = 0;
  bool SustainedMonotone = true, UtilBand = true;
  for (int P = 2; P <= PaperMaxCpus; ++P) {
    if (Sustained[P - 1] <= Sustained[P - 2])
      SustainedMonotone = false;
    if (Util[P - 1] < 0.20 || Util[P - 1] > 0.55)
      UtilBand = false;
  }
  Failures += shapeCheck(SustainedMonotone,
                         "sustained Gflop/s grows with every added CPU");
  Failures += shapeCheck(Sustained[13] > 300.0,
                         "hundreds of Gflop/s at P=14 (paper: 390)");
  Failures += shapeCheck(UtilBand,
                         "utilization stays within 20-55% (paper: "
                         "~26-40%)");
  Failures += shapeCheck(Util[13] < Util[1],
                         "utilization declines at the largest "
                         "configuration");
  writeBenchJson("table4", JsonRows);
  return Failures;
}

/// Ablation over the island partitioning: the paper's 1D variants A and
/// B plus the 2D island grids it defers to future work. Variant A beats B
/// everywhere (smaller cross-section on the 1024x512 grid); 2D grids pay
/// more redundant work at these island counts.
int ablationPartition(const PaperSweep &S) {
  std::printf("=== Ablation: island partitioning (1D-A vs 1D-B vs 2D "
              "grids) ===\n");
  std::printf("1024x512x64, 50 steps, SGI UV 2000 model\n\n");

  struct CaseResult {
    double ExtraPercent, Seconds;
  };
  auto runCase = [&](int P, PartitionVariant Variant, int GridI, int GridJ) {
    PlanConfig Config = paperConfig(Strategy::IslandsOfCores, P);
    Config.Variant = Variant;
    Config.GridPartsI = GridI;
    Config.GridPartsJ = GridJ;
    ExecutionPlan Plan = buildPlan(S.M.Program, PaperGrid, S.Uv, Config);
    std::vector<Box3> Parts;
    for (const IslandPlan &Island : Plan.Islands)
      Parts.push_back(Island.Part);
    return CaseResult{
        countExtraElements(S.M.Program, PaperGrid, Parts).extraFraction() *
            100.0,
        simulate(Plan, S.M.Program, S.Uv, PaperSteps).TotalSeconds};
  };

  TablePrinter Table({"#islands", "1D-A extra[%]", "1D-A time[s]",
                      "1D-B extra[%]", "1D-B time[s]", "2D grid",
                      "2D extra[%]", "2D time[s]"});
  bool ABeatsB = true;
  for (int P : {2, 4, 6, 8, 12, 14}) {
    CaseResult A = runCase(P, PartitionVariant::A, 0, 0);
    CaseResult B = runCase(P, PartitionVariant::B, 0, 0);
    auto [Gi, Gj] = factorForGrid(P);
    CaseResult G = runCase(P, PartitionVariant::A, Gi, Gj);
    Table.addRow({formatString("%d", P),
                  formatString("%.2f", A.ExtraPercent),
                  formatString("%.3f", A.Seconds),
                  formatString("%.2f", B.ExtraPercent),
                  formatString("%.3f", B.Seconds),
                  formatString("%dx%d", Gi, Gj),
                  formatString("%.2f", G.ExtraPercent),
                  formatString("%.3f", G.Seconds)});
    if (A.ExtraPercent >= B.ExtraPercent || A.Seconds > B.Seconds * 1.001)
      ABeatsB = false;
  }
  Table.print(outs());

  std::printf("\nshape checks:\n");
  return shapeCheck(ABeatsB,
                    "variant A cheaper than B in both redundant work "
                    "and simulated time at every island count");
}

/// Sect. 4.1 frames the two scenarios as a trade-off set by the machine:
/// replication pays off behind "relatively less efficient interconnects",
/// exchange on "more efficient networks". Sweeping the UV 2000's link
/// quality, S_pr at P=14 shrinks monotonically as the network improves.
int ablationInterconnect(const PaperSweep &S) {
  std::printf("=== Ablation: interconnect quality vs the "
              "computation/communication trade-off ===\n");
  std::printf("1024x512x64, 50 steps, P=14; scaling NUMAlink bandwidth and "
              "cross-socket sync cost together\n\n");

  TablePrinter Table({"link scale", "link GB/s", "(3+1)D [s]",
                      "islands [s]", "S_pr"});
  std::vector<double> SPrs;
  for (double Scale : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0}) {
    MachineModel Uv = makeSgiUv2000();
    Uv.LinkBandwidth *= Scale;
    // A better interconnect also lowers cross-socket coherence costs.
    Uv.BarrierPerSocket /= Scale;
    Uv.BarrierQuadratic /= Scale;
    double Block = paperSeconds(S.M, Uv, Strategy::Block31D, 14);
    double Islands = paperSeconds(S.M, Uv, Strategy::IslandsOfCores, 14);
    SPrs.push_back(Block / Islands);
    Table.addRow({formatString("%.2fx", Scale),
                  formatString("%.1f", Uv.LinkBandwidth / 1e9),
                  formatString("%.2f", Block), formatString("%.2f", Islands),
                  formatString("%.2f", SPrs.back())});
  }
  Table.print(outs());

  bool Monotone = true;
  for (size_t I = 1; I != SPrs.size(); ++I)
    if (SPrs[I] > SPrs[I - 1] * 1.001)
      Monotone = false;
  std::printf("\nshape checks:\n");
  int Failures = 0;
  Failures += shapeCheck(Monotone,
                         "islands advantage shrinks as the interconnect "
                         "improves (scenario trade-off)");
  Failures += shapeCheck(SPrs.front() > 10.0,
                         "slow interconnect: replication wins by >10x");
  Failures += shapeCheck(SPrs.back() < 4.0,
                         "16x faster interconnect: exchange-based (3+1)D "
                         "within 4x");
  return Failures;
}

/// Ablation over the (3+1)D cache budget: the budget fraction drives the
/// slab thickness, trading per-pass synchronization against working-set
/// size (spill traffic once the budget exceeds the LLC). Very small
/// budgets pay for many thin blocks.
int ablationBlockSize(const PaperSweep &S) {
  std::printf("=== Ablation: (3+1)D cache budget / block thickness ===\n");
  std::printf("1024x512x64, 50 steps, SGI UV 2000 model\n\n");

  TablePrinter Table({"budget fraction", "thickness (1 socket)",
                      "(3+1)D P=1 [s]", "islands P=14 [s]"});
  std::vector<double> Blocked1;
  for (double Fraction : {0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0}) {
    MachineModel Uv = makeSgiUv2000();
    Uv.CacheBudgetFraction = Fraction;
    int Thickness = blockThickness(
        S.M.Program, PaperGrid,
        static_cast<int64_t>(static_cast<double>(Uv.LlcBytesPerSocket) *
                             Fraction));
    Blocked1.push_back(paperSeconds(S.M, Uv, Strategy::Block31D, 1));
    Table.addRow(
        {formatString("%.4f", Fraction), formatString("%d", Thickness),
         formatString("%.2f", Blocked1.back()),
         formatString("%.3f",
                      paperSeconds(S.M, Uv, Strategy::IslandsOfCores, 14))});
  }
  Table.print(outs());

  std::printf("\nshape checks:\n");
  return shapeCheck(Blocked1.front() > Blocked1.back(),
                    "tiny budgets pay barrier overhead: the smallest "
                    "budget is slower than the largest");
}

/// Future work (Sect. 6): islands *within* each CPU. On the UV 2000's
/// 8-core CPUs with a cheap intra-socket barrier sub-socket islands
/// change little; on the 60-core Xeon Phi KNC with its expensive
/// all-thread barrier they pay off clearly.
int ablationIntraCpu(const PaperSweep &S) {
  std::printf("=== Ablation: islands *within* each CPU (future work, "
              "Sect. 6) ===\n");
  std::printf("1024x512x64, 50 steps\n\n");

  MachineModel Uv = makeSgiUv2000();
  MachineModel Knc = makeXeonPhiKnc();
  auto seconds = [&](const MachineModel &Machine, int Sockets,
                     int PerSocket) {
    PlanConfig Config = paperConfig(Strategy::IslandsOfCores, Sockets);
    Config.IslandsPerSocket = PerSocket;
    return paperRun(S.M, Machine, Config).TotalSeconds;
  };

  TablePrinter Table({"islands/CPU", "UV 2000, P=14 [s]",
                      "Xeon Phi KNC [s]"});
  std::vector<double> UvTimes, KncTimes;
  for (int PerSocket : {1, 2, 4, 6, 10, 12}) {
    bool OnUv = PerSocket <= 4; // KNC has more divisors worth trying.
    if (OnUv)
      UvTimes.push_back(seconds(Uv, 14, PerSocket));
    KncTimes.push_back(seconds(Knc, 1, PerSocket));
    Table.addRow({formatString("%d", PerSocket),
                  OnUv ? formatString("%.3f", UvTimes.back()) : "-",
                  formatString("%.3f", KncTimes.back())});
  }
  Table.print(outs());

  std::printf("\nshape checks:\n");
  int Failures = 0;
  Failures += shapeCheck(*std::min_element(KncTimes.begin(), KncTimes.end()) <
                             KncTimes[0] / 1.5,
                         "intra-chip islands win clearly on the manycore "
                         "KNC (>1.5x)");
  Failures += shapeCheck(*std::min_element(UvTimes.begin(), UvTimes.end()) >
                             UvTimes[0] * 0.7,
                         "on 8-core CPUs sub-socket islands change little "
                         "(<1.4x either way)");
  return Failures;
}

/// Future work (Sect. 6): "the usage of MPI for extending the
/// scalability of our approach". The islands scale across a cluster of
/// UV 2000 nodes with explicit per-step halo messages. The paper's grid
/// saturates quickly (1D islands become slivers and redundant cone work
/// blows up); an 8x larger grid keeps scaling, and a 2D node grid fixes
/// the slivers.
int cluster(const PaperSweep &S) {
  std::printf("=== Future work: cluster of UV 2000 nodes (MPI-style halo "
              "exchange) ===\n\n");

  ClusterModel Cluster;
  Cluster.Node = makeSgiUv2000();
  int Failures = 0;
  for (const Box3 &Grid : {PaperGrid, Box3::fromExtents(4096, 1024, 64)}) {
    std::printf("grid %dx%dx%d, 50 steps:\n", Grid.extent(0),
                Grid.extent(1), Grid.extent(2));
    TablePrinter Table({"nodes", "sockets", "time [s]", "Gflop/s",
                        "comm/step", "redundant work [%]"});
    double PrevTime = 1e300;
    bool Monotone = true;
    int64_t UsefulFlops = 0;
    for (int Nodes : {1, 2, 4, 8, 16}) {
      Cluster.NumNodes = Nodes;
      ClusterSimResult R =
          simulateCluster(S.M.Program, Grid, Cluster, 14, PaperSteps);
      if (UsefulFlops == 0)
        UsefulFlops = R.FlopsPerStep; // Nodes=1 still has 14 islands.
      double Redundant =
          (static_cast<double>(R.FlopsPerStep) / UsefulFlops - 1.0) * 100.0;
      Table.addRow({formatString("%d", Nodes),
                    formatString("%d", Nodes * 14),
                    formatString("%.3f", R.TotalSeconds),
                    formatString("%.0f", R.sustainedGflops()),
                    formatSeconds(R.CommSecondsPerStep),
                    formatString("%.1f", Redundant)});
      if (R.TotalSeconds > PrevTime)
        Monotone = false;
      PrevTime = R.TotalSeconds;
    }
    Table.print(outs());
    Failures += shapeCheck(Monotone, "time keeps falling as nodes grow");
    std::printf("\n");
  }

  std::printf("1D vs 2D node decomposition at 16 nodes (square "
              "1024x1024x64 grid):\n");
  Box3 Square = Box3::fromExtents(1024, 1024, 64);
  Cluster.NumNodes = 16;
  ClusterSimResult R1D =
      simulateCluster(S.M.Program, Square, Cluster, 14, PaperSteps);
  ClusterSimResult R2D =
      simulateCluster2D(S.M.Program, Square, Cluster, 4, 4, 14, PaperSteps);
  TablePrinter Grid2D({"decomposition", "time [s]", "Gflop/s",
                       "flops/step (redundancy included)"});
  for (const auto &[Label, R] :
       {std::pair<const char *, const ClusterSimResult &>{"16x1 (1D slabs)",
                                                          R1D},
        {"4x4 (2D grid)", R2D}})
    Grid2D.addRow({Label, formatString("%.3f", R.TotalSeconds),
                   formatString("%.0f", R.sustainedGflops()),
                   formatString("%.2fe9", R.FlopsPerStep / 1e9)});
  Grid2D.print(outs());
  Failures += shapeCheck(R2D.TotalSeconds < R1D.TotalSeconds,
                         "2D node grid beats 1D slabs at 16 nodes "
                         "(the sliver fix)");
  return Failures;
}

} // namespace

int main() {
  MpdataProgram M = buildMpdataProgram();
  PaperSweep Sweep(M);
  int Failures = 0;
  for (int (*Section)(const PaperSweep &) :
       {fig1, table1, table2, traffic, table3, fig2, table4,
        ablationPartition, ablationInterconnect, ablationBlockSize,
        ablationIntraCpu, cluster}) {
    if (Section != fig1)
      std::printf("\n");
    Failures += Section(Sweep);
  }
  return Failures == 0 ? 0 : 1;
}
