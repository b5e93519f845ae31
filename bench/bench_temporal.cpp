//===- bench/bench_temporal.cpp - Temporal-blocking traffic study ---------===//
//
// Quantifies what temporal blocking buys: fusing T time steps into one
// cache-resident epoch re-reads the step inputs once per epoch instead of
// once per step, cutting the DRAM traffic between the islands and shared
// memory roughly by 1/T (minus the halo widening of the import cones).
//
// For each strategy and T in {1, 2, 4} the bench runs the real threaded
// executor on a host-sized grid, records its per-step shared-memory
// transfer accounting, and compares it against the simulator's projection
// computed from the plan alone. Results land in BENCH_temporal.json
// (schema icores.bench.v2; see bench/validate_bench_json.py).
//
// Shape checks:
//   - every T > 1 run stays bit-identical to the T = 1 run,
//   - measured traffic per step at T = 4 is lower than at T = 1,
//   - the simulator projection is within 20% of the measured traffic.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "exec/ProgramExecutor.h"
#include "mpdata/InitialConditions.h"
#include "mpdata/Kernels.h"
#include "support/Format.h"
#include "support/OStream.h"
#include "support/Table.h"

#include <chrono>
#include <cmath>
#include <cstdio>

using namespace icores;
using namespace icores::bench;

namespace {

// Large enough that the core dominates the halo-widened import cones
// (temporal reuse loses on tiny grids where the cones double the box),
// small enough to finish in seconds on any host.
constexpr int NI = 64, NJ = 48, NK = 48;
constexpr int Steps = 8;
constexpr int Islands = 2;

struct RunResult {
  Array3D State;
  int64_t MeasuredBytesPerStep = 0;
  double Seconds = 0.0;
};

RunResult runOnce(const MpdataProgram &M, Strategy Strat, int Depth) {
  Domain Dom(NI, NJ, NK, mpdataHaloDepth());
  MachineModel Host = makeToyMachine();
  Host.NumSockets = Islands;
  PlanConfig Config;
  Config.Strat = Strat;
  Config.Sockets = Strat == Strategy::Original ? 1 : Islands;
  Config.TemporalDepth = Depth;
  ExecutionPlan Plan = buildPlan(M.Program, Dom.coreBox(), Host, Config);
  optimizeBarriers(M.Program, Plan);

  ProgramExecutor Exec(M.Program, buildMpdataKernels(), Dom,
                       std::move(Plan));
  seedMpdata(Exec, M, 42, 0.1, 2.0, 0.25, -0.2, 0.15);
  auto Begin = std::chrono::steady_clock::now();
  Exec.run(Steps);
  auto End = std::chrono::steady_clock::now();

  RunResult R;
  R.State = Exec.array(M.XIn);
  R.MeasuredBytesPerStep = Exec.sharedBytesPerStep();
  R.Seconds = std::chrono::duration<double>(End - Begin).count();
  return R;
}

int64_t projectOnce(const MpdataProgram &M, Strategy Strat, int Depth) {
  MachineModel Host = makeToyMachine();
  Host.NumSockets = Islands;
  PlanConfig Config;
  Config.Strat = Strat;
  Config.Sockets = Strat == Strategy::Original ? 1 : Islands;
  Config.TemporalDepth = Depth;
  Box3 Grid = Box3::fromExtents(NI, NJ, NK);
  ExecutionPlan Plan = buildPlan(M.Program, Grid, Host, Config);
  optimizeBarriers(M.Program, Plan);
  return projectedSharedBytesPerStep(Plan, M.Program);
}

} // namespace

int main() {
  std::printf("Temporal blocking: DRAM traffic per step, measured vs "
              "projected (%dx%dx%d, %d steps, %d islands)\n\n",
              NI, NJ, NK, Steps, Islands);
  MpdataProgram M = buildMpdataProgram();

  const std::pair<const char *, Strategy> Strategies[] = {
      {"31d", Strategy::Block31D},
      {"islands", Strategy::IslandsOfCores}};
  const int Depths[] = {1, 2, 4};

  TablePrinter Table({"strategy", "T", "measured/step", "projected/step",
                      "vs T=1", "bit-exact"});
  std::vector<TemporalBenchJsonRow> Rows;
  int Failures = 0;
  for (const auto &S : Strategies) {
    RunResult Base;
    for (int Depth : Depths) {
      RunResult R = runOnce(M, S.second, Depth);
      int64_t Projected = projectOnce(M, S.second, Depth);
      bool Exact = true;
      if (Depth == 1) {
        Base = R;
      } else {
        Box3 Core = Box3::fromExtents(NI, NJ, NK);
        Exact = R.State.maxAbsDiff(Base.State, Core) == 0.0;
      }
      double Ratio = static_cast<double>(R.MeasuredBytesPerStep) /
                     static_cast<double>(Base.MeasuredBytesPerStep);
      Table.addRow(
          {S.first, formatString("%d", Depth),
           formatBytes(static_cast<uint64_t>(R.MeasuredBytesPerStep)),
           formatBytes(static_cast<uint64_t>(Projected)),
           formatString("%.2fx", Ratio), Exact ? "yes" : "NO"});
      Rows.push_back({strategyName(S.second), Depth,
                      R.MeasuredBytesPerStep, Projected, R.Seconds});
      Failures += shapeCheck(
          Exact, formatString("%s T=%d bit-identical to T=1", S.first,
                              Depth)
                     .c_str());
      double Err = std::abs(static_cast<double>(Projected) -
                            static_cast<double>(R.MeasuredBytesPerStep)) /
                   static_cast<double>(R.MeasuredBytesPerStep);
      Failures += shapeCheck(
          Err <= 0.2,
          formatString("%s T=%d projection within 20%% of measured "
                       "(err %.1f%%)",
                       S.first, Depth, Err * 100.0)
              .c_str());
      if (Depth == 4)
        Failures += shapeCheck(
            R.MeasuredBytesPerStep < Base.MeasuredBytesPerStep,
            formatString("%s T=4 moves less DRAM traffic per step than "
                         "T=1 (%.2fx)",
                         S.first, Ratio)
                .c_str());
    }
  }
  std::printf("\n");
  Table.print(outs());
  writeTemporalBenchJson("temporal", Rows);
  return Failures == 0 ? 0 : 1;
}
