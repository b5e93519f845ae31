//===- bench/bench_executor.cpp - Host timings of the real executors ------===//
//
// google-benchmark timings of the threaded ProgramExecutor running MPDATA
// on this host for the three strategies, and of the serial oracle. On a
// small host these numbers demonstrate the real code path end-to-end (the
// paper-scale numbers come from the simulator); on a genuine multi-socket
// machine they become direct measurements.
//
//===----------------------------------------------------------------------===//

#include "core/PlanBuilder.h"
#include "exec/ProgramExecutor.h"
#include "machine/MachineModel.h"
#include "mpdata/InitialConditions.h"
#include "mpdata/Kernels.h"
#include "stencil/SerialStepper.h"

#include <benchmark/benchmark.h>

#include <thread>

using namespace icores;

namespace {

/// Builds a toy machine shaped like this host: all hardware threads in
/// one or more model sockets.
MachineModel hostMachine(int Sockets) {
  MachineModel M = makeToyMachine();
  M.NumSockets = Sockets;
  unsigned Hw = std::thread::hardware_concurrency();
  M.CoresPerSocket =
      static_cast<int>(Hw == 0 ? 1 : (Hw + Sockets - 1) / Sockets);
  return M;
}

void runStrategy(benchmark::State &BState, Strategy Strat, int Sockets) {
  MachineModel Machine = hostMachine(Sockets);
  MpdataProgram M = buildMpdataProgram();
  Domain Dom(32, 24, 16, mpdataHaloDepth());
  PlanConfig Config;
  Config.Strat = Strat;
  Config.Sockets = Sockets;
  ExecutionPlan Plan = buildPlan(M.Program, Dom.coreBox(), Machine, Config);
  ProgramExecutor Exec(M.Program, buildMpdataKernels(), Dom,
                       std::move(Plan));
  seedMpdata(Exec, M, 5, 0.1, 1.0, 0.25, -0.2, 0.15);

  for (auto _ : BState)
    Exec.run(1);
  BState.SetItemsProcessed(BState.iterations() * Dom.numCells());
}

void BM_ExecOriginal(benchmark::State &S) {
  runStrategy(S, Strategy::Original, 1);
}
void BM_ExecBlock31D(benchmark::State &S) {
  runStrategy(S, Strategy::Block31D, 1);
}
void BM_ExecIslands1(benchmark::State &S) {
  runStrategy(S, Strategy::IslandsOfCores, 1);
}
void BM_ExecIslands2(benchmark::State &S) {
  runStrategy(S, Strategy::IslandsOfCores, 2);
}

void BM_SerialStepper(benchmark::State &BState) {
  MpdataProgram M = buildMpdataProgram();
  SerialStepper Solver(M.Program, buildMpdataKernels(),
                       Domain(32, 24, 16, mpdataHaloDepth()));
  seedMpdata(Solver, M, 5, 0.1, 1.0, 0.25, -0.2, 0.15);
  for (auto _ : BState)
    Solver.run(1);
  BState.SetItemsProcessed(BState.iterations() *
                           Solver.domain().numCells());
}

} // namespace

BENCHMARK(BM_SerialStepper)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExecOriginal)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExecBlock31D)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExecIslands1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExecIslands2)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
