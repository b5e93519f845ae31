//===- bench/bench_numa.cpp - NUMA data-placement study -------------------===//
//
// Quantifies what page placement buys on a NUMA machine: with per-island
// first-touch arenas each island streams its partition from the local
// socket and only the halo margins cross the interconnect; with OS page
// interleaving (or a serial init that homes everything on node 0) a fixed
// fraction of every stream is remote. The paper's Table 1 measures this
// as the serial-init vs parallel-init gap on the UV 2000.
//
// For each strategy, temporal depth and placement policy the bench runs
// the real threaded executor with the placement init epoch armed (workers
// pinned best-effort; rejections are counted, never fatal), records the
// executor's remote-traffic estimate from its placement map, and compares
// it against the simulator's projection for the same plan. Results land
// in BENCH_numa.json (schema icores.bench.v2, "placement" rows; see
// bench/validate_bench_json.py).
//
// Shape checks:
//   - every policy stays bit-identical to the serial-init (none) run,
//   - executor estimate == simulator projection (parity by construction:
//     both sides price the same placement map),
//   - first-touch arenas cross the interconnect less than interleaved
//     pages, and the measured vs projected first-touch-vs-interleave
//     delta agrees within 15%,
//   - on a single-node plan every policy projects exactly zero remote
//     bytes (the graceful fallback).
//
// `--quick` restricts the matrix to islands T=1 (plus the single-node
// fallback) for CI smoke runs.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "exec/Affinity.h"
#include "exec/ProgramExecutor.h"
#include "mpdata/InitialConditions.h"
#include "mpdata/Kernels.h"
#include "support/Format.h"
#include "support/OStream.h"
#include "support/Table.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

using namespace icores;
using namespace icores::bench;

namespace {

// Same host-sized grid as bench_temporal: large enough that the island
// partitions dominate the halo margins, small enough for CI.
constexpr int NI = 64, NJ = 48, NK = 48;
constexpr int Steps = 8;
constexpr int Islands = 2;

struct RunResult {
  Array3D State;
  int64_t RemoteBytesPerStep = 0;
  int64_t PagesFirstTouched = 0;
  int64_t PinFailures = 0;
  double Seconds = 0.0;
};

ExecutionPlan makePlan(const MpdataProgram &M, Strategy Strat, int Depth,
                       PlacementPolicy Place, int NumIslands,
                       MachineModel &Host) {
  Host = makeToyMachine();
  Host.NumSockets = NumIslands;
  PlanConfig Config;
  Config.Strat = Strat;
  Config.Sockets = NumIslands;
  Config.TemporalDepth = Depth;
  Config.Placement = Place;
  ExecutionPlan Plan =
      buildPlan(M.Program, Box3::fromExtents(NI, NJ, NK), Host, Config);
  optimizeBarriers(M.Program, Plan);
  return Plan;
}

RunResult runOnce(const MpdataProgram &M, Strategy Strat, int Depth,
                  PlacementPolicy Place, int NumIslands) {
  Domain Dom(NI, NJ, NK, mpdataHaloDepth());
  MachineModel Host;
  ExecutionPlan Plan = makePlan(M, Strat, Depth, Place, NumIslands, Host);
  ExecutorOptions Opts;
  Opts.Placement = Place;
  if (Place != PlacementPolicy::None)
    Opts.Pinning = computeThreadPlacement(Plan, Host);
  ProgramExecutor Exec(M.Program, buildMpdataKernels(), Dom,
                       std::move(Plan), Opts);
  seedMpdata(Exec, M, 42, 0.1, 2.0, 0.25, -0.2, 0.15);
  auto Begin = std::chrono::steady_clock::now();
  Exec.run(Steps);
  auto End = std::chrono::steady_clock::now();

  RunResult R;
  R.State = Exec.array(M.XIn);
  R.RemoteBytesPerStep = Exec.remoteBytesPerStep();
  R.PagesFirstTouched = Exec.stats().PagesFirstTouched;
  R.PinFailures = Exec.stats().PinFailures;
  R.Seconds = std::chrono::duration<double>(End - Begin).count();
  return R;
}

int64_t projectOnce(const MpdataProgram &M, Strategy Strat, int Depth,
                    PlacementPolicy Place, int NumIslands) {
  MachineModel Host;
  ExecutionPlan Plan = makePlan(M, Strat, Depth, Place, NumIslands, Host);
  return simulate(Plan, M.Program, Host, Steps).PlacementRemoteBytesPerStep;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false;
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--quick") == 0)
      Quick = true;
  std::printf("NUMA placement: remote DRAM traffic per step, executor vs "
              "simulator (%dx%dx%d, %d steps, %d islands%s)\n\n",
              NI, NJ, NK, Steps, Islands, Quick ? ", quick" : "");
  MpdataProgram M = buildMpdataProgram();

  const std::pair<const char *, Strategy> AllStrategies[] = {
      {"31d", Strategy::Block31D},
      {"islands", Strategy::IslandsOfCores}};
  const PlacementPolicy Policies[] = {PlacementPolicy::None,
                                      PlacementPolicy::FirstTouch,
                                      PlacementPolicy::Interleave};

  TablePrinter Table({"strategy", "T", "placement", "remote/step",
                      "projected", "pages", "bit-exact"});
  std::vector<NumaBenchJsonRow> Rows;
  int Failures = 0;
  for (const auto &S : AllStrategies) {
    if (Quick && S.second != Strategy::IslandsOfCores)
      continue;
    for (int Depth : {1, 2}) {
      if (Quick && Depth != 1)
        continue;
      RunResult Baseline;
      int64_t RemoteByPolicy[3] = {0, 0, 0};
      for (size_t P = 0; P != 3; ++P) {
        PlacementPolicy Place = Policies[P];
        RunResult R = runOnce(M, S.second, Depth, Place, Islands);
        int64_t Projected =
            projectOnce(M, S.second, Depth, Place, Islands);
        RemoteByPolicy[P] = R.RemoteBytesPerStep;
        bool Exact = true;
        if (Place == PlacementPolicy::None)
          Baseline = R;
        else
          Exact = R.State.maxAbsDiff(Baseline.State,
                                     Box3::fromExtents(NI, NJ, NK)) == 0.0;
        Table.addRow(
            {S.first, formatString("%d", Depth),
             placementPolicyName(Place),
             formatBytes(static_cast<uint64_t>(R.RemoteBytesPerStep)),
             formatBytes(static_cast<uint64_t>(Projected)),
             formatString("%lld",
                          static_cast<long long>(R.PagesFirstTouched)),
             Exact ? "yes" : "NO"});
        Rows.push_back({strategyName(S.second), Depth,
                        placementPolicyName(Place), R.RemoteBytesPerStep,
                        Projected, R.PagesFirstTouched, R.PinFailures,
                        R.Seconds});
        Failures += shapeCheck(
            Exact,
            formatString("%s T=%d %s bit-identical to serial init",
                         S.first, Depth, placementPolicyName(Place))
                .c_str());
        Failures += shapeCheck(
            R.RemoteBytesPerStep == Projected,
            formatString("%s T=%d %s executor estimate matches simulator "
                         "projection exactly",
                         S.first, Depth, placementPolicyName(Place))
                .c_str());
      }
      // First-touch arenas only cross the interconnect on the halo
      // margins; interleaved pages put 1 - 1/S of every stream remote.
      Failures += shapeCheck(
          RemoteByPolicy[1] < RemoteByPolicy[2],
          formatString("%s T=%d first-touch moves less remote traffic "
                       "than interleave (%s < %s)",
                       S.first, Depth,
                       formatBytes(static_cast<uint64_t>(RemoteByPolicy[1]))
                           .c_str(),
                       formatBytes(static_cast<uint64_t>(RemoteByPolicy[2]))
                           .c_str())
              .c_str());
      int64_t MeasuredDelta = RemoteByPolicy[2] - RemoteByPolicy[1];
      int64_t ProjectedDelta =
          projectOnce(M, S.second, Depth, PlacementPolicy::Interleave,
                      Islands) -
          projectOnce(M, S.second, Depth, PlacementPolicy::FirstTouch,
                      Islands);
      double DeltaErr =
          MeasuredDelta == 0
              ? (ProjectedDelta == 0 ? 0.0 : 1.0)
              : std::abs(static_cast<double>(ProjectedDelta) -
                         static_cast<double>(MeasuredDelta)) /
                    static_cast<double>(MeasuredDelta);
      Failures += shapeCheck(
          DeltaErr <= 0.15,
          formatString("%s T=%d projected first-touch-vs-interleave delta "
                       "within 15%% of measured (err %.1f%%)",
                       S.first, Depth, DeltaErr * 100.0)
              .c_str());
    }
  }

  // Single-node fallback: with one island there is no remote socket, so
  // every policy must degrade to exactly zero remote bytes — on the
  // executor and the simulator alike.
  for (PlacementPolicy Place : Policies) {
    RunResult R =
        runOnce(M, Strategy::IslandsOfCores, 1, Place, /*NumIslands=*/1);
    int64_t Projected =
        projectOnce(M, Strategy::IslandsOfCores, 1, Place, 1);
    Rows.push_back({strategyName(Strategy::IslandsOfCores), 1,
                    placementPolicyName(Place), R.RemoteBytesPerStep,
                    Projected, R.PagesFirstTouched, R.PinFailures,
                    R.Seconds});
    Failures += shapeCheck(
        R.RemoteBytesPerStep == 0 && Projected == 0,
        formatString("single-node fallback: %s remote bytes exactly zero",
                     placementPolicyName(Place))
            .c_str());
  }

  std::printf("\n");
  Table.print(outs());
  writeNumaBenchJson("numa", Rows);
  return Failures == 0 ? 0 : 1;
}
