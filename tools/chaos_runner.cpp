//===- tools/chaos_runner.cpp - Seed-sweeping chaos harness ---------------===//
//
// Sweeps seeds through the deterministic fault injector and asserts, for
// every seed, the chaos subsystem's two contracts:
//
//   1. Recoverable plans (drop/delay/duplicate/corrupt/stall/wake) end in
//      a result bit-identical to the fault-free run, and replaying the
//      same seed injects the identical fault multiset.
//   2. Lethal plans (nonzero lose rate — modelling peer death) end in a
//      structured icores::Error naming the injected fault, never in a
//      deadlock; a per-seed watchdog aborts the process otherwise.
//
//   chaos_runner [--seeds=N] [--lethal-every=K] [--pi --pj --ni --nj
//                 --nk --steps] [--verbose]
//
// Exit status 0 iff every seed upholds its contract. CI runs
// `chaos_runner --seeds=16` (the chaos-smoke job); the PR gate is
// `--seeds=64` locally.
//
//===----------------------------------------------------------------------===//

#include "apps/Workloads.h"
#include "dist/DistributedSolver.h"
#include "fault/FaultInjector.h"
#include "fault/Watchdog.h"
#include "support/CommandLine.h"
#include "support/Random.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace icores;

namespace {

/// Derives a mixed recoverable plan from one sweep seed: every rate is a
/// pure function of the seed, so the whole sweep is reproducible.
FaultPlan planForSeed(uint64_t Seed, bool Lethal) {
  FaultPlan Plan;
  Plan.Seed = Seed;
  SplitMix64 Rng(Seed ^ 0xc4a5e51dULL);
  auto rate = [&Rng](double Max) {
    return static_cast<double>(Rng.next() >> 11) * 0x1.0p-53 * Max;
  };
  Plan.DropRate = rate(0.15);
  Plan.DelayRate = rate(0.15);
  Plan.DuplicateRate = rate(0.15);
  Plan.CorruptRate = rate(0.15);
  Plan.MaxDelaySeconds = 1e-3;
  if (Lethal)
    Plan.LoseRate = 0.25; // Dense enough that some message always dies.
  return Plan;
}

std::vector<std::string> sortedTrace(const FaultInjector &Injector) {
  std::vector<std::string> T = Injector.trace();
  std::sort(T.begin(), T.end());
  return T;
}

bool traceMentions(const std::vector<std::string> &Trace,
                   const char *What) {
  for (const std::string &Entry : Trace)
    if (Entry.find(What) != std::string::npos)
      return true;
  return false;
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine CL;
  for (const char *Opt : {"seeds", "lethal-every", "pi", "pj", "ni", "nj",
                          "nk", "steps", "verbose", "help"})
    CL.registerOption(Opt, "");
  std::string Error;
  if (!CL.parse(Argc, Argv, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  if (CL.hasOption("help")) {
    std::printf("usage: chaos_runner [--seeds=N] [--lethal-every=K]\n"
                "                    [--pi --pj --ni --nj --nk --steps]\n"
                "                    [--verbose]\n");
    return 0;
  }
  const int Seeds = static_cast<int>(CL.getInt("seeds", 16));
  const int LethalEvery = static_cast<int>(CL.getInt("lethal-every", 8));
  const int PI = static_cast<int>(CL.getInt("pi", 2));
  const int PJ = static_cast<int>(CL.getInt("pj", 1));
  const int NI = static_cast<int>(CL.getInt("ni", 20));
  const int NJ = static_cast<int>(CL.getInt("nj", 12));
  const int NK = static_cast<int>(CL.getInt("nk", 6));
  const int Steps = static_cast<int>(CL.getInt("steps", 2));
  const bool Verbose = CL.hasOption("verbose");

  // The registered MPDATA workload; every rank seeds its own part from
  // the spec's init, as in a real MPI deployment.
  const WorkloadSpec &Spec = *builtinWorkloads().find("mpdata");
  const ArrayId State = Spec.Program.feedbacks().front().Target;
  Box3 Core = Box3::fromExtents(NI, NJ, NK);
  auto runChaos = [&](FaultInjector *Injector, const CommTimeouts &T) {
    return runDistributed(Spec, KernelVariant::Reference, PI, PJ, NI, NJ, NK,
                          Steps, /*Seed=*/0, Injector, T);
  };

  // Chaos runs retry aggressively: the retransmit log satisfies a
  // re-request on the first timeout tick, so small backoffs keep the
  // sweep fast while the generous retry count keeps recoverable runs
  // far from a spurious exhaustion.
  CommTimeouts Tight;
  Tight.InitialBackoffSeconds = 2e-4;
  Tight.MaxBackoffSeconds = 4e-3;
  Tight.MaxRetries = 120;

  DistributedResult Baseline;
  {
    Watchdog Dog(60.0, "chaos_runner: fault-free baseline");
    Baseline = runChaos(/*Injector=*/nullptr, CommTimeouts());
  }
  if (!Baseline.Ok) {
    std::fprintf(stderr, "FAIL: fault-free baseline failed: %s\n",
                 Baseline.RankErrors.front().c_str());
    return 1;
  }

  int Recovered = 0, Failed = 0, Violations = 0;
  int64_t TotalInjected = 0, TotalRetries = 0, TotalRepaired = 0;
  for (int S = 0; S != Seeds; ++S) {
    uint64_t Seed = 0x5eedULL + static_cast<uint64_t>(S) * 7919;
    bool Lethal = LethalEvery > 0 && S % LethalEvery == LethalEvery - 1;
    FaultPlan Plan = planForSeed(Seed, Lethal);

    auto runOnce = [&](FaultInjector &Injector) {
      Watchdog Dog(60.0, ("chaos_runner: seed " + std::to_string(Seed) +
                          (Lethal ? " (lethal)" : ""))
                             .c_str());
      return runChaos(&Injector, Tight);
    };
    FaultInjector Run1(Plan);
    DistributedResult R1 = runOnce(Run1);
    FaultInjector Run2(Plan);
    DistributedResult R2 = runOnce(Run2);

    TotalInjected += R1.Faults.Injected;
    TotalRetries += R1.Faults.Retries;
    TotalRepaired += R1.Faults.Recovered;

    auto violation = [&](const std::string &Why) {
      ++Violations;
      std::fprintf(stderr, "FAIL seed %llu (%s): %s\n",
                   static_cast<unsigned long long>(Seed),
                   Lethal ? "lethal" : "recoverable", Why.c_str());
    };

    if (Lethal) {
      // Contract 2: a structured, seed-reproducible error naming the
      // fault — and both replays agree that the run dies.
      if (R1.Ok || R2.Ok)
        violation("lose-armed run completed instead of failing");
      else if (R1.ErrorTrace.empty() ||
               !traceMentions(R1.ErrorTrace, "lose"))
        violation("structured error does not name the lost message");
      else
        ++Failed;
    } else {
      if (!R1.Ok || !R2.Ok) {
        violation("recoverable plan failed: " +
                  (R1.Ok ? R2 : R1).RankErrors.front());
      } else if (R1.array(State).maxAbsDiff(Baseline.array(State), Core) !=
                     0.0 ||
                 R2.array(State).maxAbsDiff(Baseline.array(State), Core) !=
                     0.0) {
        violation("recovered state is not bit-identical to fault-free");
      } else if (sortedTrace(Run1) != sortedTrace(Run2)) {
        violation("same seed injected a different fault multiset");
      } else {
        ++Recovered;
      }
    }
    if (Verbose)
      std::printf("seed %llu: %s, %lld faults, %lld retries, %lld "
                  "repaired\n",
                  static_cast<unsigned long long>(Seed),
                  Lethal ? "lethal" : "recovered",
                  static_cast<long long>(R1.Faults.Injected),
                  static_cast<long long>(R1.Faults.Retries),
                  static_cast<long long>(R1.Faults.Recovered));
  }

  std::printf("chaos_runner: %d seeds on %dx%d ranks, %dx%dx%d, %d steps\n",
              Seeds, PI, PJ, NI, NJ, NK, Steps);
  std::printf("  recovered bit-exactly: %d\n", Recovered);
  std::printf("  failed structurally:   %d (lose-armed, by design)\n",
              Failed);
  std::printf("  contract violations:   %d\n", Violations);
  std::printf("  faults injected %lld, retries %lld, repaired %lld\n",
              static_cast<long long>(TotalInjected),
              static_cast<long long>(TotalRetries),
              static_cast<long long>(TotalRepaired));
  return Violations == 0 ? 0 : 1;
}
