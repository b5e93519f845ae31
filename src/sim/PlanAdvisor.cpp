//===- sim/PlanAdvisor.cpp - Model-driven strategy selection ---------------===//

#include "sim/PlanAdvisor.h"

#include "core/Partition.h"
#include "stencil/HaloAnalysis.h"
#include "support/Error.h"
#include "support/Format.h"

#include <algorithm>

using namespace icores;

std::string icores::temporalPruneReason(const StencilProgram &Program,
                                        const Box3 &Grid, int Depth,
                                        int TimeSteps) {
  if (TimeSteps % Depth != 0)
    return formatString("time steps %d not divisible by temporal depth %d",
                        TimeSteps, Depth);
  Box3 Widest = temporalStepTargets(Program, Grid, Depth).front();
  for (int D = 0; D != 3; ++D)
    if (Widest.extent(D) > 2 * Grid.extent(D))
      return formatString(
          "widened step-0 cone extent %d exceeds 2x grid extent %d "
          "along dim %d",
          Widest.extent(D), Grid.extent(D), D);
  return "";
}

namespace {

/// Temporal depths worth pricing for this run: every divisor of
/// \p TimeSteps (runs consist of whole epochs only) that survives the
/// cone-blowup prune, in increasing order, 1 first. Derived from the
/// actual step count rather than a hard-coded {1, 2, 4} so e.g.
/// --steps=6 prices depths 2 and 3 and --steps=7 prices 7 (if feasible)
/// instead of nothing beyond 1.
std::vector<int> temporalDepthCandidates(const StencilProgram &Program,
                                         const Box3 &Grid, int TimeSteps) {
  std::vector<int> Depths;
  for (int Depth = 1; Depth <= TimeSteps; ++Depth) {
    if (TimeSteps % Depth != 0)
      continue;
    if (!temporalPruneReason(Program, Grid, Depth, TimeSteps).empty())
      break; // The cone only widens with depth; deeper cannot pass.
    Depths.push_back(Depth);
  }
  if (Depths.empty())
    Depths.push_back(1);
  return Depths;
}

/// Adds one candidate if checkPlanConfig() accepts it.
void tryCandidate(std::vector<AdvisorCandidate> &Out,
                  const StencilProgram &Program, const Box3 &Grid,
                  const MachineModel &Machine, int TimeSteps,
                  const PlanConfig &Config, std::string Label) {
  if (!checkPlanConfig(Grid, Machine, Config).empty())
    return;
  ExecutionPlan Plan = buildPlan(Program, Grid, Machine, Config);
  AdvisorCandidate Candidate;
  Candidate.Config = Config;
  Candidate.Result = simulate(Plan, Program, Machine, TimeSteps);
  Candidate.Label = std::move(Label);
  Out.push_back(std::move(Candidate));
}

} // namespace

AdvisorReport icores::adviseBestPlan(const StencilProgram &Program,
                                     const Box3 &Grid,
                                     const MachineModel &Machine, int Sockets,
                                     int TimeSteps) {
  AdvisorReport Report;

  PlanConfig Base;
  Base.Sockets = Sockets;

  PlanConfig Config = Base;
  Config.Strat = Strategy::Original;
  tryCandidate(Report.Candidates, Program, Grid, Machine, TimeSteps, Config,
               "original (stage-major)");

  Config = Base;
  Config.Strat = Strategy::Block31D;
  tryCandidate(Report.Candidates, Program, Grid, Machine, TimeSteps, Config,
               "pure (3+1)D decomposition");

  // Islands: both 1D variants, a near-square 2D grid, and sub-socket
  // island counts (powers of two dividing the cores). The cache-blocked
  // strategies are also priced with fused temporal epochs — the depth
  // trades redundant cone compute against amortised DRAM streams and
  // global barriers, so the winner is grid- and machine-dependent. The
  // depths priced are the feasible divisors of the requested step count
  // (temporalDepthCandidates), not a fixed set. Each multi-island 1D
  // candidate is priced under both balance policies: cost-balanced cuts
  // shrink the predicted island skew on skewed configurations at the
  // price of wider interior cones.
  const std::vector<int> Depths =
      temporalDepthCandidates(Program, Grid, TimeSteps);
  for (PartitionVariant Variant :
       {PartitionVariant::A, PartitionVariant::B})
    for (int Depth : Depths)
      for (BalancePolicy Balance :
           {BalancePolicy::Uniform, BalancePolicy::Cost}) {
        if (Balance == BalancePolicy::Cost &&
            Sockets * Base.IslandsPerSocket < 2)
          continue; // One island: nothing to balance.
        Config = Base;
        Config.Strat = Strategy::IslandsOfCores;
        Config.Variant = Variant;
        Config.TemporalDepth = Depth;
        Config.Balance = Balance;
        std::string Label =
            formatString("islands 1D variant %c",
                         Variant == PartitionVariant::A ? 'A' : 'B');
        if (Depth > 1)
          Label += formatString(", temporal depth %d", Depth);
        if (Balance == BalancePolicy::Cost)
          Label += ", cost-balanced";
        tryCandidate(Report.Candidates, Program, Grid, Machine, TimeSteps,
                     Config, std::move(Label));
      }
  for (int Depth : Depths) {
    if (Depth == 1)
      continue; // Depth-1 pure (3+1)D was priced above.
    Config = Base;
    Config.Strat = Strategy::Block31D;
    Config.TemporalDepth = Depth;
    tryCandidate(Report.Candidates, Program, Grid, Machine, TimeSteps,
                 Config,
                 formatString("pure (3+1)D, temporal depth %d", Depth));
  }
  if (Sockets > 1) {
    auto [Pi, Pj] = factorForGrid(Sockets);
    if (Pj > 1) {
      Config = Base;
      Config.Strat = Strategy::IslandsOfCores;
      Config.GridPartsI = Pi;
      Config.GridPartsJ = Pj;
      tryCandidate(Report.Candidates, Program, Grid, Machine, TimeSteps,
                   Config, formatString("islands 2D grid %dx%d", Pi, Pj));
    }
  }
  for (int PerSocket = 2; PerSocket <= Machine.CoresPerSocket;
       PerSocket *= 2) {
    if (Machine.CoresPerSocket % PerSocket != 0)
      break;
    Config = Base;
    Config.Strat = Strategy::IslandsOfCores;
    Config.IslandsPerSocket = PerSocket;
    tryCandidate(Report.Candidates, Program, Grid, Machine, TimeSteps,
                 Config,
                 formatString("islands, %d per socket", PerSocket));
  }

  // Placement alternatives: the serial-init original (Table 1's first
  // row) prices what first-touch placement buys on this machine, and
  // page-interleaved islands are the OS-level middle ground when
  // per-island first-touch arenas are not available. Ties against the
  // first-touch twin keep insertion order (stable sort), so the
  // first-touch candidate stays ranked ahead.
  Config = Base;
  Config.Strat = Strategy::Original;
  Config.Placement = PagePlacement::None;
  tryCandidate(Report.Candidates, Program, Grid, Machine, TimeSteps, Config,
               "original (serial init)");
  Config = Base;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Placement = PagePlacement::Interleave;
  tryCandidate(Report.Candidates, Program, Grid, Machine, TimeSteps, Config,
               "islands 1D variant A, interleaved pages");

  ICORES_CHECK(!Report.Candidates.empty(), "no feasible candidate plan");
  std::stable_sort(Report.Candidates.begin(), Report.Candidates.end(),
                   [](const AdvisorCandidate &A, const AdvisorCandidate &B) {
                     return A.Result.TotalSeconds < B.Result.TotalSeconds;
                   });
  return Report;
}
