//===- core/PlanBuilder.cpp - Strategy plan construction ------------------===//

#include "core/PlanBuilder.h"

#include "core/BalanceModel.h"
#include "core/BlockPlanner.h"
#include "machine/MachineModel.h"
#include "stencil/HaloAnalysis.h"
#include "support/Error.h"
#include "support/Format.h"

using namespace icores;

namespace {

/// Cache budget available to a team spanning \p Sockets sockets.
int64_t teamCacheBudget(const MachineModel &Machine, int Sockets) {
  return static_cast<int64_t>(static_cast<double>(Machine.LlcBytesPerSocket) *
                              Sockets * Machine.CacheBudgetFraction);
}

/// Emits one island's blocks for every fused step of the epoch: step t's
/// blocks cover the island's t-th widened target clipped against the t-th
/// global cone, stamped with StepInEpoch = t. \p Thickness <= 0 selects
/// the Original strategy's single full-region block per step.
std::vector<BlockTask> planTemporalBlocks(const StencilProgram &Program,
                                          const std::vector<Box3> &StepTargets,
                                          const std::vector<Box3> &GlobalSteps,
                                          int Thickness) {
  std::vector<BlockTask> Blocks;
  for (size_t T = 0; T != StepTargets.size(); ++T) {
    std::vector<BlockTask> Step =
        Thickness > 0
            ? planIslandBlocks(Program, StepTargets[T], GlobalSteps[T],
                               Thickness)
            : planSingleBlock(Program, StepTargets[T], GlobalSteps[T]);
    for (BlockTask &Block : Step) {
      Block.StepInEpoch = static_cast<int>(T);
      Blocks.push_back(std::move(Block));
    }
  }
  return Blocks;
}

} // namespace

std::string icores::checkPlanConfig(const Box3 &Grid,
                                    const MachineModel &Machine,
                                    const PlanConfig &Config) {
  const int NI = Grid.extent(0), NJ = Grid.extent(1), NK = Grid.extent(2);
  if (Grid.empty())
    return formatString("grid %dx%dx%d is empty: every extent must be at "
                        "least 1",
                        NI, NJ, NK);
  if (Config.Sockets < 1)
    return formatString("socket count %d must be at least 1", Config.Sockets);
  if (Config.Sockets > Machine.NumSockets)
    return formatString("socket count %d exceeds the %d sockets of the %s "
                        "machine",
                        Config.Sockets, Machine.NumSockets,
                        Machine.Name.c_str());
  if (Config.TemporalDepth < 1)
    return formatString("temporal depth %d must be at least 1",
                        Config.TemporalDepth);
  if (Config.Strat != Strategy::IslandsOfCores)
    return "";

  if (Config.IslandsPerSocket < 1 ||
      Machine.CoresPerSocket % Config.IslandsPerSocket != 0)
    return formatString("%d islands per socket do not divide the %d cores "
                        "per socket",
                        Config.IslandsPerSocket, Machine.CoresPerSocket);
  const int Islands = Config.Sockets * Config.IslandsPerSocket;
  if (Config.GridPartsI > 0 && Config.GridPartsJ > 0) {
    if (static_cast<int64_t>(Config.GridPartsI) * Config.GridPartsJ !=
        Islands)
      return formatString("2D island grid %dx%d does not hold the plan's "
                          "%d islands",
                          Config.GridPartsI, Config.GridPartsJ, Islands);
    if (static_cast<int64_t>(Config.GridPartsI) * MinIslandPlanes > NI ||
        static_cast<int64_t>(Config.GridPartsJ) * MinIslandPlanes > NJ)
      return formatString("grid %dx%dx%d: ni=%d, nj=%d are narrower than "
                          "the 2D island grid %dx%d",
                          NI, NJ, NK, NI, NJ, Config.GridPartsI,
                          Config.GridPartsJ);
    return "";
  }
  const int Dim = partitionDim(Config.Variant);
  if (static_cast<int64_t>(Islands) * MinIslandPlanes > Grid.extent(Dim))
    return formatString("grid %dx%dx%d: n%c=%d is narrower than the %d "
                        "islands of the variant %c split",
                        NI, NJ, NK, Dim == 0 ? 'i' : 'j', Grid.extent(Dim),
                        Islands, Dim == 0 ? 'A' : 'B');
  return "";
}

ExecutionPlan icores::buildPlan(const StencilProgram &Program,
                                const Box3 &GlobalTarget,
                                const MachineModel &Machine,
                                const PlanConfig &Config) {
  const std::string Reason = checkPlanConfig(GlobalTarget, Machine, Config);
  ICORES_CHECK(Reason.empty(), Reason.c_str());

  ExecutionPlan Plan;
  Plan.Strat = Config.Strat;
  Plan.Placement = Config.Placement;
  Plan.Balance = Config.Balance;
  Plan.GlobalTarget = GlobalTarget;
  Plan.TemporalDepth = Config.TemporalDepth;

  // Per-step global cones; for TemporalDepth == 1 this is {GlobalTarget}.
  std::vector<Box3> GlobalSteps =
      temporalStepTargets(Program, GlobalTarget, Config.TemporalDepth);

  if (Config.Strat == Strategy::Original ||
      Config.Strat == Strategy::Block31D) {
    // One team: all participating sockets cooperate on every pass.
    IslandPlan Island;
    Island.Index = 0;
    Island.HomeSocket = 0;
    Island.NumSockets = Config.Sockets;
    Island.NumThreads = Config.Sockets * Machine.CoresPerSocket;
    Island.Part = GlobalTarget;
    int Thickness =
        Config.Strat == Strategy::Original
            ? 0
            : blockThickness(Program, GlobalTarget,
                             teamCacheBudget(Machine, Config.Sockets));
    Island.Blocks =
        planTemporalBlocks(Program, GlobalSteps, GlobalSteps, Thickness);
    Plan.Islands.push_back(std::move(Island));
    return Plan;
  }

  // Islands-of-cores: IslandsPerSocket islands per socket (one by
  // default); neighbor parts land on adjacent islands, and thus on
  // adjacent sockets (affinity-aware placement along NUMAlink).
  int NumIslands = Config.Sockets * Config.IslandsPerSocket;
  int ThreadsPerIsland = Machine.CoresPerSocket / Config.IslandsPerSocket;
  std::vector<Box3> Parts;
  if (Config.GridPartsI > 0 && Config.GridPartsJ > 0) {
    // Cost balancing sizes 1D cut planes; 2D grids keep uniform cuts.
    Parts = partition2D(GlobalTarget, Config.GridPartsI, Config.GridPartsJ);
  } else if (Config.Balance == BalancePolicy::Cost) {
    // Size the slabs so predicted per-island seconds are equal: serial
    // init homes pages on island 0's socket, and the interleave slice is
    // over the sockets this plan activates.
    std::vector<bool> OnHome;
    OnHome.reserve(static_cast<size_t>(NumIslands));
    for (int P = 0; P != NumIslands; ++P)
      OnHome.push_back(P / Config.IslandsPerSocket == 0);
    Parts = partitionCostBalanced(
        Program, GlobalTarget, NumIslands, partitionDim(Config.Variant),
        Config.TemporalDepth, ThreadsPerIsland, Machine, Config.Placement,
        Config.Sockets, OnHome);
  } else {
    Parts =
        partition1D(GlobalTarget, NumIslands, partitionDim(Config.Variant));
  }

  int64_t IslandBudget =
      teamCacheBudget(Machine, 1) / Config.IslandsPerSocket;
  for (int P = 0; P != NumIslands; ++P) {
    IslandPlan Island;
    Island.Index = P;
    Island.HomeSocket = P / Config.IslandsPerSocket;
    Island.NumSockets = 1;
    Island.NumThreads = ThreadsPerIsland;
    Island.Part = Parts[static_cast<size_t>(P)];
    int Thickness = blockThickness(Program, Island.Part, IslandBudget);
    Island.Blocks = planTemporalBlocks(
        Program,
        temporalStepTargets(Program, Island.Part, Config.TemporalDepth),
        GlobalSteps, Thickness);
    Plan.Islands.push_back(std::move(Island));
  }
  return Plan;
}
