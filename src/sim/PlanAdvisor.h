//===- sim/PlanAdvisor.h - Model-driven strategy selection ------*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's future work asks for "performance models and methods for
/// modeling and management of the correlation between computation and
/// communication costs" so that "the optimal trade-off ... should be
/// determined on this basis". PlanAdvisor is that component: it enumerates
/// candidate configurations (strategy, partition variant, island grids,
/// islands-per-socket, page-placement policies), prices each with the
/// simulator, and returns them ranked.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_SIM_PLANADVISOR_H
#define ICORES_SIM_PLANADVISOR_H

#include "core/PlanBuilder.h"
#include "sim/Simulator.h"

#include <string>
#include <vector>

namespace icores {

/// One evaluated configuration.
struct AdvisorCandidate {
  PlanConfig Config;
  SimResult Result;
  std::string Label; ///< Human-readable description of the configuration.
};

/// All evaluated configurations, fastest first.
struct AdvisorReport {
  std::vector<AdvisorCandidate> Candidates;

  const AdvisorCandidate &best() const { return Candidates.front(); }

  /// Predicted speedup of the best candidate over configuration \p Index.
  double advantageOver(size_t Index) const {
    return Candidates[Index].Result.TotalSeconds /
           best().Result.TotalSeconds;
  }
};

/// Why fusing \p Depth steps of \p Program over \p Grid is not worth
/// pricing for a \p TimeSteps-step run, or an empty string when it is:
/// the run must consist of whole epochs, and the widened step-0 dependence
/// cone must not exceed 2x the grid per dimension (beyond that the
/// redundant overlap work certainly loses). The advisor and the proof
/// driver's plan space (verify/PlanSpace.h) both prune with it.
std::string temporalPruneReason(const StencilProgram &Program,
                                const Box3 &Grid, int Depth, int TimeSteps);

/// Enumerates and prices candidate plans for running \p TimeSteps steps of
/// \p Program over \p Grid on \p Sockets sockets of \p Machine.
/// Candidates checkPlanConfig() rejects (e.g. more islands than grid
/// planes) are skipped silently; the request must admit at least one.
AdvisorReport adviseBestPlan(const StencilProgram &Program, const Box3 &Grid,
                             const MachineModel &Machine, int Sockets,
                             int TimeSteps);

} // namespace icores

#endif // ICORES_SIM_PLANADVISOR_H
