//===- sim/TrafficReport.h - Per-array DRAM traffic accounting --*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A likwid-perfctr-style breakdown of main-memory traffic per array for
/// one plan: which arrays stream from DRAM, which stay cache-resident, and
/// how much each contributes. The paper's Sect. 3.2 uses exactly this kind
/// of measurement (133 GB -> 30 GB) to motivate the (3+1)D decomposition.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_SIM_TRAFFICREPORT_H
#define ICORES_SIM_TRAFFICREPORT_H

#include "core/ExecutionPlan.h"
#include "machine/MachineModel.h"
#include "stencil/StencilIR.h"

#include <cstdint>
#include <string>
#include <vector>

namespace icores {

class OStream;

/// DRAM traffic attributed to one array over a whole run.
struct ArrayTraffic {
  std::string Name;
  ArrayRole Role = ArrayRole::Intermediate;
  int64_t ReadBytes = 0;
  int64_t WriteBytes = 0;
  /// The slice of this array's traffic served from pages the plan's
  /// placement policy homes on a different socket than the accessing
  /// island (core/PlacementMap.h). Zero for intermediates — they are
  /// island-private. Printed as its own column when any array has one.
  int64_t RemoteBytes = 0;

  int64_t totalBytes() const { return ReadBytes + WriteBytes; }
};

/// Whole-run traffic report.
struct TrafficReport {
  std::vector<ArrayTraffic> PerArray; ///< Indexed by ArrayId.
  int TimeSteps = 0;

  int64_t totalBytes() const;
  int64_t bytesForRole(ArrayRole Role) const;
  /// Whole-run remote bytes across all arrays (see
  /// ArrayTraffic::RemoteBytes).
  int64_t remoteBytes() const;

  /// Renders an aligned table, largest contributors first.
  void print(OStream &OS) const;
};

/// Accounts the DRAM traffic of running \p Plan for \p TimeSteps steps:
/// the simulator's per-array accounting (SimResult::DramBytesByArray)
/// scaled to the run, so totalBytes() equals simulate()'s totalDramBytes()
/// exactly, remote slices included: a view that keeps no rules of its own.
TrafficReport accountTraffic(const ExecutionPlan &Plan,
                             const StencilProgram &Program,
                             const MachineModel &Machine, int TimeSteps);

} // namespace icores

#endif // ICORES_SIM_TRAFFICREPORT_H
