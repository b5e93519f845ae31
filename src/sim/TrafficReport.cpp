//===- sim/TrafficReport.cpp - Per-array DRAM traffic accounting ----------===//

#include "sim/TrafficReport.h"

#include "core/PlacementMap.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/OStream.h"
#include "support/Table.h"

#include <algorithm>
#include <numeric>

using namespace icores;

int64_t TrafficReport::totalBytes() const {
  int64_t Total = 0;
  for (const ArrayTraffic &A : PerArray)
    Total += A.totalBytes();
  return Total;
}

int64_t TrafficReport::bytesForRole(ArrayRole Role) const {
  int64_t Total = 0;
  for (const ArrayTraffic &A : PerArray)
    if (A.Role == Role)
      Total += A.totalBytes();
  return Total;
}

int64_t TrafficReport::remoteBytes() const {
  int64_t Total = 0;
  for (const ArrayTraffic &A : PerArray)
    Total += A.RemoteBytes;
  return Total;
}

void TrafficReport::print(OStream &OS) const {
  std::vector<size_t> Order(PerArray.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return PerArray[A].totalBytes() > PerArray[B].totalBytes();
  });

  bool ShowRemote = remoteBytes() > 0;
  std::vector<std::string> Columns = {"array", "role", "read", "written",
                                      "total"};
  if (ShowRemote)
    Columns.push_back("remote");
  TablePrinter Table(Columns);
  auto roleName = [](ArrayRole Role) {
    switch (Role) {
    case ArrayRole::StepInput:
      return "input";
    case ArrayRole::Intermediate:
      return "intermediate";
    case ArrayRole::StepOutput:
      return "output";
    }
    ICORES_UNREACHABLE("unknown array role");
  };
  for (size_t Index : Order) {
    const ArrayTraffic &A = PerArray[Index];
    if (A.totalBytes() == 0)
      continue;
    std::vector<std::string> Row = {
        A.Name, roleName(A.Role),
        formatBytes(static_cast<uint64_t>(A.ReadBytes)),
        formatBytes(static_cast<uint64_t>(A.WriteBytes)),
        formatBytes(static_cast<uint64_t>(A.totalBytes()))};
    if (ShowRemote)
      Row.push_back(formatBytes(static_cast<uint64_t>(A.RemoteBytes)));
    Table.addRow(Row);
  }
  Table.print(OS);
  OS << "total DRAM traffic over " << TimeSteps << " steps: "
     << formatBytes(static_cast<uint64_t>(totalBytes()));
  if (ShowRemote)
    OS << " (remote: " << formatBytes(static_cast<uint64_t>(remoteBytes()))
       << ')';
  OS << '\n';
}

TrafficReport icores::accountTraffic(const ExecutionPlan &Plan,
                                     const StencilProgram &Program,
                                     const MachineModel &Machine,
                                     int TimeSteps) {
  ICORES_CHECK(TimeSteps >= 1, "need at least one time step");
  TrafficReport Report;
  Report.TimeSteps = TimeSteps;
  Report.PerArray.resize(Program.numArrays());
  for (unsigned A = 0; A != Program.numArrays(); ++A) {
    Report.PerArray[A].Name = Program.array(static_cast<ArrayId>(A)).Name;
    Report.PerArray[A].Role = Program.array(static_cast<ArrayId>(A)).Role;
  }

  // One temporal epoch (Depth fused steps) under the simulator's rules,
  // then scaled to the run. Blocked strategies keep intermediates
  // cache-resident (only the spill fraction reaches DRAM) and stream each
  // step input once per island: its footprint, the import buffer at
  // T > 1. Within an epoch, the passes' step-input reads hit that import
  // buffer and the non-final fused steps write island-private scratch,
  // both cache-resident too.
  const bool Blocked = Plan.Strat != Strategy::Original;
  const int Depth = std::max(1, Plan.TemporalDepth);
  const double WriteFactor = Machine.NonTemporalStores ? 1.0 : 2.0;
  auto spill = [&Machine](int64_t Bytes) {
    return static_cast<int64_t>(Machine.CacheSpillFraction *
                                static_cast<double>(Bytes));
  };

  for (const IslandPlan &Island : Plan.Islands) {
    for (const BlockTask &Block : Island.Blocks) {
      const bool FinalStep = Block.StepInEpoch == Depth - 1;
      for (const StagePass &Pass : Block.Passes) {
        const StageDef &Stage = Program.stage(Pass.Stage);
        int64_t Points = Pass.Region.numPoints();
        if (Points == 0)
          continue;
        for (const StageInput &In : Stage.Inputs) {
          const ArrayInfo &Info = Program.array(In.Array);
          int64_t ReadBytes =
              In.readRegion(Pass.Region).numPoints() * Info.ElementBytes;
          ArrayTraffic &T = Report.PerArray[static_cast<size_t>(In.Array)];
          if (!Blocked)
            T.ReadBytes += ReadBytes;
          else if (Info.Role != ArrayRole::StepInput || Depth > 1)
            T.ReadBytes += spill(ReadBytes);
          // Blocked T = 1 step-input reads are the footprint stream below.
        }
        for (ArrayId Out : Stage.Outputs) {
          const ArrayInfo &Info = Program.array(Out);
          int64_t WriteBytes = static_cast<int64_t>(
              static_cast<double>(Points * Info.ElementBytes) * WriteFactor);
          ArrayTraffic &T = Report.PerArray[static_cast<size_t>(Out)];
          if (Blocked && (Info.Role == ArrayRole::Intermediate || !FinalStep))
            T.WriteBytes += spill(WriteBytes);
          else
            T.WriteBytes += WriteBytes;
        }
      }
    }
    if (Blocked || Depth > 1) {
      const IslandFootprint F = islandFootprint(Program, Plan, Island);
      for (ArrayId In : Program.stepInputs())
        Report.PerArray[static_cast<size_t>(In)].ReadBytes +=
            F.Reads[static_cast<size_t>(In)].numPoints() *
            Program.array(In).ElementBytes;
    }
  }
  for (ArrayTraffic &A : Report.PerArray) {
    A.ReadBytes = A.ReadBytes * TimeSteps / Depth;
    A.WriteBytes = A.WriteBytes * TimeSteps / Depth;
  }

  // Remote slice of the shared-array traffic under the plan's placement
  // policy, from the same per-array split the executor and simulator use.
  PlacementMap PMap = buildPlacementMap(Plan, Plan.Placement);
  for (const IslandPlan &Island : Plan.Islands) {
    IslandRemoteTraffic RT =
        estimateIslandRemoteEpochTraffic(Island, Plan, Program, PMap);
    for (const auto &[Array, Bytes] : RT.BytesByArray)
      Report.PerArray[static_cast<size_t>(Array)].RemoteBytes +=
          Bytes / Depth * TimeSteps;
  }
  return Report;
}
