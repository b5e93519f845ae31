//===- sim/TrafficReport.cpp - Per-array DRAM traffic accounting ----------===//

#include "sim/TrafficReport.h"

#include "sim/Simulator.h"
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
  // The simulator's own per-array DRAM accounting, remote slice included,
  // scaled to the run.
  const SimResult Sim = simulate(Plan, Program, Machine, TimeSteps);
  TrafficReport Report;
  Report.TimeSteps = TimeSteps;
  Report.PerArray.resize(Program.numArrays());
  for (size_t A = 0; A != Report.PerArray.size(); ++A) {
    const ArrayInfo &Info = Program.array(static_cast<ArrayId>(A));
    ArrayTraffic &T = Report.PerArray[A];
    T.Name = Info.Name;
    T.Role = Info.Role;
    T.ReadBytes = Sim.DramBytesByArray[A].Read * TimeSteps;
    T.WriteBytes = Sim.DramBytesByArray[A].Write * TimeSteps;
    T.RemoteBytes = Sim.DramBytesByArray[A].Remote * TimeSteps;
  }
  return Report;
}
