//===- examples/weather_advection.cpp - NWP-style moisture transport ------===//
//
// A scenario shaped like MPDATA's home application (the EULAG dynamic core
// used in numerical weather prediction): a moisture plume carried around a
// cyclonic (solid-body) wind field over many time steps, computed with the
// islands-of-cores executor. Prints conservation/extremum diagnostics and
// an ASCII rendering of a horizontal slice as the plume rotates, and exits
// 1 unless mass is conserved to round-off and the plume stays positive
// and below its initial peak.
//
// Run:  ./weather_advection [--size=48 --steps=120 --islands=2]
//
//===----------------------------------------------------------------------===//

#include "core/PlanBuilder.h"
#include "exec/ProgramExecutor.h"
#include "machine/MachineModel.h"
#include "mpdata/InitialConditions.h"
#include "mpdata/Kernels.h"
#include "support/CommandLine.h"
#include "support/Format.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace icores;

namespace {

/// Renders the k-midplane of the field as ASCII shades.
void renderSlice(const Array3D &Field, const Domain &Dom) {
  static const char Shades[] = " .:-=+*#%@";
  int K = Dom.nk() / 2;
  double Max = 0.0;
  for (int I = 0; I != Dom.ni(); ++I)
    for (int J = 0; J != Dom.nj(); ++J)
      Max = std::max(Max, Field.at(I, J, K));
  for (int J = Dom.nj() - 1; J >= 0; J -= 2) { // Halve rows for aspect.
    std::printf("    ");
    for (int I = 0; I != Dom.ni(); ++I) {
      double V = Field.at(I, J, K) / (Max > 0 ? Max : 1.0);
      int Level = std::min(9, static_cast<int>(V * 9.99));
      std::putchar(Shades[Level]);
    }
    std::putchar('\n');
  }
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine CL;
  CL.registerOption("size", "horizontal grid size (default 48)");
  CL.registerOption("steps", "time steps (default 120)");
  CL.registerOption("islands", "number of islands (default 2)");
  std::string Error;
  if (!CL.parse(Argc, Argv, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  int N = static_cast<int>(CL.getInt("size", 48));
  int Steps = static_cast<int>(CL.getInt("steps", 120));
  int Islands = static_cast<int>(CL.getInt("islands", 2));

  std::printf("moisture plume in a cyclonic wind field: %dx%dx8 grid, %d "
              "steps, %d islands\n\n",
              N, N, Steps, Islands);

  MachineModel Machine = makeToyMachine();
  Machine.NumSockets = Islands;
  PlanConfig Config;
  Config.Strat = Strategy::IslandsOfCores;
  Config.Sockets = Islands;
  // Refuse what the library cannot run before building anything.
  std::string Why =
      Steps < 0 ? formatString("--steps=%d must be at least 0", Steps)
                : checkPlanConfig(Box3::fromExtents(N, N, 8), Machine, Config);
  if (Why.empty())
    Why = Domain(N, N, 8, mpdataHaloDepth()).checkHalo();
  if (!Why.empty()) {
    std::fprintf(stderr, "error: %s\n", Why.c_str());
    return 1;
  }

  MpdataProgram M = buildMpdataProgram();
  Domain Dom(N, N, 8, mpdataHaloDepth());
  Box3 Core = Dom.coreBox();
  ExecutionPlan Plan = buildPlan(M.Program, Core, Machine, Config);
  ProgramExecutor Exec(M.Program, buildMpdataKernels(), Dom,
                       std::move(Plan));

  // Moisture plume off-centre; cyclone centred mid-domain. Omega is kept
  // small enough that the largest Courant number stays stable.
  GaussianBlob Plume;
  Plume.CenterI = N * 0.5;
  Plume.CenterJ = N * 0.75;
  Plume.Sigma = N / 12.0;
  Plume.CenterK = 4.0;
  Plume.Background = 0.02; // Ambient humidity.
  fillGaussian(Exec.array(M.XIn), Dom, Plume);
  double Omega = 0.8 / N; // Max Courant ~0.4 at the domain edge.
  setRotationalVelocity(Exec.array(M.U1), Exec.array(M.U2),
                        Exec.array(M.U3), Dom, Omega, N / 2.0, N / 2.0);
  Exec.array(M.H).fill(1.0); // Uniform density: the mass is the sum of psi.
  Exec.prepareInputs();

  // The plume's smallest and largest value over the core.
  auto extrema = [&] {
    const Array3D &Psi = Exec.array(M.XIn);
    std::pair<double, double> MinMax{HUGE_VAL, -HUGE_VAL};
    for (int I = Core.Lo[0]; I != Core.Hi[0]; ++I)
      for (int J = Core.Lo[1]; J != Core.Hi[1]; ++J)
        for (int K = Core.Lo[2]; K != Core.Hi[2]; ++K) {
          MinMax.first = std::min(MinMax.first, Psi.at(I, J, K));
          MinMax.second = std::max(MinMax.second, Psi.at(I, J, K));
        }
    return MinMax;
  };
  const double Mass0 = Exec.array(M.XIn).sumRegion(Core);
  const auto [Min0, Peak0] = extrema();
  // Four legs; the last one also runs the steps a quarter leaves over.
  double Drift = 0.0, Min = Min0, Peak = Peak0;
  for (int Leg = 0, Done = 0; Leg != 4; ++Leg) {
    int LegSteps = Steps / 4 + (Leg == 3 ? Steps % 4 : 0);
    Exec.run(LegSteps);
    Done += LegSteps;
    auto [LegMin, LegPeak] = extrema();
    Min = std::min(Min, LegMin);
    Peak = std::max(Peak, LegPeak);
    double LegDrift = (Exec.array(M.XIn).sumRegion(Core) - Mass0) / Mass0;
    Drift = std::max(Drift, std::fabs(LegDrift));
    std::printf("after %3d steps: mass drift %+.2e, plume peak %.3f\n", Done,
                LegDrift, LegPeak);
    renderSlice(Exec.array(M.XIn), Dom);
    std::printf("\n");
  }

  // MPDATA conserves mass to round-off and, with its nonoscillatory
  // limiters, keeps the plume positive and below its initial peak.
  const double MaxDrift = 1e-12;
  bool Ok = Drift <= MaxDrift && Min >= 0.0 && Peak <= Peak0;
  std::printf("%s: |mass drift| %.2e (bound %.0e), plume min %.3e (>= 0), "
              "peak %.6f (<= initial %.6f)\n",
              Ok ? "PASS" : "FAIL", Drift, MaxDrift, Min, Peak, Peak0);
  return Ok ? 0 : 1;
}
