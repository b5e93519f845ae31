//===- mpdata/MpdataProgram.cpp - 17-stage MPDATA stencil program --------===//

#include "mpdata/MpdataProgram.h"

#include "stencil/HaloAnalysis.h"
#include "support/Error.h"

#include <string>

using namespace icores;

MpdataProgram icores::buildMpdataProgram() {
  MpdataProgram M;
  StencilProgram &P = M.Program;

  M.XIn = P.addArray("xIn", ArrayRole::StepInput);
  M.U1 = P.addArray("u1", ArrayRole::StepInput);
  M.U2 = P.addArray("u2", ArrayRole::StepInput);
  M.U3 = P.addArray("u3", ArrayRole::StepInput);
  M.H = P.addArray("h", ArrayRole::StepInput);

  M.F1 = P.addArray("f1", ArrayRole::Intermediate);
  M.F2 = P.addArray("f2", ArrayRole::Intermediate);
  M.F3 = P.addArray("f3", ArrayRole::Intermediate);
  M.Actual = P.addArray("actual", ArrayRole::Intermediate);
  M.Mx = P.addArray("mx", ArrayRole::Intermediate);
  M.Mn = P.addArray("mn", ArrayRole::Intermediate);
  M.V1 = P.addArray("v1", ArrayRole::Intermediate);
  M.V2 = P.addArray("v2", ArrayRole::Intermediate);
  M.V3 = P.addArray("v3", ArrayRole::Intermediate);
  M.Cp = P.addArray("cp", ArrayRole::Intermediate);
  M.Cn = P.addArray("cn", ArrayRole::Intermediate);
  M.V1m = P.addArray("v1m", ArrayRole::Intermediate);
  M.V2m = P.addArray("v2m", ArrayRole::Intermediate);
  M.V3m = P.addArray("v3m", ArrayRole::Intermediate);
  M.G1 = P.addArray("g1", ArrayRole::Intermediate);
  M.G2 = P.addArray("g2", ArrayRole::Intermediate);
  M.G3 = P.addArray("g3", ArrayRole::Intermediate);

  M.XOut = P.addArray("xOut", ArrayRole::StepOutput);

  // S1..S3: donor-cell fluxes of xIn. f<d>(p) is the flux through the
  // lower face of cell p in dimension d, so it reads xIn at offsets
  // {-1, 0} along d and the face velocity at the centre.
  auto addFluxStage = [&](const char *Name, ArrayId Out, ArrayId Vel,
                          int Dim) {
    StageDef S;
    S.Name = Name;
    S.Outputs = {Out};
    S.Inputs = {StageInput::alongDim(M.XIn, Dim, -1, 0),
                StageInput::center(Vel)};
    S.FlopsPerPoint = 5;
    return P.addStage(std::move(S));
  };
  M.SFlux1 = addFluxStage("flux1", M.F1, M.U1, 0);
  M.SFlux2 = addFluxStage("flux2", M.F2, M.U2, 1);
  M.SFlux3 = addFluxStage("flux3", M.F3, M.U3, 2);

  // S4: upwind update. Flux divergence reads each flux at offsets {0, +1}
  // along its own dimension.
  {
    StageDef S;
    S.Name = "upwind";
    S.Outputs = {M.Actual};
    S.Inputs = {StageInput::center(M.XIn),
                StageInput::alongDim(M.F1, 0, 0, 1),
                StageInput::alongDim(M.F2, 1, 0, 1),
                StageInput::alongDim(M.F3, 2, 0, 1),
                StageInput::center(M.H)};
    S.FlopsPerPoint = 7;
    M.SUpwind = P.addStage(std::move(S));
  }

  // S5: fused local min/max over the 7-point cross of xIn and actual.
  // One loop producing both limiter-bound arrays (this fusion is what
  // makes the step count 17 rather than 18).
  {
    StageDef S;
    S.Name = "minmax";
    S.Outputs = {M.Mx, M.Mn};
    S.Inputs = {StageInput::box1(M.XIn), StageInput::box1(M.Actual)};
    S.FlopsPerPoint = 26;
    M.SMinMax = P.addStage(std::move(S));
  }

  // S6..S8: antidiffusive pseudo-velocities. v<d> lives on the lower face
  // along d; it reads actual at {-1,0} along d and +/-1 across the two
  // transverse dimensions, plus the two transverse face velocities.
  auto addVelStage = [&](const char *Name, ArrayId Out, int Dim, ArrayId VelD,
                         ArrayId VelT1, int DimT1, ArrayId VelT2, int DimT2) {
    StageDef S;
    S.Name = Name;
    S.Outputs = {Out};
    StageInput ActualIn = StageInput::box1(M.Actual);
    ActualIn.MaxOff[Dim] = 0; // {-1, 0} along the stage's own dimension.
    StageInput T1 = StageInput::center(VelT1);
    T1.MinOff[Dim] = -1;
    T1.MaxOff[DimT1] = 1;
    StageInput T2 = StageInput::center(VelT2);
    T2.MinOff[Dim] = -1;
    T2.MaxOff[DimT2] = 1;
    S.Inputs = {ActualIn, StageInput::center(VelD), T1, T2};
    S.FlopsPerPoint = 40;
    return P.addStage(std::move(S));
  };
  M.SVel1 = addVelStage("pseudoVel1", M.V1, 0, M.U1, M.U2, 1, M.U3, 2);
  M.SVel2 = addVelStage("pseudoVel2", M.V2, 1, M.U2, M.U1, 0, M.U3, 2);
  M.SVel3 = addVelStage("pseudoVel3", M.V3, 2, M.U3, M.U1, 0, M.U2, 1);

  // S9: cp — ratio of allowed to actual inflow per cell. Inflow gathers
  // upwind neighbours of actual (+/-1 cross) and faces {0,+1} of each
  // pseudo-velocity.
  {
    StageDef S;
    S.Name = "cp";
    S.Outputs = {M.Cp};
    S.Inputs = {StageInput::center(M.Mx), StageInput::box1(M.Actual),
                StageInput::center(M.H),
                StageInput::alongDim(M.V1, 0, 0, 1),
                StageInput::alongDim(M.V2, 1, 0, 1),
                StageInput::alongDim(M.V3, 2, 0, 1)};
    S.FlopsPerPoint = 22;
    M.SCp = P.addStage(std::move(S));
  }

  // S10: cn — ratio of allowed to actual outflow; outflow depends on the
  // centre value of actual only.
  {
    StageDef S;
    S.Name = "cn";
    S.Outputs = {M.Cn};
    S.Inputs = {StageInput::center(M.Mn), StageInput::center(M.Actual),
                StageInput::center(M.H),
                StageInput::alongDim(M.V1, 0, 0, 1),
                StageInput::alongDim(M.V2, 1, 0, 1),
                StageInput::alongDim(M.V3, 2, 0, 1)};
    S.FlopsPerPoint = 20;
    M.SCn = P.addStage(std::move(S));
  }

  // S11..S13: non-oscillatory limiting of the pseudo-velocities. The face
  // value combines cp/cn of the two adjacent cells along the stage's
  // dimension.
  auto addLimitStage = [&](const char *Name, ArrayId Out, ArrayId Vel,
                           int Dim) {
    StageDef S;
    S.Name = Name;
    S.Outputs = {Out};
    S.Inputs = {StageInput::alongDim(M.Cp, Dim, -1, 0),
                StageInput::alongDim(M.Cn, Dim, -1, 0),
                StageInput::center(Vel)};
    S.FlopsPerPoint = 9;
    return P.addStage(std::move(S));
  };
  M.SLim1 = addLimitStage("limitVel1", M.V1m, M.V1, 0);
  M.SLim2 = addLimitStage("limitVel2", M.V2m, M.V2, 1);
  M.SLim3 = addLimitStage("limitVel3", M.V3m, M.V3, 2);

  // S14..S16: corrected donor-cell fluxes of actual.
  auto addGFluxStage = [&](const char *Name, ArrayId Out, ArrayId Vel,
                           int Dim) {
    StageDef S;
    S.Name = Name;
    S.Outputs = {Out};
    S.Inputs = {StageInput::alongDim(M.Actual, Dim, -1, 0),
                StageInput::center(Vel)};
    S.FlopsPerPoint = 5;
    return P.addStage(std::move(S));
  };
  M.SGFlux1 = addGFluxStage("gflux1", M.G1, M.V1m, 0);
  M.SGFlux2 = addGFluxStage("gflux2", M.G2, M.V2m, 1);
  M.SGFlux3 = addGFluxStage("gflux3", M.G3, M.V3m, 2);

  // S17: final corrected update.
  {
    StageDef S;
    S.Name = "output";
    S.Outputs = {M.XOut};
    S.Inputs = {StageInput::center(M.Actual),
                StageInput::alongDim(M.G1, 0, 0, 1),
                StageInput::alongDim(M.G2, 1, 0, 1),
                StageInput::alongDim(M.G3, 2, 0, 1),
                StageInput::center(M.H)};
    S.FlopsPerPoint = 7;
    M.SOut = P.addStage(std::move(S));
  }

  P.addFeedback(M.XOut, M.XIn);

  std::string Error;
  ICORES_CHECK(P.validate(Error), "MPDATA program failed validation");
  ICORES_CHECK(P.numStages() == 17, "MPDATA must have exactly 17 stages");
  return M;
}

int icores::mpdataHaloDepth() {
  MpdataProgram M = buildMpdataProgram();
  // The cone margins are offset sums, independent of the probe's size.
  std::array<int, 3> Depth =
      inputHaloDepth(M.Program, Box3::fromExtents(64, 64, 64));
  ICORES_CHECK(Depth[0] == Depth[1] && Depth[1] == Depth[2],
               "MPDATA halo depth expected to be isotropic");
  return Depth[0];
}
