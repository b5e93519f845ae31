//===- apps/AdvectionDiffusion.cpp - Second heterogeneous stencil app -----===//

#include "apps/AdvectionDiffusion.h"

#include "stencil/FieldStore.h"
#include "stencil/HaloAnalysis.h"
#include "support/Error.h"
#include "support/SimdLoop.h"

#include <algorithm>
#include <memory>

using namespace icores;

AdvDiffProgram icores::buildAdvDiffProgram() {
  AdvDiffProgram A;
  StencilProgram &P = A.Program;

  A.Phi = P.addArray("phi", ArrayRole::StepInput);
  A.U1 = P.addArray("u1", ArrayRole::StepInput);
  A.U2 = P.addArray("u2", ArrayRole::StepInput);
  A.U3 = P.addArray("u3", ArrayRole::StepInput);
  A.Kappa = P.addArray("kappa", ArrayRole::StepInput);

  A.F1 = P.addArray("f1", ArrayRole::Intermediate);
  A.F2 = P.addArray("f2", ArrayRole::Intermediate);
  A.F3 = P.addArray("f3", ArrayRole::Intermediate);
  A.Half = P.addArray("half", ArrayRole::Intermediate);
  A.G1 = P.addArray("g1", ArrayRole::Intermediate);
  A.G2 = P.addArray("g2", ArrayRole::Intermediate);
  A.G3 = P.addArray("g3", ArrayRole::Intermediate);

  A.PhiOut = P.addArray("phiOut", ArrayRole::StepOutput);

  // Flux stage: donor-cell advective flux plus Fickian diffusive flux
  // through the lower face along Dim, using the face-averaged kappa.
  auto addFluxStage = [&](const char *Name, ArrayId State, ArrayId Out,
                          ArrayId Vel, int Dim) {
    StageDef S;
    S.Name = Name;
    S.Outputs = {Out};
    S.Inputs = {StageInput::alongDim(State, Dim, -1, 0),
                StageInput::center(Vel),
                StageInput::alongDim(A.Kappa, Dim, -1, 0)};
    S.FlopsPerPoint = 10;
    return P.addStage(std::move(S));
  };

  // Divergence update: Out = phi - Scale * div(F).
  auto addUpdateStage = [&](const char *Name, ArrayId Out, ArrayId FF1,
                            ArrayId FF2, ArrayId FF3) {
    StageDef S;
    S.Name = Name;
    S.Outputs = {Out};
    S.Inputs = {StageInput::center(A.Phi),
                StageInput::alongDim(FF1, 0, 0, 1),
                StageInput::alongDim(FF2, 1, 0, 1),
                StageInput::alongDim(FF3, 2, 0, 1)};
    S.FlopsPerPoint = 7;
    return P.addStage(std::move(S));
  };

  A.SFlux1 = addFluxStage("flux1", A.Phi, A.F1, A.U1, 0);
  A.SFlux2 = addFluxStage("flux2", A.Phi, A.F2, A.U2, 1);
  A.SFlux3 = addFluxStage("flux3", A.Phi, A.F3, A.U3, 2);
  A.SHalf = addUpdateStage("midpoint", A.Half, A.F1, A.F2, A.F3);
  A.SGFlux1 = addFluxStage("gflux1", A.Half, A.G1, A.U1, 0);
  A.SGFlux2 = addFluxStage("gflux2", A.Half, A.G2, A.U2, 1);
  A.SGFlux3 = addFluxStage("gflux3", A.Half, A.G3, A.U3, 2);
  A.SOut = addUpdateStage("output", A.PhiOut, A.G1, A.G2, A.G3);

  P.addFeedback(A.PhiOut, A.Phi);

  std::string Error;
  ICORES_CHECK(P.validate(Error), "advection-diffusion program invalid");
  ICORES_CHECK(P.numStages() == 8, "advection-diffusion must have 8 stages");
  return A;
}

namespace {

// The kernels walk (i, j) rows: every operand's row pointer is hoisted
// once per row, the neighbour along Dim is a fixed offset taken from that
// operand's own stride, and the unit-stride k-loop evaluates the same
// floating-point expression per point as an at()-indexed loop would.
// Each is an ICORES_ROW_KERNEL: an AVX2 and a baseline clone, bound at
// load time.

/// Computes one flux stage over \p Region.
ICORES_ROW_KERNEL
void kernelFlux(const Array3D &State, const Array3D &U, const Array3D &Kappa,
                Array3D &F, int Dim, const Box3 &Region) {
  const int NK = Region.extent(2), K0 = Region.Lo[2];
  const int64_t SBack = State.stride(Dim), KBack = Kappa.stride(Dim);
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J) {
      const double *SP = State.pointerTo(I, J, K0);
      const double *SL = SP - SBack;
      const double *UP = U.pointerTo(I, J, K0);
      const double *KP = Kappa.pointerTo(I, J, K0);
      const double *KL = KP - KBack;
      double *__restrict FP = F.pointerTo(I, J, K0);
      ICORES_SIMD_LOOP
      for (int K = 0; K != NK; ++K) {
        double L = SL[K];
        double R = SP[K];
        double Vel = UP[K];
        double KFace = 0.5 * (KL[K] + KP[K]);
        FP[K] = std::max(Vel, 0.0) * L + std::min(Vel, 0.0) * R -
                KFace * (R - L);
      }
    }
}

/// Computes one divergence update over \p Region.
ICORES_ROW_KERNEL
void kernelUpdate(const Array3D &Phi, const Array3D &F1, const Array3D &F2,
                  const Array3D &F3, double Scale, Array3D &Out,
                  const Box3 &Region) {
  const int NK = Region.extent(2), K0 = Region.Lo[2];
  const int64_t F1Fwd = F1.stride(0), F2Fwd = F2.stride(1);
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J) {
      const double *PhiP = Phi.pointerTo(I, J, K0);
      const double *F1P = F1.pointerTo(I, J, K0);
      const double *F1N = F1P + F1Fwd;
      const double *F2P = F2.pointerTo(I, J, K0);
      const double *F2N = F2P + F2Fwd;
      const double *F3P = F3.pointerTo(I, J, K0);
      double *__restrict OutP = Out.pointerTo(I, J, K0);
      ICORES_SIMD_LOOP
      for (int K = 0; K != NK; ++K) {
        double Div =
            F1N[K] - F1P[K] + F2N[K] - F2P[K] + F3P[K + 1] - F3P[K];
        OutP[K] = PhiP[K] - Scale * Div;
      }
    }
}

} // namespace

KernelTable icores::buildAdvDiffKernels() {
  auto A = std::make_shared<const AdvDiffProgram>(buildAdvDiffProgram());
  KernelTable Table(A->Program.numStages());

  auto setFlux = [&](StageId Stage, ArrayId State, ArrayId Out, ArrayId Vel,
                     int Dim) {
    Table.set(Stage, [A, State, Out, Vel, Dim](FieldStore &F,
                                               const Box3 &Region) {
      kernelFlux(F.get(State), F.get(Vel), F.get(A->Kappa), F.get(Out), Dim,
                 Region);
    });
  };
  auto setUpdate = [&](StageId Stage, ArrayId Out, ArrayId FF1, ArrayId FF2,
                       ArrayId FF3, double Scale) {
    Table.set(Stage, [A, Out, FF1, FF2, FF3, Scale](FieldStore &F,
                                                    const Box3 &Region) {
      kernelUpdate(F.get(A->Phi), F.get(FF1), F.get(FF2), F.get(FF3), Scale,
                   F.get(Out), Region);
    });
  };

  setFlux(A->SFlux1, A->Phi, A->F1, A->U1, 0);
  setFlux(A->SFlux2, A->Phi, A->F2, A->U2, 1);
  setFlux(A->SFlux3, A->Phi, A->F3, A->U3, 2);
  setUpdate(A->SHalf, A->Half, A->F1, A->F2, A->F3, 0.5);
  setFlux(A->SGFlux1, A->Half, A->G1, A->U1, 0);
  setFlux(A->SGFlux2, A->Half, A->G2, A->U2, 1);
  setFlux(A->SGFlux3, A->Half, A->G3, A->U3, 2);
  setUpdate(A->SOut, A->PhiOut, A->G1, A->G2, A->G3, 1.0);
  return Table;
}

int icores::advDiffHaloDepth() {
  AdvDiffProgram A = buildAdvDiffProgram();
  std::array<int, 3> Depth =
      inputHaloDepth(A.Program, Box3::fromExtents(64, 64, 64));
  return std::max({Depth[0], Depth[1], Depth[2]});
}
