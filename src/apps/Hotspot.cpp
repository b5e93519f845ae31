//===- apps/Hotspot.cpp - Thermal diffusion workload ----------------------===//

#include "apps/Hotspot.h"

#include "stencil/FieldStore.h"
#include "stencil/HaloAnalysis.h"
#include "support/Error.h"
#include "support/SimdLoop.h"

#include <algorithm>
#include <memory>

using namespace icores;

HotspotProgram icores::buildHotspotProgram() {
  HotspotProgram A;
  StencilProgram &P = A.Program;

  A.T = P.addArray("t", ArrayRole::StepInput);
  A.Power = P.addArray("power", ArrayRole::StepInput);

  A.G1 = P.addArray("g1", ArrayRole::Intermediate);
  A.G2 = P.addArray("g2", ArrayRole::Intermediate);
  A.G3 = P.addArray("g3", ArrayRole::Intermediate);

  A.TOut = P.addArray("tOut", ArrayRole::StepOutput);

  // Conductive flux through the lower face along Dim: g = T - T_lower.
  auto addGradStage = [&](const char *Name, ArrayId Out, int Dim) {
    StageDef S;
    S.Name = Name;
    S.Outputs = {Out};
    S.Inputs = {StageInput::alongDim(A.T, Dim, -1, 0)};
    S.FlopsPerPoint = 1;
    return P.addStage(std::move(S));
  };

  A.SGrad1 = addGradStage("grad1", A.G1, 0);
  A.SGrad2 = addGradStage("grad2", A.G2, 1);
  A.SGrad3 = addGradStage("grad3", A.G3, 2);

  // Flux-divergence update: g(i+1) - g(i) telescopes to the directional
  // second difference, so div(g) is the 7-point Laplacian of T.
  {
    StageDef S;
    S.Name = "update";
    S.Outputs = {A.TOut};
    S.Inputs = {StageInput::center(A.T), StageInput::center(A.Power),
                StageInput::alongDim(A.G1, 0, 0, 1),
                StageInput::alongDim(A.G2, 1, 0, 1),
                StageInput::alongDim(A.G3, 2, 0, 1)};
    S.FlopsPerPoint = 12;
    A.SOut = P.addStage(std::move(S));
  }

  P.addFeedback(A.TOut, A.T);

  std::string Error;
  ICORES_CHECK(P.validate(Error), "hotspot program invalid");
  ICORES_CHECK(P.numStages() == 4, "hotspot must have 4 stages");
  return A;
}

namespace {

// Row kernels: per (i, j) row hoisted operand pointers, the neighbour
// along Dim as a fixed offset from the operand's own stride, and a
// unit-stride k-loop with the same per-point expression as an
// at()-indexed loop. Each is an ICORES_ROW_KERNEL: an AVX2 and a baseline
// clone, bound at load time.

/// Lower-face temperature difference along \p Dim over \p Region.
ICORES_ROW_KERNEL
void kernelGrad(const Array3D &T, Array3D &G, int Dim, const Box3 &Region) {
  const int NK = Region.extent(2), K0 = Region.Lo[2];
  const int64_t Back = T.stride(Dim);
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J) {
      const double *TP = T.pointerTo(I, J, K0);
      const double *TL = TP - Back;
      double *__restrict GP = G.pointerTo(I, J, K0);
      ICORES_SIMD_LOOP
      for (int K = 0; K != NK; ++K)
        GP[K] = TP[K] - TL[K];
    }
}

/// Thermal update over \p Region.
ICORES_ROW_KERNEL
void kernelUpdate(const Array3D &T, const Array3D &Power, const Array3D &G1,
                  const Array3D &G2, const Array3D &G3, Array3D &Out,
                  const Box3 &Region) {
  const int NK = Region.extent(2), K0 = Region.Lo[2];
  const int64_t G1Fwd = G1.stride(0), G2Fwd = G2.stride(1);
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J) {
      const double *TP = T.pointerTo(I, J, K0);
      const double *PP = Power.pointerTo(I, J, K0);
      const double *G1P = G1.pointerTo(I, J, K0);
      const double *G1N = G1P + G1Fwd;
      const double *G2P = G2.pointerTo(I, J, K0);
      const double *G2N = G2P + G2Fwd;
      const double *G3P = G3.pointerTo(I, J, K0);
      double *__restrict OutP = Out.pointerTo(I, J, K0);
      ICORES_SIMD_LOOP
      for (int K = 0; K != NK; ++K) {
        double Div =
            G1N[K] - G1P[K] + G2N[K] - G2P[K] + G3P[K + 1] - G3P[K];
        OutP[K] = TP[K] + HotspotCd * Div + HotspotCp * PP[K] +
                  HotspotCr * (HotspotTamb - TP[K]);
      }
    }
}

} // namespace

KernelTable icores::buildHotspotKernels() {
  auto A = std::make_shared<const HotspotProgram>(buildHotspotProgram());
  KernelTable Table(A->Program.numStages());

  auto setGrad = [&](StageId Stage, ArrayId Out, int Dim) {
    Table.set(Stage, [A, Out, Dim](FieldStore &F, const Box3 &Region) {
      kernelGrad(F.get(A->T), F.get(Out), Dim, Region);
    });
  };
  setGrad(A->SGrad1, A->G1, 0);
  setGrad(A->SGrad2, A->G2, 1);
  setGrad(A->SGrad3, A->G3, 2);

  Table.set(A->SOut, [A](FieldStore &F, const Box3 &Region) {
    kernelUpdate(F.get(A->T), F.get(A->Power), F.get(A->G1), F.get(A->G2),
                 F.get(A->G3), F.get(A->TOut), Region);
  });
  return Table;
}

int icores::hotspotHaloDepth() {
  HotspotProgram A = buildHotspotProgram();
  std::array<int, 3> Depth =
      inputHaloDepth(A.Program, Box3::fromExtents(64, 64, 64));
  return std::max({Depth[0], Depth[1], Depth[2]});
}
