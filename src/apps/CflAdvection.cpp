//===- apps/CflAdvection.cpp - Reduction-carrying advection app -----------===//

#include "apps/CflAdvection.h"

#include "stencil/FieldStore.h"
#include "stencil/HaloAnalysis.h"
#include "support/Error.h"
#include "support/SimdLoop.h"

#include <algorithm>
#include <cmath>
#include <memory>

using namespace icores;

CflAdvectionProgram icores::buildCflAdvectionProgram() {
  CflAdvectionProgram A;
  StencilProgram &P = A.Program;

  A.Q = P.addArray("q", ArrayRole::StepInput);
  A.U1 = P.addArray("u1", ArrayRole::StepInput);
  A.U2 = P.addArray("u2", ArrayRole::StepInput);
  A.U3 = P.addArray("u3", ArrayRole::StepInput);

  A.F1 = P.addArray("f1", ArrayRole::Intermediate);
  A.F2 = P.addArray("f2", ArrayRole::Intermediate);
  A.F3 = P.addArray("f3", ArrayRole::Intermediate);

  A.QOut = P.addArray("qOut", ArrayRole::StepOutput);
  A.Courant = P.addArray("courant", ArrayRole::StepOutput);

  // Donor-cell flux of q through the lower face along Dim.
  auto addFluxStage = [&](const char *Name, ArrayId Out, ArrayId Vel,
                          int Dim) {
    StageDef S;
    S.Name = Name;
    S.Outputs = {Out};
    S.Inputs = {StageInput::alongDim(A.Q, Dim, -1, 0),
                StageInput::center(Vel)};
    S.FlopsPerPoint = 5;
    return P.addStage(std::move(S));
  };

  A.SFlux1 = addFluxStage("flux1", A.F1, A.U1, 0);
  A.SFlux2 = addFluxStage("flux2", A.F2, A.U2, 1);
  A.SFlux3 = addFluxStage("flux3", A.F3, A.U3, 2);

  // Per-cell Courant sum. No stage reads `courant`; only the `cfl`
  // reduction below consumes it, folded per worker with no barrier.
  {
    StageDef S;
    S.Name = "courant";
    S.Outputs = {A.Courant};
    S.Inputs = {StageInput::center(A.U1), StageInput::center(A.U2),
                StageInput::center(A.U3)};
    S.FlopsPerPoint = 5;
    A.SCourant = P.addStage(std::move(S));
  }

  // Divergence update: qOut = q - div(f).
  {
    StageDef S;
    S.Name = "update";
    S.Outputs = {A.QOut};
    S.Inputs = {StageInput::center(A.Q), StageInput::alongDim(A.F1, 0, 0, 1),
                StageInput::alongDim(A.F2, 1, 0, 1),
                StageInput::alongDim(A.F3, 2, 0, 1)};
    S.FlopsPerPoint = 7;
    A.SOut = P.addStage(std::move(S));
  }

  P.addFeedback(A.QOut, A.Q);

  P.addReduction({"cfl", A.Courant});
  P.addReduction({"maxnorm", A.QOut});
  A.CflReduction = 0;
  A.MaxNormReduction = 1;

  std::string Error;
  ICORES_CHECK(P.validate(Error), "cfl-advection program invalid");
  ICORES_CHECK(P.numStages() == 5, "cfl-advection must have 5 stages");
  return A;
}

namespace {

// Row kernels: per (i, j) row hoisted operand pointers, the neighbour
// along Dim as a fixed offset from the operand's own stride, and a
// unit-stride k-loop with the same per-point expression as an
// at()-indexed loop. Each is an ICORES_ROW_KERNEL: an AVX2 and a baseline
// clone, bound at load time.

/// Donor-cell flux through the lower face along \p Dim over \p Region.
ICORES_ROW_KERNEL
void kernelFlux(const Array3D &Q, const Array3D &U, Array3D &F, int Dim,
                const Box3 &Region) {
  const int NK = Region.extent(2), K0 = Region.Lo[2];
  const int64_t Back = Q.stride(Dim);
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J) {
      const double *QP = Q.pointerTo(I, J, K0);
      const double *QL = QP - Back;
      const double *UP = U.pointerTo(I, J, K0);
      double *__restrict FP = F.pointerTo(I, J, K0);
      ICORES_SIMD_LOOP
      for (int K = 0; K != NK; ++K) {
        double Vel = UP[K];
        FP[K] = std::max(Vel, 0.0) * QL[K] + std::min(Vel, 0.0) * QP[K];
      }
    }
}

/// Per-cell Courant sum over \p Region.
ICORES_ROW_KERNEL
void kernelCourant(const Array3D &U1, const Array3D &U2, const Array3D &U3,
                   Array3D &C, const Box3 &Region) {
  const int NK = Region.extent(2), K0 = Region.Lo[2];
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J) {
      const double *U1P = U1.pointerTo(I, J, K0);
      const double *U2P = U2.pointerTo(I, J, K0);
      const double *U3P = U3.pointerTo(I, J, K0);
      double *__restrict CP = C.pointerTo(I, J, K0);
      ICORES_SIMD_LOOP
      for (int K = 0; K != NK; ++K)
        CP[K] = std::fabs(U1P[K]) + std::fabs(U2P[K]) + std::fabs(U3P[K]);
    }
}

/// Divergence update over \p Region.
ICORES_ROW_KERNEL
void kernelUpdate(const Array3D &Q, const Array3D &F1, const Array3D &F2,
                  const Array3D &F3, Array3D &Out, const Box3 &Region) {
  const int NK = Region.extent(2), K0 = Region.Lo[2];
  const int64_t F1Fwd = F1.stride(0), F2Fwd = F2.stride(1);
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J) {
      const double *QP = Q.pointerTo(I, J, K0);
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
        OutP[K] = QP[K] - Div;
      }
    }
}

} // namespace

KernelTable icores::buildCflAdvectionKernels() {
  auto A =
      std::make_shared<const CflAdvectionProgram>(buildCflAdvectionProgram());
  KernelTable Table(A->Program.numStages());

  auto setFlux = [&](StageId Stage, ArrayId Out, ArrayId Vel, int Dim) {
    Table.set(Stage, [A, Out, Vel, Dim](FieldStore &F, const Box3 &Region) {
      kernelFlux(F.get(A->Q), F.get(Vel), F.get(Out), Dim, Region);
    });
  };
  setFlux(A->SFlux1, A->F1, A->U1, 0);
  setFlux(A->SFlux2, A->F2, A->U2, 1);
  setFlux(A->SFlux3, A->F3, A->U3, 2);

  Table.set(A->SCourant, [A](FieldStore &F, const Box3 &Region) {
    kernelCourant(F.get(A->U1), F.get(A->U2), F.get(A->U3), F.get(A->Courant),
                  Region);
  });
  Table.set(A->SOut, [A](FieldStore &F, const Box3 &Region) {
    kernelUpdate(F.get(A->Q), F.get(A->F1), F.get(A->F2), F.get(A->F3),
                 F.get(A->QOut), Region);
  });
  return Table;
}

std::vector<ReductionBinding> icores::cflAdvectionReductions() {
  // Both combiners are max-style: associative, commutative, and duplicate
  // tolerant, so the redundant cone cells of islands/temporal plans (which
  // hold bit-identical periodic images) fold to the exact serial result.
  std::vector<ReductionBinding> Bindings;
  // One allocation, not a grow-and-move: the registry keeps this vector
  // for the process's life, and back-to-back executor set-ups are
  // sensitive to the small-allocation heap layout (EXPERIMENTS.md).
  Bindings.reserve(2);
  Bindings.push_back(
      {"cfl", [](double Acc, double V) { return std::max(Acc, V); }, 0.0});
  Bindings.push_back({"maxnorm",
                      [](double Acc, double V) {
                        // Partials are maxima of absolute values, so
                        // re-applying fabs when combining them is a no-op
                        // and partial-combining stays exact.
                        return std::max(Acc, std::fabs(V));
                      },
                      0.0});
  return Bindings;
}

int icores::cflAdvectionHaloDepth() {
  CflAdvectionProgram A = buildCflAdvectionProgram();
  std::array<int, 3> Depth =
      inputHaloDepth(A.Program, Box3::fromExtents(64, 64, 64));
  return std::max({Depth[0], Depth[1], Depth[2]});
}
