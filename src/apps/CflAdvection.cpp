//===- apps/CflAdvection.cpp - Reduction-carrying advection app -----------===//

#include "apps/CflAdvection.h"

#include "stencil/FieldStore.h"
#include "stencil/HaloAnalysis.h"
#include "support/Error.h"

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

/// Donor-cell flux through the lower face along \p Dim over \p Region.
void kernelFlux(const Array3D &Q, const Array3D &U, Array3D &F, int Dim,
                const Box3 &Region) {
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J)
      for (int K = Region.Lo[2]; K != Region.Hi[2]; ++K) {
        int IL = Dim == 0 ? I - 1 : I;
        int JL = Dim == 1 ? J - 1 : J;
        int KL = Dim == 2 ? K - 1 : K;
        double Vel = U.at(I, J, K);
        F.at(I, J, K) = std::max(Vel, 0.0) * Q.at(IL, JL, KL) +
                        std::min(Vel, 0.0) * Q.at(I, J, K);
      }
}

/// Per-cell Courant sum over \p Region.
void kernelCourant(const Array3D &U1, const Array3D &U2, const Array3D &U3,
                   Array3D &C, const Box3 &Region) {
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J)
      for (int K = Region.Lo[2]; K != Region.Hi[2]; ++K)
        C.at(I, J, K) = std::fabs(U1.at(I, J, K)) + std::fabs(U2.at(I, J, K)) +
                        std::fabs(U3.at(I, J, K));
}

/// Divergence update over \p Region.
void kernelUpdate(const Array3D &Q, const Array3D &F1, const Array3D &F2,
                  const Array3D &F3, Array3D &Out, const Box3 &Region) {
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J)
      for (int K = Region.Lo[2]; K != Region.Hi[2]; ++K) {
        double Div = F1.at(I + 1, J, K) - F1.at(I, J, K) +
                     F2.at(I, J + 1, K) - F2.at(I, J, K) +
                     F3.at(I, J, K + 1) - F3.at(I, J, K);
        Out.at(I, J, K) = Q.at(I, J, K) - Div;
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
