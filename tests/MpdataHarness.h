//===- tests/MpdataHarness.h - MPDATA over the generic runners --*- C++ -*-===//
//
// MPDATA-specific test helpers over the application-agnostic runtime:
//
//  - mpdataUpwindProgram / mpdataUpwindKernels: the first-order upwind
//    pass alone, which the physics batteries compare the corrected
//    scheme against,
//  - conservedMass: the h * psi sum conserved under periodic boundaries.
//
// Header-only and test-only; nothing in src/ includes this.
//
//===----------------------------------------------------------------------===//

#ifndef ICORES_TESTS_MPDATAHARNESS_H
#define ICORES_TESTS_MPDATAHARNESS_H

#include "grid/Array3D.h"
#include "mpdata/Kernels.h"
#include "mpdata/MpdataProgram.h"
#include "stencil/KernelTable.h"
#include "stencil/StencilIR.h"

namespace icores {

/// MPDATA's first-order upwind pass alone (stages S1..S4): the first
/// SUpwind + 1 stages and arrays of \p M with the same ids, and actual as
/// the step output fed back to xIn.
inline StencilProgram mpdataUpwindProgram(const MpdataProgram &M) {
  StencilProgram P;
  for (ArrayId A = 0; A <= M.Actual; ++A)
    P.addArray(M.Program.array(A).Name, A == M.Actual
                                            ? ArrayRole::StepOutput
                                            : M.Program.array(A).Role);
  for (StageId S = 0; S <= M.SUpwind; ++S)
    P.addStage(M.Program.stage(S));
  P.addFeedback(M.Actual, M.XIn);
  return P;
}

/// The MPDATA stage kernels of mpdataUpwindProgram(), unchanged.
inline KernelTable mpdataUpwindKernels(const MpdataProgram &M) {
  KernelTable Kernels(static_cast<unsigned>(M.SUpwind) + 1);
  for (StageId S = 0; S <= M.SUpwind; ++S)
    Kernels.set(S, [M, S](FieldStore &Fields, const Box3 &Region) {
      runMpdataStage(M, Fields, S, Region);
    });
  return Kernels;
}

/// Deterministic serial sum of h * psi over the core of any runner
/// exposing domain() and array() (the conserved quantity under periodic
/// boundaries).
template <typename Runner>
double conservedMass(const Runner &R, const MpdataProgram &M) {
  const Box3 Core = R.domain().coreBox();
  const Array3D &Psi = R.array(M.XIn);
  const Array3D &H = R.array(M.H);
  double Mass = 0.0;
  for (int I = Core.Lo[0]; I != Core.Hi[0]; ++I)
    for (int J = Core.Lo[1]; J != Core.Hi[1]; ++J)
      for (int K = Core.Lo[2]; K != Core.Hi[2]; ++K)
        Mass += H.at(I, J, K) * Psi.at(I, J, K);
  return Mass;
}

} // namespace icores

#endif // ICORES_TESTS_MPDATAHARNESS_H
