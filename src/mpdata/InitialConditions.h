//===- mpdata/InitialConditions.h - Workload generators ---------*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Initial scalar fields and velocity configurations for MPDATA runs:
/// Gaussian tracer blobs, random positive fields, constant-Courant and
/// discretely divergence-free rotational velocity fields, the seeding of
/// a whole MPDATA runner from them, plus error norms against analytic
/// solutions.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_MPDATA_INITIALCONDITIONS_H
#define ICORES_MPDATA_INITIALCONDITIONS_H

#include "grid/Array3D.h"
#include "grid/Domain.h"
#include "mpdata/MpdataProgram.h"

#include <cstdint>

namespace icores {

/// Parameters of a periodic Gaussian tracer blob.
struct GaussianBlob {
  double CenterI = 0.0;
  double CenterJ = 0.0;
  double CenterK = 0.0;
  double Sigma = 4.0;
  double Amplitude = 1.0;
  double Background = 0.1;

  /// Analytic value at cell (I, J, K) on a periodic NI x NJ x NK grid
  /// (nearest periodic image per dimension).
  double valueAt(double I, double J, double K, const Domain &D) const;

  /// Returns this blob translated by (DI, DJ, DK) cells (periodic).
  GaussianBlob translated(double DI, double DJ, double DK) const;
};

/// Fills the core region of \p A with the blob (halo untouched).
void fillGaussian(Array3D &A, const Domain &D, const GaussianBlob &Blob);

/// Fills the core region with deterministic pseudo-random values in
/// [Lo, Hi); Lo must be >= 0 to keep MPDATA's positivity assumptions.
void fillRandomPositive(Array3D &A, const Domain &D, uint64_t Seed, double Lo,
                        double Hi);

/// Sets all three Courant-number arrays to spatially constant values.
/// Stability requires |C1| + |C2| + |C3| <= 1.
void setConstantVelocity(Array3D &U1, Array3D &U2, Array3D &U3,
                         const Domain &D, double C1, double C2, double C3);

/// Solid-body rotation in the i-j plane about (CenterI, CenterJ):
/// discretely divergence-free on the staggered mesh. \p Omega is the
/// angular Courant number per cell of radius.
void setRotationalVelocity(Array3D &U1, Array3D &U2, Array3D &U3,
                           const Domain &D, double Omega, double CenterI,
                           double CenterJ);

/// Seeds an MPDATA runner (SerialStepper, ProgramExecutor, or anything
/// exposing domain()/array()/prepareInputs()): psi random in [Lo, Hi)
/// from \p Seed, constant Courant numbers (C1, C2, C3) and h = 1; then
/// refreshes the input halos.
template <typename Runner>
void seedMpdata(Runner &R, const MpdataProgram &M, uint64_t Seed, double Lo,
                double Hi, double C1, double C2, double C3) {
  fillRandomPositive(R.array(M.XIn), R.domain(), Seed, Lo, Hi);
  setConstantVelocity(R.array(M.U1), R.array(M.U2), R.array(M.U3),
                      R.domain(), C1, C2, C3);
  R.array(M.H).fill(1.0);
  R.prepareInputs();
}

/// L2 norm of (A - Blob) over the core region, normalized by cell count.
double l2ErrorVsBlob(const Array3D &A, const Domain &D,
                     const GaussianBlob &Blob);

/// Maximum absolute deviation of A from Blob over the core region.
double linfErrorVsBlob(const Array3D &A, const Domain &D,
                       const GaussianBlob &Blob);

} // namespace icores

#endif // ICORES_MPDATA_INITIALCONDITIONS_H
