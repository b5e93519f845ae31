//===- mpdata/MpdataProgram.h - 17-stage MPDATA stencil program -*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the StencilProgram describing one MPDATA time step as 17
/// heterogeneous stencil stages (the non-oscillatory variant used by the
/// paper's EULAG dynamic core). One step:
///
///   S1..S3   f1,f2,f3  donor-cell fluxes of xIn along i, j, k
///   S4       actual    first-order upwind update (psi*)
///   S5       mx,mn     local extrema of xIn and psi* (limiter bounds)
///   S6..S8   v1,v2,v3  antidiffusive pseudo-velocities from psi*
///   S9..S10  cp,cn     monotonicity factors (allowed in/outflow)
///   S11..S13 v1m..v3m  flux-limited pseudo-velocities
///   S14..S16 g1,g2,g3  corrected donor-cell fluxes of psi*
///   S17      xOut      final corrected update
///
/// The step reads five 3D input arrays (xIn, u1, u2, u3, h) and stores one
/// output array (xOut), matching the paper's Sect. 3.1. All intermediate
/// arrays are transient within the step.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_MPDATA_MPDATAPROGRAM_H
#define ICORES_MPDATA_MPDATAPROGRAM_H

#include "stencil/StencilIR.h"

namespace icores {

/// Small positive constant guarding MPDATA denominators.
inline constexpr double MpdataEps = 1e-15;

/// The MPDATA stencil program plus named handles to its arrays and stages.
struct MpdataProgram {
  StencilProgram Program;

  // Time-step inputs. Velocity components are nondimensional Courant
  // numbers located on cell faces: u1(i,j,k) lives on the face between
  // cells (i-1,j,k) and (i,j,k), and analogously for u2/u3. h is the
  // density/Jacobian factor G.
  ArrayId XIn = 0, U1 = 0, U2 = 0, U3 = 0, H = 0;

  // Intermediates in production order.
  ArrayId F1 = 0, F2 = 0, F3 = 0;
  ArrayId Actual = 0;
  ArrayId Mx = 0, Mn = 0;
  ArrayId V1 = 0, V2 = 0, V3 = 0;
  ArrayId Cp = 0, Cn = 0;
  ArrayId V1m = 0, V2m = 0, V3m = 0;
  ArrayId G1 = 0, G2 = 0, G3 = 0;

  // Time-step output.
  ArrayId XOut = 0;

  // Stage ids in execution order (SFlux1 == 0 ... SOut == 16).
  StageId SFlux1 = 0, SFlux2 = 0, SFlux3 = 0;
  StageId SUpwind = 0;
  StageId SMinMax = 0;
  StageId SVel1 = 0, SVel2 = 0, SVel3 = 0;
  StageId SCp = 0, SCn = 0;
  StageId SLim1 = 0, SLim2 = 0, SLim3 = 0;
  StageId SGFlux1 = 0, SGFlux2 = 0, SGFlux3 = 0;
  StageId SOut = 0;
};

/// Builds and validates the 17-stage program.
MpdataProgram buildMpdataProgram();

/// The halo depth the program's dependence cone requires of the step
/// inputs (identical in every dimension).
int mpdataHaloDepth();

} // namespace icores

#endif // ICORES_MPDATA_MPDATAPROGRAM_H
