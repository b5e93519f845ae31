//===- apps/AdvectionDiffusion.h - Second heterogeneous stencil app -*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A second application built on the library's public API: advection of a
/// scalar with spatially varying diffusivity, advanced with a two-stage
/// (midpoint) Runge-Kutta scheme. One time step is 8 heterogeneous
/// stencil stages:
///
///   S1..S3  f1,f2,f3   combined donor-cell + diffusive fluxes of phi
///   S4      half       midpoint state phi - dt/2 * div(f)
///   S5..S7  g1,g2,g3   fluxes re-evaluated at the midpoint state
///   S8      phiOut     full update phi - dt * div(g)
///
/// The program exists to prove that the islands-of-cores machinery —
/// dependence-cone analysis, planners, executors, verifier, simulator —
/// is application-agnostic: nothing in this module touches MPDATA.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_APPS_ADVECTIONDIFFUSION_H
#define ICORES_APPS_ADVECTIONDIFFUSION_H

#include "stencil/KernelTable.h"
#include "stencil/StencilIR.h"

namespace icores {

/// The advection-diffusion stencil program plus named handles.
struct AdvDiffProgram {
  StencilProgram Program;

  // Step inputs: the scalar, face Courant numbers, and the cell-centred
  // nondimensional diffusivity (kappa = D * dt / dx^2).
  ArrayId Phi = 0, U1 = 0, U2 = 0, U3 = 0, Kappa = 0;

  // Intermediates.
  ArrayId F1 = 0, F2 = 0, F3 = 0;
  ArrayId Half = 0;
  ArrayId G1 = 0, G2 = 0, G3 = 0;

  // Step output (feeds back into Phi).
  ArrayId PhiOut = 0;

  // Stages in execution order.
  StageId SFlux1 = 0, SFlux2 = 0, SFlux3 = 0;
  StageId SHalf = 0;
  StageId SGFlux1 = 0, SGFlux2 = 0, SGFlux3 = 0;
  StageId SOut = 0;
};

/// Builds and validates the 8-stage program.
AdvDiffProgram buildAdvDiffProgram();

/// Builds the kernel table for the program: row kernels with hoisted
/// per-row pointers and unit-stride k-loops, pointwise with a fixed
/// evaluation order, so bit-stable under any partitioning. The workload's
/// registry entry serves it as its only (Reference) variant.
KernelTable buildAdvDiffKernels();

/// Input-array halo depth required by the program's dependence cone.
int advDiffHaloDepth();

} // namespace icores

#endif // ICORES_APPS_ADVECTIONDIFFUSION_H
