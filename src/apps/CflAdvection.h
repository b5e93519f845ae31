//===- apps/CflAdvection.h - Reduction-carrying advection app ---*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Donor-cell advection of a scalar with a spatially varying velocity
/// field, instrumented with two per-step global reductions: the grid CFL
/// number (max over cells of |u1| + |u2| + |u3|) and the max norm of the
/// advected scalar. One time step is 5 heterogeneous stages:
///
///   S1..S3  f1,f2,f3   donor-cell fluxes of q through the lower faces
///   S4      courant    per-cell Courant sum |u1| + |u2| + |u3|
///   S5      qOut       divergence update q - div(f)
///
/// The workload exists to stress the reduction path of the runtime stack:
/// `courant` is a step output no stage ever reads, so only the reduction
/// consumes it. Every worker folds the cells it just computed into its
/// own partial, in its static share or in stolen chunks, and the partials
/// are combined in worker order at the step's global barrier; the
/// reduction therefore needs no barrier of its own. Both reductions use
/// duplicate-tolerant max-style combiners, so every plan shape — one team
/// at T = 1, islands, temporal epochs with overlapping cones, stealing —
/// reproduces the serial stepper's canonical scan bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_APPS_CFLADVECTION_H
#define ICORES_APPS_CFLADVECTION_H

#include "stencil/KernelTable.h"
#include "stencil/StencilIR.h"

#include <vector>

namespace icores {

/// The CFL-instrumented advection program plus named handles.
struct CflAdvectionProgram {
  StencilProgram Program;

  // Step inputs: the scalar and the face Courant numbers.
  ArrayId Q = 0, U1 = 0, U2 = 0, U3 = 0;

  // Intermediates.
  ArrayId F1 = 0, F2 = 0, F3 = 0;

  // Step outputs: the advected scalar (feeds back into Q) and the
  // per-cell Courant sum the `cfl` reduction folds.
  ArrayId QOut = 0, Courant = 0;

  // Stages in execution order.
  StageId SFlux1 = 0, SFlux2 = 0, SFlux3 = 0;
  StageId SCourant = 0;
  StageId SOut = 0;

  // Indices of the declared reductions in Program.reductions().
  size_t CflReduction = 0;
  size_t MaxNormReduction = 1;
};

/// Builds and validates the 5-stage program with its two reductions.
CflAdvectionProgram buildCflAdvectionProgram();

/// Builds the kernel table (reference scalar kernels; pointwise with
/// fixed evaluation order, so bit-stable under any partitioning).
KernelTable buildCflAdvectionKernels();

/// Combiner bindings for the program's `cfl` and `maxnorm` reductions
/// (max and max-of-absolute-value; both duplicate tolerant).
std::vector<ReductionBinding> cflAdvectionReductions();

/// Input-array halo depth required by the program's dependence cone.
int cflAdvectionHaloDepth();

} // namespace icores

#endif // ICORES_APPS_CFLADVECTION_H
