//===- apps/Hotspot.h - Thermal diffusion workload --------------*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hotspot-style thermal simulation: explicit diffusion of a temperature
/// field driven by a static per-cell power map, with Newtonian cooling
/// toward the ambient. One time step is 4 heterogeneous stages:
///
///   S1..S3  g1,g2,g3  conductive heat flux through the lower face
///                     along each dimension (g = T - T_lower)
///   S4      tOut      T + Cd * div(g) + Cp * P + Cr * (Tamb - T)
///
/// The face-flux formulation makes div(g) the exact 7-point Laplacian
/// (g(i+1) - g(i) telescopes to the directional second difference) while
/// giving the update stage spatially offset reads of the g arrays, so the
/// producer/consumer barriers are genuine cross-thread dependences the
/// elision proofs must keep. The dependence cone is one cell deep — the
/// shallowest of the registered workloads — which exercises the halo
/// machinery at its minimum and makes temporal epochs cheap.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_APPS_HOTSPOT_H
#define ICORES_APPS_HOTSPOT_H

#include "stencil/KernelTable.h"
#include "stencil/StencilIR.h"

namespace icores {

/// The hotspot thermal program plus named handles.
struct HotspotProgram {
  StencilProgram Program;

  // Step inputs: the temperature field and the static power map.
  ArrayId T = 0, Power = 0;

  // Intermediates: lower-face conductive fluxes per dimension.
  ArrayId G1 = 0, G2 = 0, G3 = 0;

  // Step output: the updated temperature (feeds back into T).
  ArrayId TOut = 0;

  // Stages in execution order.
  StageId SGrad1 = 0, SGrad2 = 0, SGrad3 = 0;
  StageId SOut = 0;
};

/// Model coefficients; chosen inside the explicit-Euler stability region
/// (diffusion number Cd < 1/6 for the 3D 7-point Laplacian).
constexpr double HotspotCd = 0.12;   ///< Diffusion number.
constexpr double HotspotCp = 0.05;   ///< Power-injection coefficient.
constexpr double HotspotCr = 0.01;   ///< Newtonian cooling coefficient.
constexpr double HotspotTamb = 25.0; ///< Ambient temperature.

/// Builds and validates the 4-stage program.
HotspotProgram buildHotspotProgram();

/// Builds the kernel table: row kernels with hoisted per-row pointers and
/// unit-stride k-loops, pointwise with a fixed evaluation order, so
/// bit-stable under any partitioning. The workload's registry entry
/// serves it as its only (Reference) variant.
KernelTable buildHotspotKernels();

/// Input-array halo depth required by the program's dependence cone.
int hotspotHaloDepth();

} // namespace icores

#endif // ICORES_APPS_HOTSPOT_H
