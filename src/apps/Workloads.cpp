//===- apps/Workloads.cpp - Built-in workload registrations ---------------===//

#include "apps/Workloads.h"

#include "apps/AdvectionDiffusion.h"
#include "apps/CflAdvection.h"
#include "apps/Hotspot.h"
#include "grid/Array3D.h"
#include "mpdata/InitialConditions.h"
#include "mpdata/Kernels.h"
#include "mpdata/MpdataProgram.h"
#include "support/Diagnostics.h"
#include "support/Error.h"
#include "support/Random.h"

#include <utility>

using namespace icores;

namespace {

/// Fills the core region of \p A with deterministic values in [Lo, Hi);
/// unlike fillRandomPositive, the range may include negative values
/// (velocity components).
void fillRandomSigned(Array3D &A, const Domain &D, uint64_t Seed, double Lo,
                      double Hi) {
  SplitMix64 Rng(Seed);
  Box3 Core = D.coreBox();
  for (int I = Core.Lo[0]; I != Core.Hi[0]; ++I)
    for (int J = Core.Lo[1]; J != Core.Hi[1]; ++J)
      for (int K = Core.Lo[2]; K != Core.Hi[2]; ++K)
        A.at(I, J, K) = Rng.nextInRange(Lo, Hi);
}

bool registerMpdata(WorkloadRegistry &R, DiagnosticEngine &Diags) {
  MpdataProgram M = buildMpdataProgram();
  WorkloadSpec Spec;
  Spec.Name = "mpdata";
  Spec.Description =
      "17-stage positive-definite MPDATA advection (upwind + antidiffusive "
      "corrector with nonoscillatory limiters)";
  Spec.HaloDepth = mpdataHaloDepth();
  Spec.Variants = {KernelVariant::Reference, KernelVariant::Optimized,
                   KernelVariant::Simd};
  Spec.Kernels = [](KernelVariant V) { return buildMpdataKernels(V); };
  ArrayId XIn = M.XIn, U1 = M.U1, U2 = M.U2, U3 = M.U3, H = M.H;
  Spec.Init = [XIn, U1, U2, U3, H](const WorkloadInitContext &Ctx) {
    const Domain &D = Ctx.Dom;
    // A Gaussian tracer blob advected by a constant sub-CFL velocity;
    // the seed jitters the blob's periodic center so distinct seeds give
    // distinct (still positive) fields.
    SplitMix64 Rng(Ctx.Seed ^ 0x6d70646174610001ULL);
    GaussianBlob Blob;
    Blob.CenterI = D.ni() / 3.0 + Rng.nextInRange(-1.5, 1.5);
    Blob.CenterJ = D.nj() / 2.0 + Rng.nextInRange(-1.5, 1.5);
    Blob.CenterK = D.nk() / 2.0 + Rng.nextInRange(-1.5, 1.5);
    Blob.Sigma = 2.5;
    fillGaussian(Ctx.Array(XIn), D, Blob);
    Ctx.Array(U1).fill(0.25);
    Ctx.Array(U2).fill(-0.2);
    Ctx.Array(U3).fill(0.1);
    Ctx.Array(H).fill(1.0);
  };
  Spec.Program = std::move(M.Program);
  return R.add(std::move(Spec), Diags);
}

bool registerAdvDiff(WorkloadRegistry &R, DiagnosticEngine &Diags) {
  AdvDiffProgram A = buildAdvDiffProgram();
  WorkloadSpec Spec;
  Spec.Name = "advdiff";
  Spec.Description = "8-stage RK2 advection-diffusion (donor-cell advective "
                     "plus Fickian diffusive fluxes, midpoint update)";
  Spec.HaloDepth = advDiffHaloDepth();
  Spec.Variants = {KernelVariant::Reference};
  Spec.Kernels = [](KernelVariant) { return buildAdvDiffKernels(); };
  ArrayId Phi = A.Phi, U1 = A.U1, U2 = A.U2, U3 = A.U3, Kappa = A.Kappa;
  Spec.Init = [Phi, U1, U2, U3, Kappa](const WorkloadInitContext &Ctx) {
    const Domain &D = Ctx.Dom;
    fillRandomPositive(Ctx.Array(Phi), D, Ctx.Seed ^ 0x6164760000000001ULL,
                       0.5, 1.5);
    fillRandomPositive(Ctx.Array(Kappa), D, Ctx.Seed ^ 0x6164760000000002ULL,
                       0.02, 0.08);
    Ctx.Array(U1).fill(0.2);
    Ctx.Array(U2).fill(-0.15);
    Ctx.Array(U3).fill(0.1);
  };
  Spec.Program = std::move(A.Program);
  return R.add(std::move(Spec), Diags);
}

bool registerCflAdvection(WorkloadRegistry &R, DiagnosticEngine &Diags) {
  CflAdvectionProgram A = buildCflAdvectionProgram();
  WorkloadSpec Spec;
  Spec.Name = "cfl-advect";
  Spec.Description = "5-stage donor-cell advection carrying per-step global "
                     "CFL and max-norm reductions";
  Spec.HaloDepth = cflAdvectionHaloDepth();
  Spec.Variants = {KernelVariant::Reference};
  Spec.Kernels = [](KernelVariant) { return buildCflAdvectionKernels(); };
  Spec.Reductions = cflAdvectionReductions();
  ArrayId Q = A.Q, U1 = A.U1, U2 = A.U2, U3 = A.U3;
  Spec.Init = [Q, U1, U2, U3](const WorkloadInitContext &Ctx) {
    const Domain &D = Ctx.Dom;
    fillRandomPositive(Ctx.Array(Q), D, Ctx.Seed ^ 0x63666c0000000001ULL, 0.5,
                       1.5);
    // Spatially varying velocities; |u1|+|u2|+|u3| stays below 0.9, so
    // the reported CFL is meaningful for a unit-timestep donor scheme.
    fillRandomSigned(Ctx.Array(U1), D, Ctx.Seed ^ 0x63666c0000000002ULL, -0.3,
                     0.3);
    fillRandomSigned(Ctx.Array(U2), D, Ctx.Seed ^ 0x63666c0000000003ULL, -0.3,
                     0.3);
    fillRandomSigned(Ctx.Array(U3), D, Ctx.Seed ^ 0x63666c0000000004ULL, -0.3,
                     0.3);
  };
  Spec.Program = std::move(A.Program);
  return R.add(std::move(Spec), Diags);
}

bool registerHotspot(WorkloadRegistry &R, DiagnosticEngine &Diags) {
  HotspotProgram A = buildHotspotProgram();
  WorkloadSpec Spec;
  Spec.Name = "hotspot";
  Spec.Description = "4-stage explicit thermal diffusion (face-flux 7-point "
                     "Laplacian, static power map, Newtonian cooling)";
  Spec.HaloDepth = hotspotHaloDepth();
  Spec.Variants = {KernelVariant::Reference};
  Spec.Kernels = [](KernelVariant) { return buildHotspotKernels(); };
  ArrayId T = A.T, Power = A.Power;
  Spec.Init = [T, Power](const WorkloadInitContext &Ctx) {
    const Domain &D = Ctx.Dom;
    // A die that starts near ambient with seed-jittered spatial noise,
    // heated by a static random power map (a few hot cells on a cool
    // background, like a floorplan's active blocks).
    fillRandomPositive(Ctx.Array(T), D, Ctx.Seed ^ 0x686f740000000001ULL,
                       HotspotTamb - 2.0, HotspotTamb + 2.0);
    fillRandomPositive(Ctx.Array(Power), D,
                       Ctx.Seed ^ 0x686f740000000002ULL, 0.0, 2.0);
  };
  Spec.Program = std::move(A.Program);
  return R.add(std::move(Spec), Diags);
}

} // namespace

bool icores::registerBuiltinWorkloads(WorkloadRegistry &R,
                                      DiagnosticEngine &Diags) {
  bool Ok = registerMpdata(R, Diags);
  Ok = registerAdvDiff(R, Diags) && Ok;
  Ok = registerCflAdvection(R, Diags) && Ok;
  Ok = registerHotspot(R, Diags) && Ok;
  return Ok;
}

const WorkloadRegistry &icores::builtinWorkloads() {
  static WorkloadRegistry Registry = [] {
    WorkloadRegistry R;
    DiagnosticEngine Diags;
    bool Ok = registerBuiltinWorkloads(R, Diags);
    ICORES_CHECK(Ok, "built-in workload failed registration");
    return R;
  }();
  return Registry;
}
