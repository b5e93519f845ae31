//===- mpdata/KernelsSimd.cpp - Vectorization-shaped MPDATA kernels -------===//
//
// MPDATA's production kernel backend: identical floating-point expression
// order to the reference spec in Kernels.cpp (bit-for-bit equal results,
// property-tested by the variant-equality and strategy-equivalence
// suites), restructured so the compiler auto-vectorizes every inner
// k-loop:
//
//  * every array pointer — including the output — is hoisted out of the
//    k-loop to a row pointer computed once per (i, j);
//  * the output pointers are __restrict-qualified, which is sound because
//    the stencil IR validator structurally rejects stages that read an
//    array they also write, so stores never alias the loads;
//  * the short dimension loops of the minMax/cp/cn kernels are unrolled
//    by hand (a variable-stride gather loop defeats vectorizers);
//  * loop nests are plain for-loops — no lambdas on the hot path — and
//    each k-loop is annotated with ICORES_SIMD_LOOP so the CI
//    vectorization check can pin a -Rpass=loop-vectorize remark to it;
//  * each kernel is an ICORES_ROW_KERNEL: on x86-64 it is compiled for
//    AVX-512F, AVX2 and the baseline ISA, and the loader binds the
//    widest clone the CPU has.
//
// This TU is compiled with -ffp-contract=off (see src/mpdata/
// CMakeLists.txt) so FMA contraction can never perturb results relative
// to the reference spec, at any clone's vector width. No fast-math
// anywhere.
//
//===----------------------------------------------------------------------===//

#include "mpdata/Kernels.h"
#include "stencil/FieldStore.h"
#include "support/Error.h"
#include "support/SimdLoop.h"

#include <algorithm>
#include <cmath>

using namespace icores;

namespace {

/// S1..S3 and S14..S16: donor-cell flux along Dim.
ICORES_ROW_KERNEL
void fluxSimd(const Array3D &X, const Array3D &U, Array3D &F, int Dim,
              const Box3 &Region) {
  const int64_t Back = X.stride(Dim);
  const int NK = Region.extent(2);
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J) {
      const double *XP = X.pointerTo(I, J, Region.Lo[2]);
      const double *XL = XP - Back;
      const double *UP = U.pointerTo(I, J, Region.Lo[2]);
      double *__restrict FP = F.pointerTo(I, J, Region.Lo[2]);
      ICORES_SIMD_LOOP
      for (int K = 0; K != NK; ++K)
        FP[K] = std::max(UP[K], 0.0) * XL[K] + std::min(UP[K], 0.0) * XP[K];
    }
}

/// S4 and S17: flux-divergence update.
ICORES_ROW_KERNEL
void fluxDivergenceSimd(const Array3D &In, const Array3D &F1,
                        const Array3D &F2, const Array3D &F3,
                        const Array3D &H, Array3D &Out, const Box3 &Region) {
  const int NK = Region.extent(2);
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J) {
      const double *InP = In.pointerTo(I, J, Region.Lo[2]);
      const double *F1P = F1.pointerTo(I, J, Region.Lo[2]);
      const double *F1N = F1.pointerTo(I + 1, J, Region.Lo[2]);
      const double *F2P = F2.pointerTo(I, J, Region.Lo[2]);
      const double *F2N = F2.pointerTo(I, J + 1, Region.Lo[2]);
      const double *F3P = F3.pointerTo(I, J, Region.Lo[2]);
      const double *HP = H.pointerTo(I, J, Region.Lo[2]);
      double *__restrict OutP = Out.pointerTo(I, J, Region.Lo[2]);
      ICORES_SIMD_LOOP
      for (int K = 0; K != NK; ++K) {
        double Div =
            F1N[K] - F1P[K] + F2N[K] - F2P[K] + F3P[K + 1] - F3P[K];
        OutP[K] = InP[K] - Div / HP[K];
      }
    }
}

/// S5: fused extrema. Matches the reference's evaluation sequence
/// (centre, then dims 0..2 with offsets -1, +1) with the neighbour loop
/// unrolled to twelve fixed-stride loads.
ICORES_ROW_KERNEL
void minMaxSimd(const Array3D &X, const Array3D &Act, Array3D &Mx,
                Array3D &Mn, const Box3 &Region) {
  const int NK = Region.extent(2);
  const int64_t XI = X.strideI(), XJ = X.strideJ();
  const int64_t AI = Act.strideI(), AJ = Act.strideJ();
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J) {
      const double *XP = X.pointerTo(I, J, Region.Lo[2]);
      const double *AP = Act.pointerTo(I, J, Region.Lo[2]);
      double *__restrict MxP = Mx.pointerTo(I, J, Region.Lo[2]);
      double *__restrict MnP = Mn.pointerTo(I, J, Region.Lo[2]);
      ICORES_SIMD_LOOP
      for (int K = 0; K != NK; ++K) {
        double Max = std::max(XP[K], AP[K]);
        double Min = std::min(XP[K], AP[K]);
        Max = std::max(Max, std::max(XP[K - XI], AP[K - AI]));
        Min = std::min(Min, std::min(XP[K - XI], AP[K - AI]));
        Max = std::max(Max, std::max(XP[K + XI], AP[K + AI]));
        Min = std::min(Min, std::min(XP[K + XI], AP[K + AI]));
        Max = std::max(Max, std::max(XP[K - XJ], AP[K - AJ]));
        Min = std::min(Min, std::min(XP[K - XJ], AP[K - AJ]));
        Max = std::max(Max, std::max(XP[K + XJ], AP[K + AJ]));
        Min = std::min(Min, std::min(XP[K + XJ], AP[K + AJ]));
        Max = std::max(Max, std::max(XP[K - 1], AP[K - 1]));
        Min = std::min(Min, std::min(XP[K - 1], AP[K - 1]));
        Max = std::max(Max, std::max(XP[K + 1], AP[K + 1]));
        Min = std::min(Min, std::min(XP[K + 1], AP[K + 1]));
        MxP[K] = Max;
        MnP[K] = Min;
      }
    }
}

/// S6..S8: antidiffusive pseudo-velocity along Dim.
ICORES_ROW_KERNEL
void pseudoVelocitySimd(const Array3D &Act, const Array3D &UD,
                        const Array3D &UT1, int DimT1, const Array3D &UT2,
                        int DimT2, Array3D &V, int Dim, const Box3 &Region) {
  const int NK = Region.extent(2);
  const int64_t ABack = Act.stride(Dim);
  const int64_t AT1 = Act.stride(DimT1);
  const int64_t AT2 = Act.stride(DimT2);
  const int64_t U1Back = UT1.stride(Dim);
  const int64_t U1Fwd = UT1.stride(DimT1);
  const int64_t U2Back = UT2.stride(Dim);
  const int64_t U2Fwd = UT2.stride(DimT2);
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J) {
      const double *AP = Act.pointerTo(I, J, Region.Lo[2]);
      const double *CP = UD.pointerTo(I, J, Region.Lo[2]);
      const double *T1 = UT1.pointerTo(I, J, Region.Lo[2]);
      const double *T2 = UT2.pointerTo(I, J, Region.Lo[2]);
      double *__restrict VP = V.pointerTo(I, J, Region.Lo[2]);
      ICORES_SIMD_LOOP
      for (int K = 0; K != NK; ++K) {
        double C = CP[K];
        double Right = AP[K];
        double Left = AP[K - ABack];
        double A = (Right - Left) / (Right + Left + MpdataEps);

        // Transverse average/gradient — same summation order as the
        // reference (A = -1 then 0; B = 0 then 1; Up before Dn).
        double Avg1 = 0.25 * (T1[K - U1Back] + T1[K - U1Back + U1Fwd] +
                              T1[K] + T1[K + U1Fwd]);
        double Up1 = AP[K + AT1] + AP[K - ABack + AT1];
        double Dn1 = AP[K - AT1] + AP[K - ABack - AT1];
        double Grad1 = 0.5 * (Up1 - Dn1) / (Up1 + Dn1 + MpdataEps);
        double Cross1 = C * Avg1 * Grad1;

        double Avg2 = 0.25 * (T2[K - U2Back] + T2[K - U2Back + U2Fwd] +
                              T2[K] + T2[K + U2Fwd]);
        double Up2 = AP[K + AT2] + AP[K - ABack + AT2];
        double Dn2 = AP[K - AT2] + AP[K - ABack - AT2];
        double Grad2 = 0.5 * (Up2 - Dn2) / (Up2 + Dn2 + MpdataEps);
        double Cross2 = C * Avg2 * Grad2;

        VP[K] = (std::fabs(C) - C * C) * A - Cross1 - Cross2;
      }
    }
}

/// S9: cp. The reference accumulates In over dims 0..2 in order; the
/// dimension loop is unrolled so every load has a fixed stride.
ICORES_ROW_KERNEL
void cpSimd(const Array3D &Mx, const Array3D &Act, const Array3D &H,
            const Array3D &V1, const Array3D &V2, const Array3D &V3,
            Array3D &Cp, const Box3 &Region) {
  const int NK = Region.extent(2);
  const int64_t AI = Act.strideI(), AJ = Act.strideJ();
  const int64_t V1F = V1.strideI();
  const int64_t V2F = V2.strideJ();
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J) {
      const double *MxP = Mx.pointerTo(I, J, Region.Lo[2]);
      const double *AP = Act.pointerTo(I, J, Region.Lo[2]);
      const double *HP = H.pointerTo(I, J, Region.Lo[2]);
      const double *V1P = V1.pointerTo(I, J, Region.Lo[2]);
      const double *V2P = V2.pointerTo(I, J, Region.Lo[2]);
      const double *V3P = V3.pointerTo(I, J, Region.Lo[2]);
      double *__restrict CpP = Cp.pointerTo(I, J, Region.Lo[2]);
      ICORES_SIMD_LOOP
      for (int K = 0; K != NK; ++K) {
        double In = 0.0;
        In += std::max(V1P[K], 0.0) * AP[K - AI];
        In -= std::min(V1P[K + V1F], 0.0) * AP[K + AI];
        In += std::max(V2P[K], 0.0) * AP[K - AJ];
        In -= std::min(V2P[K + V2F], 0.0) * AP[K + AJ];
        In += std::max(V3P[K], 0.0) * AP[K - 1];
        In -= std::min(V3P[K + 1], 0.0) * AP[K + 1];
        CpP[K] = (MxP[K] - AP[K]) * HP[K] / (In + MpdataEps);
      }
    }
}

/// S10: cn.
ICORES_ROW_KERNEL
void cnSimd(const Array3D &Mn, const Array3D &Act, const Array3D &H,
            const Array3D &V1, const Array3D &V2, const Array3D &V3,
            Array3D &Cn, const Box3 &Region) {
  const int NK = Region.extent(2);
  const int64_t V1F = V1.strideI();
  const int64_t V2F = V2.strideJ();
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J) {
      const double *MnP = Mn.pointerTo(I, J, Region.Lo[2]);
      const double *AP = Act.pointerTo(I, J, Region.Lo[2]);
      const double *HP = H.pointerTo(I, J, Region.Lo[2]);
      const double *V1P = V1.pointerTo(I, J, Region.Lo[2]);
      const double *V2P = V2.pointerTo(I, J, Region.Lo[2]);
      const double *V3P = V3.pointerTo(I, J, Region.Lo[2]);
      double *__restrict CnP = Cn.pointerTo(I, J, Region.Lo[2]);
      ICORES_SIMD_LOOP
      for (int K = 0; K != NK; ++K) {
        double Center = AP[K];
        double Out = 0.0;
        Out += std::max(V1P[K + V1F], 0.0) * Center;
        Out -= std::min(V1P[K], 0.0) * Center;
        Out += std::max(V2P[K + V2F], 0.0) * Center;
        Out -= std::min(V2P[K], 0.0) * Center;
        Out += std::max(V3P[K + 1], 0.0) * Center;
        Out -= std::min(V3P[K], 0.0) * Center;
        CnP[K] = (Center - MnP[K]) * HP[K] / (Out + MpdataEps);
      }
    }
}

/// S11..S13: non-oscillatory limiting along Dim.
ICORES_ROW_KERNEL
void limitSimd(const Array3D &Cp, const Array3D &Cn, const Array3D &V,
               Array3D &Vm, int Dim, const Box3 &Region) {
  const int NK = Region.extent(2);
  const int64_t CpBack = Cp.stride(Dim);
  const int64_t CnBack = Cn.stride(Dim);
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J) {
      const double *CpP = Cp.pointerTo(I, J, Region.Lo[2]);
      const double *CnP = Cn.pointerTo(I, J, Region.Lo[2]);
      const double *VP = V.pointerTo(I, J, Region.Lo[2]);
      double *__restrict VmP = Vm.pointerTo(I, J, Region.Lo[2]);
      ICORES_SIMD_LOOP
      for (int K = 0; K != NK; ++K) {
        double PosScale = std::min(1.0, std::min(CpP[K], CnP[K - CnBack]));
        double NegScale = std::min(1.0, std::min(CpP[K - CpBack], CnP[K]));
        VmP[K] = PosScale * std::max(VP[K], 0.0) +
                 NegScale * std::min(VP[K], 0.0);
      }
    }
}

} // namespace

void icores::runMpdataStageSimd(const MpdataProgram &M, FieldStore &Fields,
                                StageId Stage, const Box3 &Region) {
  if (Region.empty())
    return;
  FieldStore &F = Fields;
  if (Stage == M.SFlux1) {
    fluxSimd(F.get(M.XIn), F.get(M.U1), F.get(M.F1), 0, Region);
  } else if (Stage == M.SFlux2) {
    fluxSimd(F.get(M.XIn), F.get(M.U2), F.get(M.F2), 1, Region);
  } else if (Stage == M.SFlux3) {
    fluxSimd(F.get(M.XIn), F.get(M.U3), F.get(M.F3), 2, Region);
  } else if (Stage == M.SUpwind) {
    fluxDivergenceSimd(F.get(M.XIn), F.get(M.F1), F.get(M.F2), F.get(M.F3),
                       F.get(M.H), F.get(M.Actual), Region);
  } else if (Stage == M.SMinMax) {
    minMaxSimd(F.get(M.XIn), F.get(M.Actual), F.get(M.Mx), F.get(M.Mn),
               Region);
  } else if (Stage == M.SVel1) {
    pseudoVelocitySimd(F.get(M.Actual), F.get(M.U1), F.get(M.U2), 1,
                       F.get(M.U3), 2, F.get(M.V1), 0, Region);
  } else if (Stage == M.SVel2) {
    pseudoVelocitySimd(F.get(M.Actual), F.get(M.U2), F.get(M.U1), 0,
                       F.get(M.U3), 2, F.get(M.V2), 1, Region);
  } else if (Stage == M.SVel3) {
    pseudoVelocitySimd(F.get(M.Actual), F.get(M.U3), F.get(M.U1), 0,
                       F.get(M.U2), 1, F.get(M.V3), 2, Region);
  } else if (Stage == M.SCp) {
    cpSimd(F.get(M.Mx), F.get(M.Actual), F.get(M.H), F.get(M.V1),
           F.get(M.V2), F.get(M.V3), F.get(M.Cp), Region);
  } else if (Stage == M.SCn) {
    cnSimd(F.get(M.Mn), F.get(M.Actual), F.get(M.H), F.get(M.V1),
           F.get(M.V2), F.get(M.V3), F.get(M.Cn), Region);
  } else if (Stage == M.SLim1) {
    limitSimd(F.get(M.Cp), F.get(M.Cn), F.get(M.V1), F.get(M.V1m), 0,
              Region);
  } else if (Stage == M.SLim2) {
    limitSimd(F.get(M.Cp), F.get(M.Cn), F.get(M.V2), F.get(M.V2m), 1,
              Region);
  } else if (Stage == M.SLim3) {
    limitSimd(F.get(M.Cp), F.get(M.Cn), F.get(M.V3), F.get(M.V3m), 2,
              Region);
  } else if (Stage == M.SGFlux1) {
    fluxSimd(F.get(M.Actual), F.get(M.V1m), F.get(M.G1), 0, Region);
  } else if (Stage == M.SGFlux2) {
    fluxSimd(F.get(M.Actual), F.get(M.V2m), F.get(M.G2), 1, Region);
  } else if (Stage == M.SGFlux3) {
    fluxSimd(F.get(M.Actual), F.get(M.V3m), F.get(M.G3), 2, Region);
  } else if (Stage == M.SOut) {
    fluxDivergenceSimd(F.get(M.Actual), F.get(M.G1), F.get(M.G2),
                       F.get(M.G3), F.get(M.H), F.get(M.XOut), Region);
  } else {
    ICORES_UNREACHABLE("unknown MPDATA stage id");
  }
}
