//===- mpdata/KernelsOptimized.cpp - Strided-pointer MPDATA kernels -------===//
//
// The production kernel path: identical floating-point expression order to
// the reference kernels in Kernels.cpp (bit-for-bit equal results,
// property-tested), but with per-row raw pointers and contiguous inner
// k-loops so the compiler can vectorize. The dimension-generic kernels
// take the neighbour offset as an element stride.
//
//===----------------------------------------------------------------------===//

#include "stencil/FieldStore.h"
#include "mpdata/Kernels.h"
#include "support/Error.h"

#include <algorithm>
#include <cmath>

using namespace icores;

namespace {

/// Runs \p Body(I, J) for every (i, j) row of \p Region; the body handles
/// the contiguous k-extent itself.
template <typename Fn> void forRows(const Box3 &Region, Fn &&Body) {
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J)
      Body(I, J);
}

/// S1..S3 and S14..S16: donor-cell flux along Dim.
void fluxOpt(const Array3D &X, const Array3D &U, Array3D &F, int Dim,
             const Box3 &Region) {
  int64_t Back = X.stride(Dim);
  int NK = Region.extent(2);
  forRows(Region, [&](int I, int J) {
    const double *XP = X.pointerTo(I, J, Region.Lo[2]);
    const double *XL = XP - Back;
    const double *UP = U.pointerTo(I, J, Region.Lo[2]);
    double *FP = F.pointerTo(I, J, Region.Lo[2]);
    for (int K = 0; K != NK; ++K)
      FP[K] = std::max(UP[K], 0.0) * XL[K] + std::min(UP[K], 0.0) * XP[K];
  });
}

/// S4 and S17: flux-divergence update.
void fluxDivergenceOpt(const Array3D &In, const Array3D &F1,
                       const Array3D &F2, const Array3D &F3,
                       const Array3D &H, Array3D &Out, const Box3 &Region) {
  int NK = Region.extent(2);
  forRows(Region, [&](int I, int J) {
    const double *InP = In.pointerTo(I, J, Region.Lo[2]);
    const double *F1P = F1.pointerTo(I, J, Region.Lo[2]);
    const double *F1N = F1.pointerTo(I + 1, J, Region.Lo[2]);
    const double *F2P = F2.pointerTo(I, J, Region.Lo[2]);
    const double *F2N = F2.pointerTo(I, J + 1, Region.Lo[2]);
    const double *F3P = F3.pointerTo(I, J, Region.Lo[2]);
    const double *HP = H.pointerTo(I, J, Region.Lo[2]);
    double *OutP = Out.pointerTo(I, J, Region.Lo[2]);
    for (int K = 0; K != NK; ++K) {
      double Div = F1N[K] - F1P[K] + F2N[K] - F2P[K] + F3P[K + 1] - F3P[K];
      OutP[K] = InP[K] - Div / HP[K];
    }
  });
}

/// S5: fused extrema. Matches the reference's evaluation sequence:
/// centre, then dims 0..2 with offsets -1, +1.
void minMaxOpt(const Array3D &X, const Array3D &Act, Array3D &Mx,
               Array3D &Mn, const Box3 &Region) {
  int NK = Region.extent(2);
  int64_t OffX[3] = {X.strideI(), X.strideJ(), 1};
  int64_t OffA[3] = {Act.strideI(), Act.strideJ(), 1};
  forRows(Region, [&](int I, int J) {
    const double *XP = X.pointerTo(I, J, Region.Lo[2]);
    const double *AP = Act.pointerTo(I, J, Region.Lo[2]);
    double *MxP = Mx.pointerTo(I, J, Region.Lo[2]);
    double *MnP = Mn.pointerTo(I, J, Region.Lo[2]);
    for (int K = 0; K != NK; ++K) {
      double Max = std::max(XP[K], AP[K]);
      double Min = std::min(XP[K], AP[K]);
      for (int D = 0; D != 3; ++D) {
        for (int Sign = -1; Sign <= 1; Sign += 2) {
          int64_t DX = Sign * OffX[D];
          int64_t DA = Sign * OffA[D];
          Max = std::max(Max, std::max(XP[K + DX], AP[K + DA]));
          Min = std::min(Min, std::min(XP[K + DX], AP[K + DA]));
        }
      }
      MxP[K] = Max;
      MnP[K] = Min;
    }
  });
}

/// S6..S8: antidiffusive pseudo-velocity along Dim.
void pseudoVelocityOpt(const Array3D &Act, const Array3D &UD,
                       const Array3D &UT1, int DimT1, const Array3D &UT2,
                       int DimT2, Array3D &V, int Dim, const Box3 &Region) {
  int NK = Region.extent(2);
  int64_t ABack = Act.stride(Dim);
  int64_t AT1 = Act.stride(DimT1);
  int64_t AT2 = Act.stride(DimT2);
  int64_t U1Back = UT1.stride(Dim);
  int64_t U1Fwd = UT1.stride(DimT1);
  int64_t U2Back = UT2.stride(Dim);
  int64_t U2Fwd = UT2.stride(DimT2);
  forRows(Region, [&](int I, int J) {
    const double *AP = Act.pointerTo(I, J, Region.Lo[2]);
    const double *CP = UD.pointerTo(I, J, Region.Lo[2]);
    const double *T1 = UT1.pointerTo(I, J, Region.Lo[2]);
    const double *T2 = UT2.pointerTo(I, J, Region.Lo[2]);
    double *VP = V.pointerTo(I, J, Region.Lo[2]);
    for (int K = 0; K != NK; ++K) {
      double C = CP[K];
      double Right = AP[K];
      double Left = AP[K - ABack];
      double A = (Right - Left) / (Right + Left + MpdataEps);

      // Transverse average/gradient 1 — same summation order as the
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
  });
}

/// S9: cp. The reference accumulates In over dims 0..2 in order.
void cpOpt(const Array3D &Mx, const Array3D &Act, const Array3D &H,
           const Array3D &V1, const Array3D &V2, const Array3D &V3,
           Array3D &Cp, const Box3 &Region) {
  int NK = Region.extent(2);
  int64_t AOff[3] = {Act.strideI(), Act.strideJ(), 1};
  const Array3D *V[3] = {&V1, &V2, &V3};
  forRows(Region, [&](int I, int J) {
    const double *MxP = Mx.pointerTo(I, J, Region.Lo[2]);
    const double *AP = Act.pointerTo(I, J, Region.Lo[2]);
    const double *HP = H.pointerTo(I, J, Region.Lo[2]);
    const double *VP[3];
    int64_t VFwd[3];
    for (int D = 0; D != 3; ++D) {
      VP[D] = V[D]->pointerTo(I, J, Region.Lo[2]);
      VFwd[D] = V[D]->stride(D);
    }
    for (int K = 0; K != NK; ++K) {
      double In = 0.0;
      for (int D = 0; D != 3; ++D) {
        In += std::max(VP[D][K], 0.0) * AP[K - AOff[D]];
        In -= std::min(VP[D][K + VFwd[D]], 0.0) * AP[K + AOff[D]];
      }
      Cp.pointerTo(I, J, Region.Lo[2])[K] =
          (MxP[K] - AP[K]) * HP[K] / (In + MpdataEps);
    }
  });
}

/// S10: cn.
void cnOpt(const Array3D &Mn, const Array3D &Act, const Array3D &H,
           const Array3D &V1, const Array3D &V2, const Array3D &V3,
           Array3D &Cn, const Box3 &Region) {
  int NK = Region.extent(2);
  const Array3D *V[3] = {&V1, &V2, &V3};
  forRows(Region, [&](int I, int J) {
    const double *MnP = Mn.pointerTo(I, J, Region.Lo[2]);
    const double *AP = Act.pointerTo(I, J, Region.Lo[2]);
    const double *HP = H.pointerTo(I, J, Region.Lo[2]);
    const double *VP[3];
    int64_t VFwd[3];
    for (int D = 0; D != 3; ++D) {
      VP[D] = V[D]->pointerTo(I, J, Region.Lo[2]);
      VFwd[D] = V[D]->stride(D);
    }
    double *CnP = Cn.pointerTo(I, J, Region.Lo[2]);
    for (int K = 0; K != NK; ++K) {
      double Center = AP[K];
      double Out = 0.0;
      for (int D = 0; D != 3; ++D) {
        Out += std::max(VP[D][K + VFwd[D]], 0.0) * Center;
        Out -= std::min(VP[D][K], 0.0) * Center;
      }
      CnP[K] = (Center - MnP[K]) * HP[K] / (Out + MpdataEps);
    }
  });
}

/// S11..S13: non-oscillatory limiting along Dim.
void limitOpt(const Array3D &Cp, const Array3D &Cn, const Array3D &V,
              Array3D &Vm, int Dim, const Box3 &Region) {
  int NK = Region.extent(2);
  int64_t CpBack = Cp.stride(Dim);
  int64_t CnBack = Cn.stride(Dim);
  forRows(Region, [&](int I, int J) {
    const double *CpP = Cp.pointerTo(I, J, Region.Lo[2]);
    const double *CnP = Cn.pointerTo(I, J, Region.Lo[2]);
    const double *VP = V.pointerTo(I, J, Region.Lo[2]);
    double *VmP = Vm.pointerTo(I, J, Region.Lo[2]);
    for (int K = 0; K != NK; ++K) {
      double PosScale = std::min(1.0, std::min(CpP[K], CnP[K - CnBack]));
      double NegScale = std::min(1.0, std::min(CpP[K - CpBack], CnP[K]));
      VmP[K] = PosScale * std::max(VP[K], 0.0) +
               NegScale * std::min(VP[K], 0.0);
    }
  });
}

} // namespace

void icores::runMpdataStageOptimized(const MpdataProgram &M,
                                     FieldStore &Fields, StageId Stage,
                                     const Box3 &Region) {
  if (Region.empty())
    return;
  FieldStore &F = Fields;
  if (Stage == M.SFlux1) {
    fluxOpt(F.get(M.XIn), F.get(M.U1), F.get(M.F1), 0, Region);
  } else if (Stage == M.SFlux2) {
    fluxOpt(F.get(M.XIn), F.get(M.U2), F.get(M.F2), 1, Region);
  } else if (Stage == M.SFlux3) {
    fluxOpt(F.get(M.XIn), F.get(M.U3), F.get(M.F3), 2, Region);
  } else if (Stage == M.SUpwind) {
    fluxDivergenceOpt(F.get(M.XIn), F.get(M.F1), F.get(M.F2), F.get(M.F3),
                      F.get(M.H), F.get(M.Actual), Region);
  } else if (Stage == M.SMinMax) {
    minMaxOpt(F.get(M.XIn), F.get(M.Actual), F.get(M.Mx), F.get(M.Mn),
              Region);
  } else if (Stage == M.SVel1) {
    pseudoVelocityOpt(F.get(M.Actual), F.get(M.U1), F.get(M.U2), 1,
                      F.get(M.U3), 2, F.get(M.V1), 0, Region);
  } else if (Stage == M.SVel2) {
    pseudoVelocityOpt(F.get(M.Actual), F.get(M.U2), F.get(M.U1), 0,
                      F.get(M.U3), 2, F.get(M.V2), 1, Region);
  } else if (Stage == M.SVel3) {
    pseudoVelocityOpt(F.get(M.Actual), F.get(M.U3), F.get(M.U1), 0,
                      F.get(M.U2), 1, F.get(M.V3), 2, Region);
  } else if (Stage == M.SCp) {
    cpOpt(F.get(M.Mx), F.get(M.Actual), F.get(M.H), F.get(M.V1),
          F.get(M.V2), F.get(M.V3), F.get(M.Cp), Region);
  } else if (Stage == M.SCn) {
    cnOpt(F.get(M.Mn), F.get(M.Actual), F.get(M.H), F.get(M.V1),
          F.get(M.V2), F.get(M.V3), F.get(M.Cn), Region);
  } else if (Stage == M.SLim1) {
    limitOpt(F.get(M.Cp), F.get(M.Cn), F.get(M.V1), F.get(M.V1m), 0,
             Region);
  } else if (Stage == M.SLim2) {
    limitOpt(F.get(M.Cp), F.get(M.Cn), F.get(M.V2), F.get(M.V2m), 1,
             Region);
  } else if (Stage == M.SLim3) {
    limitOpt(F.get(M.Cp), F.get(M.Cn), F.get(M.V3), F.get(M.V3m), 2,
             Region);
  } else if (Stage == M.SGFlux1) {
    fluxOpt(F.get(M.Actual), F.get(M.V1m), F.get(M.G1), 0, Region);
  } else if (Stage == M.SGFlux2) {
    fluxOpt(F.get(M.Actual), F.get(M.V2m), F.get(M.G2), 1, Region);
  } else if (Stage == M.SGFlux3) {
    fluxOpt(F.get(M.Actual), F.get(M.V3m), F.get(M.G3), 2, Region);
  } else if (Stage == M.SOut) {
    fluxDivergenceOpt(F.get(M.Actual), F.get(M.G1), F.get(M.G2),
                      F.get(M.G3), F.get(M.H), F.get(M.XOut), Region);
  } else {
    ICORES_UNREACHABLE("unknown MPDATA stage id");
  }
}
