//===- mpdata/Kernels.cpp - MPDATA stage compute kernels ------------------===//

#include "mpdata/Kernels.h"

#include "stencil/FieldStore.h"
#include "support/Error.h"

#include <algorithm>
#include <cmath>

using namespace icores;

namespace {

/// Point in index space, mutated by the dimension-generic kernels.
using Pt = std::array<int, 3>;

double get(const Array3D &A, Pt P) { return A.at(P[0], P[1], P[2]); }

double getOff(const Array3D &A, Pt P, int Dim, int Off) {
  P[Dim] += Off;
  return A.at(P[0], P[1], P[2]);
}

/// Donor-cell (first-order upwind) flux through a face with velocity U,
/// left state L and right state R.
double donorFlux(double L, double R, double U) {
  return std::max(U, 0.0) * L + std::min(U, 0.0) * R;
}

/// Visits every point of \p Region in (i, j, k) order.
template <typename Fn> void forRegion(const Box3 &Region, Fn &&Body) {
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J)
      for (int K = Region.Lo[2]; K != Region.Hi[2]; ++K)
        Body(Pt{I, J, K});
}

/// S1..S3: F(p) = donor(x(p - e_d), x(p), u_d(p)).
void kernelFlux(const Array3D &X, const Array3D &U, Array3D &F, int Dim,
                const Box3 &Region) {
  forRegion(Region, [&](Pt P) {
    F.at(P[0], P[1], P[2]) =
        donorFlux(getOff(X, P, Dim, -1), get(X, P), get(U, P));
  });
}

/// S4 and S17: Out = In - (sum_d F_d(p + e_d) - F_d(p)) / h(p).
void kernelFluxDivergence(const Array3D &In, const Array3D &F1,
                          const Array3D &F2, const Array3D &F3,
                          const Array3D &H, Array3D &Out,
                          const Box3 &Region) {
  forRegion(Region, [&](Pt P) {
    double Div = getOff(F1, P, 0, 1) - get(F1, P) + getOff(F2, P, 1, 1) -
                 get(F2, P) + getOff(F3, P, 2, 1) - get(F3, P);
    Out.at(P[0], P[1], P[2]) = get(In, P) - Div / get(H, P);
  });
}

/// S5: fused 7-point-cross extrema of xIn and actual.
void kernelMinMax(const Array3D &X, const Array3D &Act, Array3D &Mx,
                  Array3D &Mn, const Box3 &Region) {
  forRegion(Region, [&](Pt P) {
    double Max = std::max(get(X, P), get(Act, P));
    double Min = std::min(get(X, P), get(Act, P));
    for (int D = 0; D != 3; ++D) {
      for (int Off = -1; Off <= 1; Off += 2) {
        Max = std::max(Max, std::max(getOff(X, P, D, Off),
                                     getOff(Act, P, D, Off)));
        Min = std::min(Min, std::min(getOff(X, P, D, Off),
                                     getOff(Act, P, D, Off)));
      }
    }
    Mx.at(P[0], P[1], P[2]) = Max;
    Mn.at(P[0], P[1], P[2]) = Min;
  });
}

/// Average of the transverse face velocity UT (normal to DimT) over the
/// four faces adjacent to the Dim-face at P.
double transverseAvg(const Array3D &UT, Pt P, int Dim, int DimT) {
  Pt Q = P;
  double Sum = 0.0;
  for (int A = -1; A <= 0; ++A) {
    for (int B = 0; B <= 1; ++B) {
      Q = P;
      Q[Dim] += A;
      Q[DimT] += B;
      Sum += UT.at(Q[0], Q[1], Q[2]);
    }
  }
  return 0.25 * Sum;
}

/// Normalized transverse gradient of Act across DimT at the Dim-face at P.
double transverseGradient(const Array3D &Act, Pt P, int Dim, int DimT) {
  Pt Q = P;
  auto ActAt = [&](int DD, int DT) {
    Q = P;
    Q[Dim] += DD;
    Q[DimT] += DT;
    return Act.at(Q[0], Q[1], Q[2]);
  };
  double Up = ActAt(0, 1) + ActAt(-1, 1);
  double Dn = ActAt(0, -1) + ActAt(-1, -1);
  return 0.5 * (Up - Dn) / (Up + Dn + MpdataEps);
}

/// S6..S8: antidiffusive pseudo-velocity on the lower Dim-face.
void kernelPseudoVelocity(const Array3D &Act, const Array3D &UD,
                          const Array3D &UT1, int DimT1, const Array3D &UT2,
                          int DimT2, Array3D &V, int Dim,
                          const Box3 &Region) {
  forRegion(Region, [&](Pt P) {
    double C = get(UD, P);
    double Right = get(Act, P);
    double Left = getOff(Act, P, Dim, -1);
    double A = (Right - Left) / (Right + Left + MpdataEps);
    double Cross1 = C * transverseAvg(UT1, P, Dim, DimT1) *
                    transverseGradient(Act, P, Dim, DimT1);
    double Cross2 = C * transverseAvg(UT2, P, Dim, DimT2) *
                    transverseGradient(Act, P, Dim, DimT2);
    V.at(P[0], P[1], P[2]) =
        (std::fabs(C) - C * C) * A - Cross1 - Cross2;
  });
}

/// S9: cp = (mx - actual) * h / (inflow + eps).
void kernelCp(const Array3D &Mx, const Array3D &Act, const Array3D &H,
              const Array3D &V1, const Array3D &V2, const Array3D &V3,
              Array3D &Cp, const Box3 &Region) {
  const Array3D *V[3] = {&V1, &V2, &V3};
  forRegion(Region, [&](Pt P) {
    double In = 0.0;
    for (int D = 0; D != 3; ++D) {
      In += std::max(get(*V[D], P), 0.0) * getOff(Act, P, D, -1);
      In -= std::min(getOff(*V[D], P, D, 1), 0.0) * getOff(Act, P, D, 1);
    }
    Cp.at(P[0], P[1], P[2]) =
        (get(Mx, P) - get(Act, P)) * get(H, P) / (In + MpdataEps);
  });
}

/// S10: cn = (actual - mn) * h / (outflow + eps).
void kernelCn(const Array3D &Mn, const Array3D &Act, const Array3D &H,
              const Array3D &V1, const Array3D &V2, const Array3D &V3,
              Array3D &Cn, const Box3 &Region) {
  const Array3D *V[3] = {&V1, &V2, &V3};
  forRegion(Region, [&](Pt P) {
    double Center = get(Act, P);
    double Out = 0.0;
    for (int D = 0; D != 3; ++D) {
      Out += std::max(getOff(*V[D], P, D, 1), 0.0) * Center;
      Out -= std::min(get(*V[D], P), 0.0) * Center;
    }
    Cn.at(P[0], P[1], P[2]) =
        (Center - get(Mn, P)) * get(H, P) / (Out + MpdataEps);
  });
}

/// S11..S13: non-oscillatory limiting of a face velocity.
void kernelLimit(const Array3D &Cp, const Array3D &Cn, const Array3D &V,
                 Array3D &Vm, int Dim, const Box3 &Region) {
  forRegion(Region, [&](Pt P) {
    double CpHere = get(Cp, P);
    double CpLeft = getOff(Cp, P, Dim, -1);
    double CnHere = get(Cn, P);
    double CnLeft = getOff(Cn, P, Dim, -1);
    double Vel = get(V, P);
    double PosScale = std::min(1.0, std::min(CpHere, CnLeft));
    double NegScale = std::min(1.0, std::min(CpLeft, CnHere));
    Vm.at(P[0], P[1], P[2]) = PosScale * std::max(Vel, 0.0) +
                              NegScale * std::min(Vel, 0.0);
  });
}

} // namespace

KernelTable icores::buildMpdataKernels(KernelVariant Variant) {
  // One program per process, never destroyed, so each closure is small
  // enough for std::function to store inline and a table allocates
  // nothing per stage. A heap program per table, shared by 17
  // heap-allocated closures, put later executor set-ups into glibc's
  // slower heap mode (EXPERIMENTS.md, "One MPDATA backend").
  static const MpdataProgram &M = *new MpdataProgram(buildMpdataProgram());
  KernelTable Table(M.Program.numStages());
  for (unsigned S = 0; S != M.Program.numStages(); ++S)
    Table.set(static_cast<StageId>(S),
              [S, Variant](FieldStore &Fields, const Box3 &Region) {
                runMpdataStage(M, Fields, static_cast<StageId>(S), Region,
                               Variant);
              });
  return Table;
}

void icores::runMpdataStage(const MpdataProgram &M, FieldStore &Fields,
                            StageId Stage, const Box3 &Region,
                            KernelVariant Variant) {
  if (Region.empty())
    return;
  if (Variant == KernelVariant::Simd) {
    runMpdataStageSimd(M, Fields, Stage, Region);
    return;
  }
  FieldStore &F = Fields;
  if (Stage == M.SFlux1) {
    kernelFlux(F.get(M.XIn), F.get(M.U1), F.get(M.F1), 0, Region);
  } else if (Stage == M.SFlux2) {
    kernelFlux(F.get(M.XIn), F.get(M.U2), F.get(M.F2), 1, Region);
  } else if (Stage == M.SFlux3) {
    kernelFlux(F.get(M.XIn), F.get(M.U3), F.get(M.F3), 2, Region);
  } else if (Stage == M.SUpwind) {
    kernelFluxDivergence(F.get(M.XIn), F.get(M.F1), F.get(M.F2), F.get(M.F3),
                         F.get(M.H), F.get(M.Actual), Region);
  } else if (Stage == M.SMinMax) {
    kernelMinMax(F.get(M.XIn), F.get(M.Actual), F.get(M.Mx), F.get(M.Mn),
                 Region);
  } else if (Stage == M.SVel1) {
    kernelPseudoVelocity(F.get(M.Actual), F.get(M.U1), F.get(M.U2), 1,
                         F.get(M.U3), 2, F.get(M.V1), 0, Region);
  } else if (Stage == M.SVel2) {
    kernelPseudoVelocity(F.get(M.Actual), F.get(M.U2), F.get(M.U1), 0,
                         F.get(M.U3), 2, F.get(M.V2), 1, Region);
  } else if (Stage == M.SVel3) {
    kernelPseudoVelocity(F.get(M.Actual), F.get(M.U3), F.get(M.U1), 0,
                         F.get(M.U2), 1, F.get(M.V3), 2, Region);
  } else if (Stage == M.SCp) {
    kernelCp(F.get(M.Mx), F.get(M.Actual), F.get(M.H), F.get(M.V1),
             F.get(M.V2), F.get(M.V3), F.get(M.Cp), Region);
  } else if (Stage == M.SCn) {
    kernelCn(F.get(M.Mn), F.get(M.Actual), F.get(M.H), F.get(M.V1),
             F.get(M.V2), F.get(M.V3), F.get(M.Cn), Region);
  } else if (Stage == M.SLim1) {
    kernelLimit(F.get(M.Cp), F.get(M.Cn), F.get(M.V1), F.get(M.V1m), 0,
                Region);
  } else if (Stage == M.SLim2) {
    kernelLimit(F.get(M.Cp), F.get(M.Cn), F.get(M.V2), F.get(M.V2m), 1,
                Region);
  } else if (Stage == M.SLim3) {
    kernelLimit(F.get(M.Cp), F.get(M.Cn), F.get(M.V3), F.get(M.V3m), 2,
                Region);
  } else if (Stage == M.SGFlux1) {
    kernelFlux(F.get(M.Actual), F.get(M.V1m), F.get(M.G1), 0, Region);
  } else if (Stage == M.SGFlux2) {
    kernelFlux(F.get(M.Actual), F.get(M.V2m), F.get(M.G2), 1, Region);
  } else if (Stage == M.SGFlux3) {
    kernelFlux(F.get(M.Actual), F.get(M.V3m), F.get(M.G3), 2, Region);
  } else if (Stage == M.SOut) {
    kernelFluxDivergence(F.get(M.Actual), F.get(M.G1), F.get(M.G2),
                         F.get(M.G3), F.get(M.H), F.get(M.XOut), Region);
  } else {
    ICORES_UNREACHABLE("unknown MPDATA stage id");
  }
}
