//===- tests/app_kernels_test.cpp - Row kernels vs their at() spec --------===//
//
// The advdiff, hotspot and cfl-advect stage kernels walk (i, j) rows with
// hoisted pointers and take each neighbour as a fixed offset from the
// operand's own stride. This file keeps the element-wise at()-indexed
// loops they replaced as the executable spec, and checks every registered
// stage against it bit for bit: the whole physical storage of every array
// (pads and cells outside the region included) must match after one call
// on identically filled stores. The layouts vary what a row kernel could
// get wrong — negative index spaces, padded and unpadded rows, operands
// with different strides, a buffer moved with rebasePlanes — and the
// k-extents cover vector tails.
//
// The last case runs advdiff islands at T = 4 on a grid whose k-extent is
// smaller than the epoch cone, so each import row wraps through the
// periodic core more than once, and checks it bit-exact against the
// serial stepper.
//
// Compiled with -ffp-contract=off (tests/CMakeLists.txt), like the kernel
// TUs, so the spec rounds exactly as written.
//
//===----------------------------------------------------------------------===//

#include "TestMatrix.h"

#include "apps/AdvectionDiffusion.h"
#include "apps/CflAdvection.h"
#include "apps/Hotspot.h"
#include "apps/Workloads.h"
#include "core/PlanVerifier.h"
#include "exec/ExecObserver.h"
#include "grid/Domain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>

using namespace icores;

namespace {

//===----------------------------------------------------------------------===//
// The spec: element-wise at() kernels, one namespace per app.
//===----------------------------------------------------------------------===//

namespace advdiff_spec {

/// Computes one flux stage over \p Region.
void kernelFlux(const Array3D &State, const Array3D &U, const Array3D &Kappa,
                Array3D &F, int Dim, const Box3 &Region) {
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J)
      for (int K = Region.Lo[2]; K != Region.Hi[2]; ++K) {
        int IL = Dim == 0 ? I - 1 : I;
        int JL = Dim == 1 ? J - 1 : J;
        int KL = Dim == 2 ? K - 1 : K;
        double L = State.at(IL, JL, KL);
        double R = State.at(I, J, K);
        double Vel = U.at(I, J, K);
        double KFace = 0.5 * (Kappa.at(IL, JL, KL) + Kappa.at(I, J, K));
        F.at(I, J, K) = std::max(Vel, 0.0) * L + std::min(Vel, 0.0) * R -
                        KFace * (R - L);
      }
}

/// Computes one divergence update over \p Region.
void kernelUpdate(const Array3D &Phi, const Array3D &F1, const Array3D &F2,
                  const Array3D &F3, double Scale, Array3D &Out,
                  const Box3 &Region) {
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J)
      for (int K = Region.Lo[2]; K != Region.Hi[2]; ++K) {
        double Div = F1.at(I + 1, J, K) - F1.at(I, J, K) +
                     F2.at(I, J + 1, K) - F2.at(I, J, K) +
                     F3.at(I, J, K + 1) - F3.at(I, J, K);
        Out.at(I, J, K) = Phi.at(I, J, K) - Scale * Div;
      }
}

KernelTable buildKernels() {
  auto A = std::make_shared<const AdvDiffProgram>(buildAdvDiffProgram());
  KernelTable Table(A->Program.numStages());

  auto setFlux = [&](StageId Stage, ArrayId State, ArrayId Out, ArrayId Vel,
                     int Dim) {
    Table.set(Stage, [A, State, Out, Vel, Dim](FieldStore &F,
                                               const Box3 &Region) {
      kernelFlux(F.get(State), F.get(Vel), F.get(A->Kappa), F.get(Out), Dim,
                 Region);
    });
  };
  auto setUpdate = [&](StageId Stage, ArrayId Out, ArrayId FF1, ArrayId FF2,
                       ArrayId FF3, double Scale) {
    Table.set(Stage, [A, Out, FF1, FF2, FF3, Scale](FieldStore &F,
                                                    const Box3 &Region) {
      kernelUpdate(F.get(A->Phi), F.get(FF1), F.get(FF2), F.get(FF3), Scale,
                   F.get(Out), Region);
    });
  };

  setFlux(A->SFlux1, A->Phi, A->F1, A->U1, 0);
  setFlux(A->SFlux2, A->Phi, A->F2, A->U2, 1);
  setFlux(A->SFlux3, A->Phi, A->F3, A->U3, 2);
  setUpdate(A->SHalf, A->Half, A->F1, A->F2, A->F3, 0.5);
  setFlux(A->SGFlux1, A->Half, A->G1, A->U1, 0);
  setFlux(A->SGFlux2, A->Half, A->G2, A->U2, 1);
  setFlux(A->SGFlux3, A->Half, A->G3, A->U3, 2);
  setUpdate(A->SOut, A->PhiOut, A->G1, A->G2, A->G3, 1.0);
  return Table;
}

} // namespace advdiff_spec

namespace hotspot_spec {

/// Lower-face temperature difference along \p Dim over \p Region.
void kernelGrad(const Array3D &T, Array3D &G, int Dim, const Box3 &Region) {
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J)
      for (int K = Region.Lo[2]; K != Region.Hi[2]; ++K) {
        int IL = Dim == 0 ? I - 1 : I;
        int JL = Dim == 1 ? J - 1 : J;
        int KL = Dim == 2 ? K - 1 : K;
        G.at(I, J, K) = T.at(I, J, K) - T.at(IL, JL, KL);
      }
}

/// Thermal update over \p Region.
void kernelUpdate(const Array3D &T, const Array3D &Power, const Array3D &G1,
                  const Array3D &G2, const Array3D &G3, Array3D &Out,
                  const Box3 &Region) {
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J)
      for (int K = Region.Lo[2]; K != Region.Hi[2]; ++K) {
        double Div = G1.at(I + 1, J, K) - G1.at(I, J, K) +
                     G2.at(I, J + 1, K) - G2.at(I, J, K) +
                     G3.at(I, J, K + 1) - G3.at(I, J, K);
        Out.at(I, J, K) = T.at(I, J, K) + HotspotCd * Div +
                          HotspotCp * Power.at(I, J, K) +
                          HotspotCr * (HotspotTamb - T.at(I, J, K));
      }
}

KernelTable buildKernels() {
  auto A = std::make_shared<const HotspotProgram>(buildHotspotProgram());
  KernelTable Table(A->Program.numStages());

  auto setGrad = [&](StageId Stage, ArrayId Out, int Dim) {
    Table.set(Stage, [A, Out, Dim](FieldStore &F, const Box3 &Region) {
      kernelGrad(F.get(A->T), F.get(Out), Dim, Region);
    });
  };
  setGrad(A->SGrad1, A->G1, 0);
  setGrad(A->SGrad2, A->G2, 1);
  setGrad(A->SGrad3, A->G3, 2);

  Table.set(A->SOut, [A](FieldStore &F, const Box3 &Region) {
    kernelUpdate(F.get(A->T), F.get(A->Power), F.get(A->G1), F.get(A->G2),
                 F.get(A->G3), F.get(A->TOut), Region);
  });
  return Table;
}

} // namespace hotspot_spec

namespace cfl_spec {

/// Donor-cell flux through the lower face along \p Dim over \p Region.
void kernelFlux(const Array3D &Q, const Array3D &U, Array3D &F, int Dim,
                const Box3 &Region) {
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J)
      for (int K = Region.Lo[2]; K != Region.Hi[2]; ++K) {
        int IL = Dim == 0 ? I - 1 : I;
        int JL = Dim == 1 ? J - 1 : J;
        int KL = Dim == 2 ? K - 1 : K;
        double Vel = U.at(I, J, K);
        F.at(I, J, K) = std::max(Vel, 0.0) * Q.at(IL, JL, KL) +
                        std::min(Vel, 0.0) * Q.at(I, J, K);
      }
}

/// Per-cell Courant sum over \p Region.
void kernelCourant(const Array3D &U1, const Array3D &U2, const Array3D &U3,
                   Array3D &C, const Box3 &Region) {
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J)
      for (int K = Region.Lo[2]; K != Region.Hi[2]; ++K)
        C.at(I, J, K) = std::fabs(U1.at(I, J, K)) + std::fabs(U2.at(I, J, K)) +
                        std::fabs(U3.at(I, J, K));
}

/// Divergence update over \p Region.
void kernelUpdate(const Array3D &Q, const Array3D &F1, const Array3D &F2,
                  const Array3D &F3, Array3D &Out, const Box3 &Region) {
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J)
      for (int K = Region.Lo[2]; K != Region.Hi[2]; ++K) {
        double Div = F1.at(I + 1, J, K) - F1.at(I, J, K) +
                     F2.at(I, J + 1, K) - F2.at(I, J, K) +
                     F3.at(I, J, K + 1) - F3.at(I, J, K);
        Out.at(I, J, K) = Q.at(I, J, K) - Div;
      }
}

KernelTable buildKernels() {
  auto A =
      std::make_shared<const CflAdvectionProgram>(buildCflAdvectionProgram());
  KernelTable Table(A->Program.numStages());

  auto setFlux = [&](StageId Stage, ArrayId Out, ArrayId Vel, int Dim) {
    Table.set(Stage, [A, Out, Vel, Dim](FieldStore &F, const Box3 &Region) {
      kernelFlux(F.get(A->Q), F.get(Vel), F.get(Out), Dim, Region);
    });
  };
  setFlux(A->SFlux1, A->F1, A->U1, 0);
  setFlux(A->SFlux2, A->F2, A->U2, 1);
  setFlux(A->SFlux3, A->F3, A->U3, 2);

  Table.set(A->SCourant, [A](FieldStore &F, const Box3 &Region) {
    kernelCourant(F.get(A->U1), F.get(A->U2), F.get(A->U3), F.get(A->Courant),
                  Region);
  });
  Table.set(A->SOut, [A](FieldStore &F, const Box3 &Region) {
    kernelUpdate(F.get(A->Q), F.get(A->F1), F.get(A->F2), F.get(A->F3),
                 F.get(A->QOut), Region);
  });
  return Table;
}

} // namespace cfl_spec

//===----------------------------------------------------------------------===//
// Stores and the per-stage comparison.
//===----------------------------------------------------------------------===//

/// How the arrays of a store are laid out around the region.
enum class Layout {
  Plain,  ///< Unpadded, every array over the region grown by one.
  Padded, ///< Every array with vector-padded k-rows.
  Mixed,  ///< Per-array padding and slack, so operand strides differ, and
          ///< some arrays moved to their index space with rebasePlanes.
};

const char *layoutName(Layout L) {
  switch (L) {
  case Layout::Plain:
    return "plain";
  case Layout::Padded:
    return "padded";
  case Layout::Mixed:
    return "mixed";
  }
  return "?";
}

/// Allocates every array of \p Program in \p Store around \p Region (one
/// cell of reach on each side, every stage's widest) in layout \p L, and
/// fills the whole physical storage, pads included, from \p Seed. Every
/// eighth value is a signed zero so the max/min donor-cell selects see
/// ties with 0.0.
void makeStore(const StencilProgram &Program, const Box3 &Region, Layout L,
               uint64_t Seed, FieldStore &Store) {
  SplitMix64 Rng(Seed);
  for (unsigned Id = 0; Id != Program.numArrays(); ++Id) {
    const auto A = static_cast<ArrayId>(Id);
    Box3 Space = Region.grownAll(1);
    int PadK = L == Layout::Padded ? Array3D::VectorPadK : 0;
    if (L == Layout::Mixed) {
      // Slack that grows with the id gives every array its own j-extent
      // and k-extent, so no two operands share both strides.
      const int Slack = static_cast<int>(Id);
      PadK = Id % 2 == 0 ? Array3D::VectorPadK : 0;
      Space = Space.grown(0, Slack % 3, 0)
                  .grown(1, 0, Slack)
                  .grown(2, Slack, 1);
    }
    const bool Rebase = L == Layout::Mixed && Id % 3 == 1;
    Store.allocateOwned(A, Rebase ? Space.shifted(37, 0, 0) : Space, PadK);
    Array3D &Arr = Store.get(A);
    if (Rebase)
      Arr.rebasePlanes(Space.Lo[0]);
    ASSERT_EQ(Arr.indexSpace(), Space);
    const int64_t N = Arr.paddedBytes() / static_cast<int64_t>(sizeof(double));
    for (int64_t E = 0; E != N; ++E) {
      uint64_t Bits = Rng.next();
      double V = Rng.nextInRange(-1.0, 1.0);
      if (Bits % 8 == 0)
        V = Bits % 16 == 0 ? 0.0 : -0.0;
      Arr.data()[E] = V;
    }
  }
}

/// Runs every stage of \p Program once with \p Registered and once with
/// \p Spec on identically filled stores, over regions with every k-extent
/// and (i, j) shape below in every layout, and requires the whole storage
/// of every array to match bit for bit.
void expectStagesMatchSpec(const StencilProgram &Program,
                           const KernelTable &Registered,
                           const KernelTable &Spec) {
  ASSERT_TRUE(Registered.coversProgram(Program));
  ASSERT_TRUE(Spec.coversProgram(Program));
  const int KExtents[] = {1, 3, 7, 64};
  const int IJExtents[][2] = {{1, 1}, {1, 4}, {3, 1}, {4, 5}};
  uint64_t Seed = 1;
  for (Layout L : {Layout::Plain, Layout::Padded, Layout::Mixed})
    for (int NK : KExtents)
      for (const auto &IJ : IJExtents)
        for (StageId Stage = 0;
             Stage != static_cast<StageId>(Program.numStages()); ++Stage) {
          // Negative lower corners, alternating with a positive k-corner.
          Box3 Region = Box3::fromExtents(IJ[0], IJ[1], NK)
                            .shifted(-3, -2, Seed % 2 ? -5 : 2);
          SCOPED_TRACE(std::string(layoutName(L)) + " stage " +
                       Program.stage(Stage).Name + " extents " +
                       std::to_string(IJ[0]) + "x" + std::to_string(IJ[1]) +
                       "x" + std::to_string(NK));
          FieldStore Got(Program.numArrays()), Want(Program.numArrays());
          makeStore(Program, Region, L, Seed, Got);
          makeStore(Program, Region, L, Seed, Want);
          ++Seed;
          Registered.run(Got, Stage, Region);
          Spec.run(Want, Stage, Region);
          for (unsigned Id = 0; Id != Program.numArrays(); ++Id) {
            const Array3D &G = Got.get(static_cast<ArrayId>(Id));
            const Array3D &W = Want.get(static_cast<ArrayId>(Id));
            ASSERT_EQ(G.paddedBytes(), W.paddedBytes());
            EXPECT_EQ(std::memcmp(G.data(), W.data(),
                                  static_cast<size_t>(G.paddedBytes())),
                      0)
                << "array " << Program.array(static_cast<ArrayId>(Id)).Name;
          }
        }
}

} // namespace

TEST(AppKernelsTest, AdvDiffStagesMatchTheSpec) {
  AdvDiffProgram A = buildAdvDiffProgram();
  expectStagesMatchSpec(A.Program, buildAdvDiffKernels(),
                        advdiff_spec::buildKernels());
}

TEST(AppKernelsTest, HotspotStagesMatchTheSpec) {
  HotspotProgram A = buildHotspotProgram();
  expectStagesMatchSpec(A.Program, buildHotspotKernels(),
                        hotspot_spec::buildKernels());
}

TEST(AppKernelsTest, CflAdvectionStagesMatchTheSpec) {
  CflAdvectionProgram A = buildCflAdvectionProgram();
  expectStagesMatchSpec(A.Program, buildCflAdvectionKernels(),
                        cfl_spec::buildKernels());
}

namespace {

/// Records, over every epoch import, the most contiguous source k-runs
/// one (i, j) row of an import buffer needs: one more than the number of
/// times its wrapped k-index starts over at 0.
class ImportRunCounter : public ExecObserver {
public:
  std::atomic<int> MaxRuns{0};

  void onBarrierArrive(uint64_t, int, int) override {}
  void onBarrierDepart(uint64_t, int) override {}
  void onPass(int, const StencilProgram &, FieldStore &, StageId,
              const Box3 &) override {}
  void onSlide(int, const Array3D &, const SlideShare &) override {}
  void onHaloFill(int, const Domain &, const Array3D &, int, int) override {}
  void onImport(int, const Array3D &, const Array3D &, const Box3 &Sub, int,
                int, int NK) override {
    int Runs = 1;
    for (int K = Sub.Lo[2] + 1; K < Sub.Hi[2]; ++K)
      Runs += Domain::wrapIndex(K, NK) == 0;
    int Prev = MaxRuns.load();
    while (Runs > Prev && !MaxRuns.compare_exchange_weak(Prev, Runs)) {
    }
  }
};

} // namespace

TEST(AppKernelsTest, AdvDiffEpochImportWrapsRowsThroughTheCore) {
  // nk = 6 is below advdiff's T = 4 k-cone (two cells per step on each
  // side), so an import row spans the periodic core more than twice.
  const WorkloadSpec &Spec = *builtinWorkloads().find("advdiff");
  Domain Dom = workloadDomain(Spec, 16, 10, 6);
  ExecutionPlan Plan =
      makeTestPlan(Spec.Program, Dom, Strategy::IslandsOfCores,
                   /*TemporalDepth=*/4);
  ASSERT_EQ(Plan.TemporalDepth, 4);
  PlanVerification V = verifyPlan(Plan, Spec.Program);
  ASSERT_TRUE(V.Ok) << V.FirstError;

  ImportRunCounter Counter;
  ExecutorOptions Opts;
  Opts.Observer = &Counter;
  auto Exec = makeWorkloadExecutor(Spec, Dom, std::move(Plan),
                                   KernelVariant::Reference, Opts,
                                   /*Seed=*/606);
  Exec->run(8);
  auto Oracle = serialOracle(Spec, Dom, 8, /*Seed=*/606);
  EXPECT_EQ(maxNewestStateDiff(Spec.Program, *Exec, *Oracle, Dom.coreBox()),
            0.0);
  EXPECT_GE(Counter.MaxRuns.load(), 3);
}
