//===- tests/kernel_variants_test.cpp - Kernel backend equivalence --------===//
//
// The Simd contiguous-restrict kernels must be bit-identical to the
// reference kernels: same floating-point expression order, different
// loop machinery. Property-tested per stage over random fields and k
// extents 1-9, 16, 17, 24 and 25 — both unpadded and vector-padded
// storage (via TestMatrix's fillStorePairRandom) — and over whole
// multi-step runs through the registered workload's serial stepper.
//
//===----------------------------------------------------------------------===//

#include "TestMatrix.h"

#include "apps/Workloads.h"
#include "mpdata/Kernels.h"
#include "mpdata/MpdataProgram.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

using namespace icores;

namespace {

class KernelVariantEquality
    : public ::testing::TestWithParam<std::tuple<int, KernelVariant>> {};

} // namespace

TEST_P(KernelVariantEquality, MatchesReferenceBitExactly) {
  MpdataProgram M = buildMpdataProgram();
  StageId Stage = std::get<0>(GetParam());
  KernelVariant Variant = std::get<1>(GetParam());
  // Deliberately awkward extents (odd, small) to stress row handling.
  // Every k extent from 1 to 9, plus 16, 17, 24 and 25, so each vector
  // width's main loop, epilogue and scalar tail run: 2-wide (baseline),
  // 4-wide (AVX2 clone) and 8-wide (AVX-512F clone) loops leave different
  // remainders.
  for (int NK : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 24, 25}) {
    SCOPED_TRACE("k extent " + std::to_string(NK));
    Box3 Target(1, 2, 3, 8, 9, 3 + NK);
    Box3 Alloc = Target.grownAll(4);

    // \p Var gets vector-padded rows so the comparison also proves
    // padding does not change results.
    FieldStore Ref(M.Program.numArrays());
    FieldStore Var(M.Program.numArrays());
    fillStorePairRandom(M.Program, Alloc,
                        0xC0FFEE + static_cast<uint64_t>(Stage), Ref, Var,
                        [&](ArrayId Id) {
                          bool IsVelocity =
                              Id == M.U1 || Id == M.U2 || Id == M.U3;
                          return IsVelocity
                                     ? std::make_pair(-0.4, 0.4)
                                     : std::make_pair(0.05, 1.5);
                        });

    runMpdataStage(M, Ref, Stage, Target, KernelVariant::Reference);
    runMpdataStage(M, Var, Stage, Target, Variant);

    for (ArrayId Out : M.Program.stage(Stage).Outputs) {
      EXPECT_EQ(Var.get(Out).maxAbsDiff(Ref.get(Out), Target), 0.0)
          << "stage " << M.Program.stage(Stage).Name << " variant "
          << kernelVariantName(Variant);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStages, KernelVariantEquality,
    ::testing::Combine(::testing::Range(0, 17),
                       ::testing::Values(KernelVariant::Simd)),
    [](const ::testing::TestParamInfo<std::tuple<int, KernelVariant>>
           &Info) {
      MpdataProgram M = buildMpdataProgram();
      return M.Program.stage(std::get<0>(Info.param)).Name + "_" +
             kernelVariantName(std::get<1>(Info.param));
    });

TEST(KernelVariantsTest, WholeRunMatchesAcrossVariants) {
  // Every backend a registered workload advertises must agree with its
  // reference backend over a whole seeded multi-step serial run.
  for (const WorkloadSpec &Spec : builtinWorkloads().workloads()) {
    Domain Dom = workloadDomain(Spec, 18, 14, 10);
    auto Ref = serialOracle(Spec, Dom, 5, /*Seed=*/99,
                            KernelVariant::Reference);
    for (KernelVariant V : Spec.Variants) {
      if (V == KernelVariant::Reference)
        continue;
      auto Run = serialOracle(Spec, Dom, 5, /*Seed=*/99, V);
      EXPECT_EQ(
          maxNewestStateDiff(Spec.Program, *Run, *Ref, Dom.coreBox()), 0.0)
          << Spec.Name << " variant " << kernelVariantName(V);
      EXPECT_TRUE(reductionHistoriesMatch(Spec.Program, *Run, *Ref))
          << Spec.Name << " variant " << kernelVariantName(V);
    }
  }
}

TEST(KernelVariantsTest, EmptyRegionIsANoOpForBothVariants) {
  MpdataProgram M = buildMpdataProgram();
  FieldStore Fields(M.Program.numArrays());
  for (unsigned Id = 0; Id != M.Program.numArrays(); ++Id)
    Fields.allocateOwned(static_cast<ArrayId>(Id), Box3::fromExtents(4, 4, 4));
  Fields.get(M.F1).fill(3.0);
  runMpdataStage(M, Fields, M.SFlux1, Box3(), KernelVariant::Simd);
  EXPECT_EQ(Fields.get(M.F1).at(0, 0, 0), 3.0);
}
