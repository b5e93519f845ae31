//===- tests/grid_test.cpp - Box3/Array3D/Domain unit tests ---------------===//

#include "grid/Array3D.h"
#include "grid/Box3.h"
#include "grid/Domain.h"
#include "support/MathUtil.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

using namespace icores;

TEST(Box3Test, ExtentsAndPoints) {
  Box3 B(0, 0, 0, 4, 3, 2);
  EXPECT_EQ(B.extent(0), 4);
  EXPECT_EQ(B.extent(1), 3);
  EXPECT_EQ(B.extent(2), 2);
  EXPECT_EQ(B.numPoints(), 24);
  EXPECT_FALSE(B.empty());
}

TEST(Box3Test, EmptyBoxes) {
  Box3 Default;
  EXPECT_TRUE(Default.empty());
  EXPECT_EQ(Default.numPoints(), 0);
  Box3 Inverted(3, 0, 0, 1, 5, 5);
  EXPECT_TRUE(Inverted.empty());
  EXPECT_EQ(Inverted.numPoints(), 0);
}

TEST(Box3Test, Contains) {
  Box3 B(-2, 0, 0, 2, 4, 4);
  EXPECT_TRUE(B.contains(-2, 0, 0));
  EXPECT_TRUE(B.contains(1, 3, 3));
  EXPECT_FALSE(B.contains(2, 0, 0)); // Hi is exclusive.
  EXPECT_FALSE(B.contains(-3, 0, 0));
}

TEST(Box3Test, ContainsBox) {
  Box3 Outer(0, 0, 0, 10, 10, 10);
  EXPECT_TRUE(Outer.containsBox(Box3(2, 2, 2, 8, 8, 8)));
  EXPECT_TRUE(Outer.containsBox(Outer));
  EXPECT_FALSE(Outer.containsBox(Box3(-1, 0, 0, 5, 5, 5)));
  EXPECT_TRUE(Outer.containsBox(Box3())); // Empty fits everywhere.
}

TEST(Box3Test, Intersect) {
  Box3 A(0, 0, 0, 6, 6, 6);
  Box3 B(4, -2, 3, 10, 4, 9);
  Box3 I = A.intersect(B);
  EXPECT_EQ(I, Box3(4, 0, 3, 6, 4, 6));
  Box3 Disjoint(10, 10, 10, 12, 12, 12);
  EXPECT_TRUE(A.intersect(Disjoint).empty());
}

TEST(Box3Test, UnionWith) {
  Box3 A(0, 0, 0, 2, 2, 2);
  Box3 B(5, 1, 0, 6, 3, 2);
  Box3 U = A.unionWith(B);
  EXPECT_EQ(U, Box3(0, 0, 0, 6, 3, 2));
  EXPECT_EQ(A.unionWith(Box3()), A);
  EXPECT_EQ(Box3().unionWith(B), B);
}

TEST(Box3Test, GrownAndShifted) {
  Box3 B(0, 0, 0, 4, 4, 4);
  EXPECT_EQ(B.grown(0, 2, 3), Box3(-2, 0, 0, 7, 4, 4));
  EXPECT_EQ(B.grownAll(1), Box3(-1, -1, -1, 5, 5, 5));
  EXPECT_EQ(B.shifted(1, -1, 2), Box3(1, -1, 2, 5, 3, 6));
}

TEST(Box3Test, StringRendering) {
  EXPECT_EQ(Box3(0, 1, 2, 3, 4, 5).str(), "[0,3)x[1,4)x[2,5)");
}

TEST(Array3DTest, ZeroInitializedAndWritable) {
  Array3D A(Box3(-1, -1, -1, 3, 3, 3));
  EXPECT_EQ(A.numElements(), 64);
  EXPECT_EQ(A.at(-1, -1, -1), 0.0);
  A.at(2, 2, 2) = 7.5;
  EXPECT_EQ(A.at(2, 2, 2), 7.5);
}

TEST(Array3DTest, NegativeIndexAddressing) {
  Array3D A(Box3(-2, 0, 0, 2, 2, 2));
  A.at(-2, 0, 0) = 1.0;
  A.at(1, 1, 1) = 2.0;
  EXPECT_EQ(A.at(-2, 0, 0), 1.0);
  EXPECT_EQ(A.at(1, 1, 1), 2.0);
  EXPECT_EQ(A.sizeInBytes(), 4 * 2 * 2 * 8);
}

TEST(Array3DTest, FillAndSum) {
  Array3D A(Box3::fromExtents(3, 3, 3));
  A.fill(2.0);
  EXPECT_DOUBLE_EQ(A.sumRegion(Box3::fromExtents(3, 3, 3)), 54.0);
  EXPECT_DOUBLE_EQ(A.sumRegion(Box3(0, 0, 0, 1, 1, 1)), 2.0);
}

TEST(Array3DTest, CopyRegionAndMaxDiff) {
  Box3 Space = Box3::fromExtents(4, 4, 4);
  Array3D A(Space), B(Space);
  A.fill(1.0);
  B.fill(3.0);
  Box3 Inner(1, 1, 1, 3, 3, 3);
  A.copyRegionFrom(B, Inner);
  EXPECT_DOUBLE_EQ(A.at(1, 1, 1), 3.0);
  EXPECT_DOUBLE_EQ(A.at(0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(A.maxAbsDiff(B, Inner), 0.0);
  EXPECT_DOUBLE_EQ(A.maxAbsDiff(B, Space), 2.0);
}

TEST(Array3DTest, DataIs64ByteAligned) {
  for (const Box3 &Space :
       {Box3::fromExtents(3, 5, 7), Box3(-2, -2, -2, 9, 9, 9)}) {
    Array3D A(Space);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(A.data()) %
                  Array3D::DataAlignment,
              0u);
    Array3D P(Space, Array3D::VectorPadK);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P.data()) %
                  Array3D::DataAlignment,
              0u);
  }
}

TEST(Array3DTest, PaddedStridesAndRowAlignment) {
  // 4 x 3 x 5: rows of 5 doubles pad to 8 (one cache line).
  Box3 Space(-1, -1, -1, 3, 2, 4);
  Array3D A(Space, Array3D::VectorPadK);
  EXPECT_EQ(A.padK(), Array3D::VectorPadK);
  EXPECT_EQ(A.strideJ(), 8);
  EXPECT_EQ(A.strideI(), 3 * 8);
  // Logical sizes ignore padding; paddedBytes() exposes it.
  EXPECT_EQ(A.numElements(), 4 * 3 * 5);
  EXPECT_EQ(A.sizeInBytes(), 4 * 3 * 5 * 8);
  EXPECT_EQ(A.paddedBytes(), 4 * 3 * 8 * 8);
  // Every (i, j, lo-k) row start lands on a 64-byte boundary.
  for (int I = Space.Lo[0]; I != Space.Hi[0]; ++I)
    for (int J = Space.Lo[1]; J != Space.Hi[1]; ++J)
      EXPECT_EQ(reinterpret_cast<uintptr_t>(
                    A.pointerTo(I, J, Space.Lo[2])) %
                    Array3D::DataAlignment,
                0u);
  // Addressing round-trips under the padded layout.
  A.at(2, 1, 3) = 4.5;
  A.at(-1, -1, -1) = 1.5;
  EXPECT_EQ(A.at(2, 1, 3), 4.5);
  EXPECT_EQ(A.at(-1, -1, -1), 1.5);
  // A row that is already a multiple of the pad gains no padding.
  Array3D B(Box3::fromExtents(2, 2, 16), Array3D::VectorPadK);
  EXPECT_EQ(B.strideJ(), 16);
  EXPECT_EQ(B.paddedBytes(), B.sizeInBytes());
}

TEST(Array3DTest, PaddedAndUnpaddedAgree) {
  Box3 Space(-1, 0, -2, 4, 3, 9);
  Array3D A(Space), P(Space, Array3D::VectorPadK);
  double V = 0.0;
  for (int I = Space.Lo[0]; I != Space.Hi[0]; ++I)
    for (int J = Space.Lo[1]; J != Space.Hi[1]; ++J)
      for (int K = Space.Lo[2]; K != Space.Hi[2]; ++K) {
        A.at(I, J, K) = V;
        P.at(I, J, K) = V;
        V += 1.0;
      }
  EXPECT_EQ(A.maxAbsDiff(P, Space), 0.0);
  EXPECT_DOUBLE_EQ(A.sumRegion(Space), P.sumRegion(Space));
}

TEST(Array3DTest, ResetReusesAllocationAndZeroes) {
  Box3 Space = Box3::fromExtents(4, 4, 4);
  Array3D A(Space);
  const double *Before = A.data();
  A.fill(9.0);
  A.reset(Space);
  EXPECT_EQ(A.data(), Before); // Same shape: no reallocation.
  EXPECT_EQ(A.at(3, 3, 3), 0.0);
  A.reset(Box3::fromExtents(2, 2, 2));
  EXPECT_EQ(A.numElements(), 8);
}

TEST(Array3DTest, RebasePlanesMovesTheIndexSpaceNotTheStorage) {
  Array3D A(Box3(2, -1, 0, 5, 3, 3), Array3D::VectorPadK);
  A.at(3, 1, 2) = 7.0;
  const double *Before = A.data();
  const int64_t StrideI = A.strideI();
  A.rebasePlanes(10);
  EXPECT_EQ(A.indexSpace(), Box3(10, -1, 0, 13, 3, 3));
  EXPECT_EQ(A.data(), Before);
  EXPECT_EQ(A.strideI(), StrideI);
  EXPECT_EQ(A.at(11, 1, 2), 7.0); // Buffer plane 1 is now logical plane 11.
}

TEST(Array3DTest, FillRegionWritesOnlyTheRegion) {
  Array3D A(Box3::fromExtents(4, 4, 4), Array3D::VectorPadK);
  A.fill(1.0);
  A.fillRegion(Box3(1, 1, 1, 3, 3, 3), 8.0);
  EXPECT_EQ(A.at(1, 1, 1), 8.0);
  EXPECT_EQ(A.at(2, 2, 2), 8.0);
  EXPECT_EQ(A.at(0, 0, 0), 1.0);
  EXPECT_EQ(A.at(3, 3, 3), 1.0);
  EXPECT_DOUBLE_EQ(A.sumRegion(Box3::fromExtents(4, 4, 4)),
                   56.0 + 8 * 8.0);
}

TEST(Array3DTest, CopyRegionBetweenPaddedAndUnpadded) {
  Box3 Space = Box3::fromExtents(4, 4, 5);
  Array3D A(Space, Array3D::VectorPadK), B(Space);
  double V = 0.0;
  for (int I = 0; I != 4; ++I)
    for (int J = 0; J != 4; ++J)
      for (int K = 0; K != 5; ++K)
        B.at(I, J, K) = ++V;
  A.copyRegionFrom(B, Space);
  EXPECT_EQ(A.maxAbsDiff(B, Space), 0.0);
  // Self-copy is the identity.
  A.copyRegionFrom(A, Box3(1, 1, 1, 3, 3, 4));
  EXPECT_EQ(A.maxAbsDiff(B, Space), 0.0);
}

TEST(DomainTest, Boxes) {
  Domain D(8, 6, 4, 2);
  EXPECT_EQ(D.coreBox(), Box3::fromExtents(8, 6, 4));
  EXPECT_EQ(D.allocBox(), Box3(-2, -2, -2, 10, 8, 6));
  EXPECT_EQ(D.numCells(), 8 * 6 * 4);
}

TEST(DomainTest, WrapIndex) {
  EXPECT_EQ(Domain::wrapIndex(0, 8), 0);
  EXPECT_EQ(Domain::wrapIndex(-1, 8), 7);
  EXPECT_EQ(Domain::wrapIndex(8, 8), 0);
  EXPECT_EQ(Domain::wrapIndex(-9, 8), 7);
  EXPECT_EQ(Domain::wrapIndex(17, 8), 1);
}

TEST(DomainTest, PeriodicHaloMustNotBeDeeperThanTheDomain) {
  EXPECT_EQ(Domain(4, 4, 2, 2).checkHalo(), "");
  EXPECT_EQ(Domain(4, 4, 1, 2).checkHalo(),
            "grid 4x4x1 is shallower than its periodic halo depth 2: the "
            "wrap would alias twice");
  // A clamped halo reads the nearest core cell however deep it is.
  EXPECT_EQ(Domain(4, 4, 1, 2, BoundaryMode::ZeroGradient).checkHalo(), "");
}

TEST(DomainTest, PeriodicHaloFill) {
  Domain D(4, 4, 4, 2);
  Array3D A(D.allocBox());
  Box3 Core = D.coreBox();
  // Unique value per core cell.
  for (int I = 0; I != 4; ++I)
    for (int J = 0; J != 4; ++J)
      for (int K = 0; K != 4; ++K)
        A.at(I, J, K) = I * 100 + J * 10 + K;
  D.fillHalo(A);
  // Every alloc-box cell equals its wrapped core cell.
  Box3 Alloc = D.allocBox();
  for (int I = Alloc.Lo[0]; I != Alloc.Hi[0]; ++I)
    for (int J = Alloc.Lo[1]; J != Alloc.Hi[1]; ++J)
      for (int K = Alloc.Lo[2]; K != Alloc.Hi[2]; ++K)
        EXPECT_EQ(A.at(I, J, K),
                  A.at(Domain::wrapIndex(I, 4), Domain::wrapIndex(J, 4),
                       Domain::wrapIndex(K, 4)));
  (void)Core;
}

TEST(DomainTest, HaloFillPreservesCore) {
  Domain D(5, 3, 3, 1);
  Array3D A(D.allocBox());
  for (int I = 0; I != 5; ++I)
    for (int J = 0; J != 3; ++J)
      for (int K = 0; K != 3; ++K)
        A.at(I, J, K) = 1.0 + I + J + K;
  Array3D Before(D.allocBox());
  Before.copyRegionFrom(A, D.coreBox());
  D.fillHalo(A);
  EXPECT_DOUBLE_EQ(A.maxAbsDiff(Before, D.coreBox()), 0.0);
}

namespace {

/// One halo-image sweep case: a domain whose core cells hold distinct
/// values and whose halo cells (pads untouched) all hold a NaN poison.
struct ImageCase {
  Domain Dom;
  Array3D Start;
  Array3D Full; ///< Start after one full fillHalo().

  explicit ImageCase(const Domain &D)
      : Dom(D), Start(D.allocBox(), Array3D::VectorPadK) {
    const double Poison = std::numeric_limits<double>::quiet_NaN();
    Box3 Alloc = D.allocBox();
    for (int I = Alloc.Lo[0]; I != Alloc.Hi[0]; ++I)
      for (int J = Alloc.Lo[1]; J != Alloc.Hi[1]; ++J)
        for (int K = Alloc.Lo[2]; K != Alloc.Hi[2]; ++K)
          Start.at(I, J, K) = D.coreBox().contains(I, J, K)
                                  ? 1.0 + I * 10000 + J * 100 + K
                                  : Poison;
    Full = Start;
    D.fillHalo(Full);
  }

  std::string name(uint64_t Seed) const {
    return (Dom.boundaryMode() == BoundaryMode::Periodic ? "periodic "
                                                         : "zero-gradient ") +
           std::to_string(Dom.ni()) + "x" + std::to_string(Dom.nj()) + "x" +
           std::to_string(Dom.nk()) + " halo " +
           std::to_string(Dom.haloDepth()) + ", partition " +
           std::to_string(Seed);
  }
};

/// Both boundary modes x halo depths 1-3 x odd extents, each axis once
/// equal to the halo depth; zero-gradient also on one-cell axes.
std::vector<Domain> imageDomains() {
  std::vector<Domain> Out;
  for (BoundaryMode Mode :
       {BoundaryMode::Periodic, BoundaryMode::ZeroGradient})
    for (int H = 1; H <= 3; ++H) {
      Out.emplace_back(H, 5, 7, H, Mode);
      Out.emplace_back(7, H, 5, H, Mode);
      Out.emplace_back(5, 7, H, H, Mode);
      Out.emplace_back(9, 3, 5, H, Mode);
      if (Mode == BoundaryMode::ZeroGradient) {
        Out.emplace_back(1, 4, 3, H, Mode);
        Out.emplace_back(3, 1, 1, H, Mode);
      }
    }
  return Out;
}

/// A random partition of \p Core into boxes: guillotine cuts at random
/// positions of random axes, each part split at most \p Depth times.
void randomPartition(const Box3 &Core, SplitMix64 &Rng, int Depth,
                     std::vector<Box3> &Parts) {
  const int Dim = static_cast<int>(Rng.nextBounded(3));
  const int Extent = Core.extent(Dim);
  if (Depth == 0 || Extent < 2 || Rng.nextBounded(4) == 0) {
    Parts.push_back(Core);
    return;
  }
  const int Cut =
      Core.Lo[Dim] + 1 + static_cast<int>(Rng.nextBounded(
                             static_cast<uint64_t>(Extent - 1)));
  Box3 Lo = Core, Hi = Core;
  Lo.Hi[Dim] = Cut;
  Hi.Lo[Dim] = Cut;
  randomPartition(Lo, Rng, Depth - 1, Parts);
  randomPartition(Hi, Rng, Depth - 1, Parts);
}

constexpr uint64_t NumPartitions = 12;

} // namespace

TEST(DomainTest, ImagesOfAPartitionUnionToTheFullFillBitForBit) {
  // Every part runs on its own thread, as the executor's shares do.
  for (const Domain &D : imageDomains()) {
    ImageCase C(D);
    for (uint64_t Seed = 0; Seed != NumPartitions; ++Seed) {
      SplitMix64 Rng(Seed);
      std::vector<Box3> Parts;
      randomPartition(D.coreBox(), Rng, 4, Parts);
      // Each halo cell is the image of exactly one part's cell.
      int64_t Images = 0;
      for (const Box3 &Part : Parts)
        for (const Box3 &Image : D.haloImages(Part))
          Images += Image.numPoints();
      EXPECT_EQ(Images, D.allocBox().numPoints() - D.coreBox().numPoints())
          << C.name(Seed);
      Array3D Union = C.Start;
      std::vector<std::thread> Workers;
      for (const Box3 &Part : Parts)
        Workers.emplace_back(
            [&D, &Union, Part] { D.writeImages(Union, Part); });
      for (std::thread &W : Workers)
        W.join();
      EXPECT_EQ(std::memcmp(Union.data(), C.Full.data(),
                            static_cast<size_t>(C.Full.paddedBytes())),
                0)
          << C.name(Seed);
    }
  }
}

TEST(DomainTest, ImagesWriteOnlyTheHaloOfTheirOwnCells) {
  for (const Domain &D : imageDomains()) {
    ImageCase C(D);
    const Box3 Alloc = D.allocBox();
    for (uint64_t Seed = 0; Seed != NumPartitions; ++Seed) {
      SplitMix64 Rng(Seed);
      std::vector<Box3> Parts;
      randomPartition(D.coreBox(), Rng, 4, Parts);
      for (const Box3 &Part : Parts) {
        Array3D One = C.Start;
        D.writeImages(One, Part);
        // Exactly the halo cells whose source cell lies in the part
        // change, each to its full-fill value.
        Array3D Want = C.Start;
        for (int I = Alloc.Lo[0]; I != Alloc.Hi[0]; ++I)
          for (int J = Alloc.Lo[1]; J != Alloc.Hi[1]; ++J)
            for (int K = Alloc.Lo[2]; K != Alloc.Hi[2]; ++K)
              if (!D.coreBox().contains(I, J, K) &&
                  Part.contains(D.boundarySource(I, D.ni()),
                                D.boundarySource(J, D.nj()),
                                D.boundarySource(K, D.nk())))
                Want.at(I, J, K) = C.Full.at(I, J, K);
        EXPECT_EQ(std::memcmp(One.data(), Want.data(),
                              static_cast<size_t>(Want.paddedBytes())),
                  0)
            << C.name(Seed) << ", part " << Part.str();
      }
    }
  }
}
