//===- grid/Array3D.cpp - Dense 3D array over a Box3 ----------------------===//

#include "grid/Array3D.h"

#include "support/Error.h"

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace icores;

void Array3D::fillRegion(const Box3 &Region, double Value) {
  ICORES_CHECK(Space.containsBox(Region), "fillRegion outside index space");
  if (Region.empty())
    return;
  const size_t RunLength = static_cast<size_t>(Region.extent(2));
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J)
      std::fill_n(pointerTo(I, J, Region.Lo[2]), RunLength, Value);
}

void Array3D::copyRegionFrom(const Array3D &Src, const Box3 &Region) {
  ICORES_CHECK(Space.containsBox(Region) &&
                   Src.indexSpace().containsBox(Region),
               "copyRegionFrom region not covered by both arrays");
  if (Region.empty())
    return;
  // k is unit-stride within a row in both arrays (padding only ever adds
  // tail elements), so each (i, j) row copies as one contiguous run.
  // memmove, not memcpy: a self-copy passes identical row pointers.
  const size_t RunBytes =
      static_cast<size_t>(Region.extent(2)) * sizeof(double);
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J)
      std::memmove(pointerTo(I, J, Region.Lo[2]),
                   Src.pointerTo(I, J, Region.Lo[2]), RunBytes);
}

double Array3D::sumRegion(const Box3 &Region) const {
  ICORES_CHECK(Space.containsBox(Region), "sumRegion outside index space");
  double Sum = 0.0;
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J)
      for (int K = Region.Lo[2]; K != Region.Hi[2]; ++K)
        Sum += at(I, J, K);
  return Sum;
}

double Array3D::maxAbsDiff(const Array3D &Other, const Box3 &Region) const {
  ICORES_CHECK(Space.containsBox(Region) &&
                   Other.indexSpace().containsBox(Region),
               "maxAbsDiff region not covered by both arrays");
  double Max = 0.0;
  for (int I = Region.Lo[0]; I != Region.Hi[0]; ++I)
    for (int J = Region.Lo[1]; J != Region.Hi[1]; ++J)
      for (int K = Region.Lo[2]; K != Region.Hi[2]; ++K)
        Max = std::max(Max, std::fabs(at(I, J, K) - Other.at(I, J, K)));
  return Max;
}
