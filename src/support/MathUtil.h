//===- support/MathUtil.h - Small integer math helpers ----------*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Integer helpers shared by partitioners and the block planner.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_SUPPORT_MATHUTIL_H
#define ICORES_SUPPORT_MATHUTIL_H

#include <cassert>
#include <cstdint>

namespace icores {

/// Returns ceil(A / B) for positive integers.
constexpr int64_t ceilDiv(int64_t A, int64_t B) {
  assert(B > 0 && "ceilDiv by non-positive divisor");
  return (A + B - 1) / B;
}

/// Splits \p Total into \p Parts nearly equal chunks; returns the size of
/// chunk \p Index (first Total % Parts chunks get one extra element).
constexpr int64_t chunkSize(int64_t Total, int64_t Parts, int64_t Index) {
  assert(Parts > 0 && Index >= 0 && Index < Parts && "bad chunk request");
  int64_t Base = Total / Parts;
  int64_t Extra = Total % Parts;
  return Base + (Index < Extra ? 1 : 0);
}

/// Returns the start offset of chunk \p Index under chunkSize() splitting.
constexpr int64_t chunkBegin(int64_t Total, int64_t Parts, int64_t Index) {
  assert(Parts > 0 && Index >= 0 && Index <= Parts && "bad chunk request");
  int64_t Base = Total / Parts;
  int64_t Extra = Total % Parts;
  return Base * Index + (Index < Extra ? Index : Extra);
}

} // namespace icores

#endif // ICORES_SUPPORT_MATHUTIL_H
