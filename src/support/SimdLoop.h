//===- support/SimdLoop.h - Vectorization tag for k-inner loops -*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ICORES_SIMD_LOOP marks a unit-stride k-inner loop that must vectorize.
/// On clang the pragma makes the loop report through
/// -Rpass=loop-vectorize (and fail the build under -Werror=pass-failed
/// when it does not vectorize); GCC gets the equivalent
/// no-loop-carried-dependence assertion. Only tag loops whose stores never
/// alias their loads — the stencil IR validator rejects stages that read
/// an array they also write, so every stage kernel's row loop qualifies.
/// The CI vectorization gate counts the tags per TU and requires at least
/// as many vectorized-loop remarks.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_SUPPORT_SIMDLOOP_H
#define ICORES_SUPPORT_SIMDLOOP_H

#if defined(__clang__)
#define ICORES_SIMD_LOOP _Pragma("clang loop vectorize(enable)")
#elif defined(__GNUC__)
#define ICORES_SIMD_LOOP _Pragma("GCC ivdep")
#else
#define ICORES_SIMD_LOOP
#endif

#endif // ICORES_SUPPORT_SIMDLOOP_H
