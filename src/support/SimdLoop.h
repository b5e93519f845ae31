//===- support/SimdLoop.h - Vectorization tags for row kernels --*- C++ -*-===//
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
/// ICORES_ROW_KERNEL marks a row-kernel function. It compiles the body
/// twice, for AVX2 (4 doubles per vector) and for baseline x86-64 (SSE2,
/// 2 per vector), and the dynamic loader runs the generated ifunc resolver
/// once to bind every call to the widest clone the CPU supports. Both
/// clones give the same bits: every tagged TU builds with -ffp-contract=off
/// and the "avx2" target does not enable FMA, so each element runs the
/// same IEEE operations at either vector width. The at()-indexed kernel
/// specs stay untagged, at the baseline ISA, as the oracles the clones are
/// tested against.
///
/// The tag expands to nothing off x86-64 Linux (ifunc needs the ELF
/// loader), on compilers without target_clones (clang before 14), and
/// under ThreadSanitizer, whose instrumented resolver would run before the
/// TSan runtime is up and crash the program on load. The ctest
/// KernelClones.EveryRowKernelHasAnAvx2Clone checks that every tag
/// produced both clones; tests/CMakeLists.txt mirrors this guard to decide
/// where the clones must exist, so the two change together.
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

#if defined(__SANITIZE_THREAD__)
#define ICORES_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ICORES_TSAN 1
#endif
#endif

#if defined(__x86_64__) && defined(__linux__) && !defined(ICORES_TSAN) &&     \
    ((defined(__clang__) && __clang_major__ >= 14) ||                          \
     (!defined(__clang__) && defined(__GNUC__)))
#define ICORES_ROW_KERNEL __attribute__((target_clones("avx2", "default")))
#else
#define ICORES_ROW_KERNEL
#endif
#undef ICORES_TSAN

#endif // ICORES_SUPPORT_SIMDLOOP_H
