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
/// three times, for AVX-512F (8 doubles per vector), for AVX2 (4) and for
/// baseline x86-64 (SSE2, 2), and the dynamic loader runs the generated
/// ifunc resolver once to bind every call to the widest clone the CPU
/// supports. All clones give the same bits: every tagged TU builds with
/// -ffp-contract=off, so no clone fuses a multiply and an add (AVX-512F
/// has FMA instructions of its own; the "avx2" target does not enable
/// FMA), and each element runs the same IEEE operations at every vector
/// width. The at()-indexed kernel specs stay untagged, at the baseline
/// ISA, as the oracles the clones are tested against.
///
/// The tag expands to nothing off x86-64 Linux (ifunc needs the ELF
/// loader), on compilers without target_clones (clang before 14), and
/// under ThreadSanitizer, whose instrumented resolver would run before the
/// TSan runtime is up and crash the program on load. The ctest
/// KernelClones.EveryRowKernelHasAnAvx2Clone checks that every tag
/// produced all three clones and that no row-kernel object holds an FMA
/// instruction; tests/CMakeLists.txt mirrors this guard to decide where
/// the clones must exist, so the two change together.
///
/// ICORES_ROW_KERNEL_NO_AVX512 drops the AVX-512F clone. Only the
/// test-only kernel libraries define it (icores_mpdata_avx2,
/// icores_apps_avx2), so that the AVX2 bodies stay under a bit-exact test
/// on hosts whose loader would otherwise always pick AVX-512F.
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
#if defined(ICORES_ROW_KERNEL_NO_AVX512)
#define ICORES_ROW_KERNEL __attribute__((target_clones("avx2", "default")))
#else
#define ICORES_ROW_KERNEL                                                      \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#else
#define ICORES_ROW_KERNEL
#endif
#undef ICORES_TSAN

#endif // ICORES_SUPPORT_SIMDLOOP_H
