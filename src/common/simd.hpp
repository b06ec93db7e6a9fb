// Portable SIMD support for the batched kernels.
//
// Three pieces, each deliberately small:
//
//  * EBEM_SIMD_MULTIVERSION — per-ISA function multi-versioning via
//    target_clones. The batched loops are written once, portably; on x86-64
//    Linux the compiler emits a default, an AVX2 and an AVX-512F clone and
//    the dynamic linker picks the widest one the CPU supports at load time.
//    Elsewhere the macro expands to nothing and the default codegen is used.
//  * EBEM_SIMD_LOOP / EBEM_SIMD_LOOP_REDUCE — `#pragma omp simd` spellings.
//    The library is compiled with -fopenmp-simd (no OpenMP runtime), so the
//    pragma licenses vectorization — including the lane-reduction reorder a
//    min/sum reduction needs — without touching threading or math semantics.
//  * simd_log1p / simd_exp — branch-free transcendentals that vectorize
//    inside the loops above. libm's scalar calls would serialize every lane;
//    these are straight-line bit twiddling + Horner polynomials, accurate to
//    a few ulp over the kernels' argument ranges (documented per function),
//    which sits far inside the 1e-12 assembly parity contract.
#pragma once

#include <bit>
#include <cstdint>

// ThreadSanitizer and target_clones cannot coexist: the ifunc resolvers the
// clones need run during relocation, before the TSan runtime has mapped its
// shadow, and the process segfaults pre-main. Under TSan fall back to the
// default codegen — the omp-simd loops and parity contract are unchanged.
#if defined(__SANITIZE_THREAD__)
#define EBEM_SIMD_NO_MULTIVERSION 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define EBEM_SIMD_NO_MULTIVERSION 1
#endif
#endif

#if defined(__x86_64__) && defined(__linux__) && defined(__has_attribute) && \
    !defined(EBEM_SIMD_NO_MULTIVERSION)
#if __has_attribute(target_clones)
#define EBEM_SIMD_MULTIVERSION __attribute__((target_clones("default", "avx2", "avx512f")))
#endif
#endif
#ifndef EBEM_SIMD_MULTIVERSION
#define EBEM_SIMD_MULTIVERSION
#endif

#if defined(__GNUC__) || defined(__clang__)
#define EBEM_RESTRICT __restrict__
#define EBEM_SIMD_PRAGMA_(tokens) _Pragma(#tokens)
#define EBEM_SIMD_LOOP _Pragma("omp simd")
/// Vectorized loop carrying a reduction, e.g. EBEM_SIMD_LOOP_REDUCE(min : lo).
#define EBEM_SIMD_LOOP_REDUCE(...) EBEM_SIMD_PRAGMA_(omp simd reduction(__VA_ARGS__))
/// Vectorized loop with arbitrary `omp simd` clauses, e.g.
/// EBEM_SIMD_LOOP_CLAUSES(reduction(min : lo) reduction(+ : sum)).
#define EBEM_SIMD_LOOP_CLAUSES(...) EBEM_SIMD_PRAGMA_(omp simd __VA_ARGS__)
#else
#define EBEM_RESTRICT
#define EBEM_SIMD_LOOP
#define EBEM_SIMD_LOOP_REDUCE(...)
#define EBEM_SIMD_LOOP_CLAUSES(...)
#endif

namespace ebem {

namespace simd_detail {

// log(2) split so that exponent * ln2_hi is exact (low 27 bits zero).
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;

}  // namespace simd_detail

/// Branch-free log1p for y > -0.5 (the segment kernels only pass y > 0).
/// Accuracy: a few ulp. Structure: u = 1+y with the rounding error recovered
/// exactly (Sterbenz) and folded back as a first-order correction,
/// log(1+y) = log(u) + (y - (u-1))/u; then log(u) = e*ln2 + 2*atanh(z) with
/// z = (m-1)/(m+1) and m the mantissa of u centered on [sqrt(2)/2, sqrt(2)),
/// so |z| <= 0.1716 and an 11-term odd Taylor series truncates below 1e-17.
[[nodiscard]] inline double simd_log1p(double y) {
  const double u = 1.0 + y;
  const double c = (y - (u - 1.0)) / u;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(u);
  // 32-bit exponent on purpose: int32 -> double converts with baseline AVX
  // (vcvtdq2pd); an int64 here needs AVX512DQ and blocks vectorization of
  // every loop this inlines into on avx2/avx512f-only clones.
  std::int32_t e = static_cast<std::int32_t>(bits >> 52) - 1023;
  double m = std::bit_cast<double>((bits & 0x000fffffffffffffULL) | 0x3ff0000000000000ULL);
  const bool upper = m > 1.4142135623730951;
  m = upper ? 0.5 * m : m;
  e += upper ? 1 : 0;
  const double z = (m - 1.0) / (m + 1.0);
  const double z2 = z * z;
  double p = 1.0 / 21.0;
  p = p * z2 + 1.0 / 19.0;
  p = p * z2 + 1.0 / 17.0;
  p = p * z2 + 1.0 / 15.0;
  p = p * z2 + 1.0 / 13.0;
  p = p * z2 + 1.0 / 11.0;
  p = p * z2 + 1.0 / 9.0;
  p = p * z2 + 1.0 / 7.0;
  p = p * z2 + 1.0 / 5.0;
  p = p * z2 + 1.0 / 3.0;
  const double log_m = 2.0 * z + (2.0 * z) * z2 * p;
  const double ef = static_cast<double>(e);
  return ef * simd_detail::kLn2Hi + (log_m + (c + ef * simd_detail::kLn2Lo));
}

/// Branch-free exp, accurate to a few ulp for |x| < 700; saturates cleanly
/// (underflows to 0 below ~-745, overflows to +inf above ~709) instead of
/// raising. The spectral-coefficient tables only ever pass x <= 0. Standard
/// reduction x = n*ln2 + r with |r| <= ln2/2, a degree-14 Taylor of exp(r),
/// and a two-factor 2^n rebuild so n down to -1074 stays representable.
[[nodiscard]] inline double simd_exp(double x) {
  const double kInvLn2 = 1.4426950408889634;
  double n = x * kInvLn2;
  // Clamp first so the rounding casts stay in int32 range for any finite x
  // (the saturation blends at the end own the extreme inputs anyway); then
  // round to nearest without touching the FP environment. int32 on purpose:
  // as in simd_log1p, it keeps the double <-> integer conversions
  // vectorizable pre-AVX512DQ.
  n = n < -1075.0 ? -1075.0 : n;
  n = n > 1025.0 ? 1025.0 : n;
  n = n >= 0.0 ? static_cast<double>(static_cast<std::int32_t>(n + 0.5))
               : static_cast<double>(static_cast<std::int32_t>(n - 0.5));
  const double r = (x - n * simd_detail::kLn2Hi) - n * simd_detail::kLn2Lo;
  double q = 1.0 / 87178291200.0;  // 1/14!
  q = q * r + 1.0 / 6227020800.0;
  q = q * r + 1.0 / 479001600.0;
  q = q * r + 1.0 / 39916800.0;
  q = q * r + 1.0 / 3628800.0;
  q = q * r + 1.0 / 362880.0;
  q = q * r + 1.0 / 40320.0;
  q = q * r + 1.0 / 5040.0;
  q = q * r + 1.0 / 720.0;
  q = q * r + 1.0 / 120.0;
  q = q * r + 1.0 / 24.0;
  q = q * r + 1.0 / 6.0;
  q = q * r + 0.5;
  q = q * r + 1.0;
  q = q * r + 1.0;
  const std::int32_t ni = static_cast<std::int32_t>(n);
  const std::int32_t n1 = ni / 2;
  const std::int32_t n2 = ni - n1;
  const double s1 =
      std::bit_cast<double>(static_cast<std::uint64_t>(static_cast<std::int64_t>(n1) + 1023)
                            << 52);
  const double s2 =
      std::bit_cast<double>(static_cast<std::uint64_t>(static_cast<std::int64_t>(n2) + 1023)
                            << 52);
  double result = (q * s1) * s2;
  result = x < -745.2 ? 0.0 : result;
  result = x > 709.7 ? std::bit_cast<double>(0x7ff0000000000000ULL) : result;
  return result;
}

}  // namespace ebem
