// AVX2+FMA backend: the 256-bit kernels of sv/simd/vec256.hpp built with
// -mavx2 -mfma, over interleaved complex amplitudes (2 complex<double> or
// 4 complex<float> per register).
//
// Low targets — the pair partner sits inside the vector — use in-register
// permutes instead of a scalar fallback: this is exactly the permute
// strategy the paper analyzes for SVE on A64FX, transplanted to AVX2.
// Complex multiply uses the movedup/permute + fmaddsub idiom, so results
// can differ from the scalar reference by FMA contraction (<= a few ulps
// per gate); Hadamard keeps the scalar operation order and the
// permutations only move data, so both stay exact.
//
// Compiled only when the TU is built with -mavx2 -mfma (see
// src/sv/CMakeLists.txt); otherwise this file still links and reports
// compiled = false.

#include "sv/simd/backend_tables.hpp"

#if defined(__x86_64__) && defined(__AVX2__) && defined(__FMA__)
#define SVSIM_HAVE_AVX2_KERNELS 1
#include <immintrin.h>

#include "sv/simd/vec256.hpp"
#endif

namespace svsim::sv::simd::detail {

#if defined(SVSIM_HAVE_AVX2_KERNELS)

namespace {

// A complex constant pre-split into re/im broadcasts so the per-element
// multiply is one permute + one mul + one fmaddsub.
template <typename T>
struct AvxCx;

template <>
struct AvxCx<double> {
  struct C {
    __m256d re, im;
  };
  static C make(VD re, VD im) { return {re, im}; }
  static VD mul(VD a, const C& b) {
    const __m256d a_sw = _mm256_permute_pd(a, 0x5);  // swap re<->im
    return _mm256_fmaddsub_pd(a, b.re, _mm256_mul_pd(a_sw, b.im));
  }
};

template <>
struct AvxCx<float> {
  struct C {
    __m256 re, im;
  };
  static C make(VS re, VS im) { return {re, im}; }
  static VS mul(VS a, const C& b) {
    const __m256 a_sw = _mm256_permute_ps(a, 0xB1);  // swap re<->im
    return _mm256_fmaddsub_ps(a, b.re, _mm256_mul_ps(a_sw, b.im));
  }
};

}  // namespace

const KernelOverrides& avx2_overrides() {
  static const KernelOverrides ov = [] {
    KernelOverrides o;
    o.compiled = true;
    o.vector_bits = 256;
    fill_vec256_table<AvxCx>(o.f64);
    fill_vec256_table<AvxCx>(o.f32);
    return o;
  }();
  return ov;
}

#else  // !SVSIM_HAVE_AVX2_KERNELS

const KernelOverrides& avx2_overrides() {
  static const KernelOverrides ov{};
  return ov;
}

#endif

}  // namespace svsim::sv::simd::detail
