// AVX2+FMA block kernels: 256-bit vectors over interleaved complex
// amplitudes (2 complex<double> or 4 complex<float> per register).
//
// The low-target cases — the pair partner sits inside the vector — are
// handled with in-register permutes instead of scalar fallback: this is
// exactly the permute strategy the paper analyzes for SVE on A64FX,
// transplanted to AVX2. target >= lanes runs are unit-stride streams.
// Complex multiply uses the movedup/permute + fmaddsub idiom, so results
// can differ from the scalar reference by FMA contraction (<= a few ulps
// per gate); Hadamard keeps the scalar operation order and stays exact.
//
// Compiled only when the TU is built with -mavx2 -mfma (see
// src/sv/CMakeLists.txt); otherwise this file still links and reports
// compiled = false.

#include "sv/simd/backend_tables.hpp"

#if defined(__x86_64__) && defined(__AVX2__) && defined(__FMA__)
#define SVSIM_HAVE_AVX2_KERNELS 1
#include <immintrin.h>
#endif

namespace svsim::sv::simd::detail {

#if defined(SVSIM_HAVE_AVX2_KERNELS)

namespace {

namespace blk = ::svsim::sv::detail::blk;

constexpr std::size_t idx(KernelClass c) { return static_cast<std::size_t>(c); }

// ---- double: 2 complexes per __m256d -------------------------------------

// A complex constant pre-split into re/im broadcasts so the per-element
// multiply is one permute + one mul + one fmaddsub.
struct CconstD {
  __m256d re, im;
};

inline CconstD cdup_d(std::complex<double> x) {
  return {_mm256_set1_pd(x.real()), _mm256_set1_pd(x.imag())};
}

// Per-complex-lane constants [x, y] (lane 0 gets x, lane 1 gets y).
inline CconstD cpair_d(std::complex<double> x, std::complex<double> y) {
  return {_mm256_setr_pd(x.real(), x.real(), y.real(), y.real()),
          _mm256_setr_pd(x.imag(), x.imag(), y.imag(), y.imag())};
}

inline __m256d cmul_d(__m256d a, const CconstD& b) {
  const __m256d a_sw = _mm256_permute_pd(a, 0x5);  // swap re<->im per complex
  return _mm256_fmaddsub_pd(a, b.re, _mm256_mul_pd(a_sw, b.im));
}

void hadamard_d(std::complex<double>* psi, unsigned nb,
                const PreparedGate<double>& pg) {
  const __m256d vs = _mm256_set1_pd(0.70710678118654752440);
  double* p = reinterpret_cast<double*>(psi);
  const std::uint64_t size = pow2(nb);
  const unsigned t = pg.target;
  if (t == 0) {
    // Partner is the adjacent complex: swap the 128-bit halves.
    for (std::uint64_t i = 0; i < size; i += 2) {
      const __m256d v = _mm256_loadu_pd(p + 2 * i);
      const __m256d w = _mm256_permute2f128_pd(v, v, 0x01);
      const __m256d plus = _mm256_mul_pd(_mm256_add_pd(v, w), vs);
      const __m256d minus = _mm256_mul_pd(_mm256_sub_pd(w, v), vs);
      _mm256_storeu_pd(p + 2 * i, _mm256_blend_pd(plus, minus, 0xC));
    }
    return;
  }
  const std::uint64_t stride = pow2(t);
  for (std::uint64_t base = 0; base < size; base += 2 * stride) {
    double* lo = p + 2 * base;
    double* hi = lo + 2 * stride;
    for (std::uint64_t j = 0; j < 2 * stride; j += 4) {
      const __m256d a0 = _mm256_loadu_pd(lo + j);
      const __m256d a1 = _mm256_loadu_pd(hi + j);
      _mm256_storeu_pd(lo + j, _mm256_mul_pd(_mm256_add_pd(a0, a1), vs));
      _mm256_storeu_pd(hi + j, _mm256_mul_pd(_mm256_sub_pd(a0, a1), vs));
    }
  }
}

void diag1_d(std::complex<double>* psi, unsigned nb,
             const PreparedGate<double>& pg) {
  const std::complex<double> f0 = pg.coeff[0], f1 = pg.coeff[1];
  double* p = reinterpret_cast<double*>(psi);
  const std::uint64_t size = pow2(nb);
  const unsigned t = pg.target;
  if (t == 0) {
    // lo/hi alternate within the vector: one strided-free pass.
    const CconstD c01 = cpair_d(f0, f1);
    for (std::uint64_t i = 0; i < size; i += 2)
      _mm256_storeu_pd(p + 2 * i, cmul_d(_mm256_loadu_pd(p + 2 * i), c01));
    return;
  }
  const bool skip_lower = (f0 == std::complex<double>{1.0, 0.0});
  const CconstD c0 = cdup_d(f0), c1 = cdup_d(f1);
  const std::uint64_t stride = pow2(t);
  for (std::uint64_t base = 0; base < size; base += 2 * stride) {
    double* lo = p + 2 * base;
    double* hi = lo + 2 * stride;
    for (std::uint64_t j = 0; j < 2 * stride; j += 4) {
      if (!skip_lower)
        _mm256_storeu_pd(lo + j, cmul_d(_mm256_loadu_pd(lo + j), c0));
      _mm256_storeu_pd(hi + j, cmul_d(_mm256_loadu_pd(hi + j), c1));
    }
  }
}

void matrix1_d(std::complex<double>* psi, unsigned nb,
               const PreparedGate<double>& pg) {
  const std::complex<double> m00 = pg.coeff[0], m01 = pg.coeff[1];
  const std::complex<double> m10 = pg.coeff[2], m11 = pg.coeff[3];
  double* p = reinterpret_cast<double*>(psi);
  const std::uint64_t size = pow2(nb);
  const unsigned t = pg.target;
  if (t == 0) {
    // v holds [a0, a1]; the swapped vector supplies the cross terms.
    const CconstD c1 = cpair_d(m00, m11);
    const CconstD c2 = cpair_d(m01, m10);
    for (std::uint64_t i = 0; i < size; i += 2) {
      const __m256d v = _mm256_loadu_pd(p + 2 * i);
      const __m256d w = _mm256_permute2f128_pd(v, v, 0x01);
      _mm256_storeu_pd(p + 2 * i, _mm256_add_pd(cmul_d(v, c1), cmul_d(w, c2)));
    }
    return;
  }
  const CconstD c00 = cdup_d(m00), c01 = cdup_d(m01);
  const CconstD c10 = cdup_d(m10), c11 = cdup_d(m11);
  const std::uint64_t stride = pow2(t);
  for (std::uint64_t base = 0; base < size; base += 2 * stride) {
    double* lo = p + 2 * base;
    double* hi = lo + 2 * stride;
    for (std::uint64_t j = 0; j < 2 * stride; j += 4) {
      const __m256d a0 = _mm256_loadu_pd(lo + j);
      const __m256d a1 = _mm256_loadu_pd(hi + j);
      _mm256_storeu_pd(lo + j, _mm256_add_pd(cmul_d(a0, c00), cmul_d(a1, c01)));
      _mm256_storeu_pd(hi + j, _mm256_add_pd(cmul_d(a0, c10), cmul_d(a1, c11)));
    }
  }
}

void matrix2_d(std::complex<double>* psi, unsigned nb,
               const PreparedGate<double>& pg) {
  // Unit-stride quad streams require both operand qubits above the
  // in-vector bit; low-qubit pairs fall back to the scalar reference.
  if (nb < 3 || pg.sorted[0] < 1) {
    blk::full_range<double, KernelClass::Matrix2>(psi, nb, pg);
    return;
  }
  CconstD m[16];
  for (int k = 0; k < 16; ++k) m[k] = cdup_d(pg.coeff[k]);
  const std::uint64_t b0 = pow2(pg.qubits[0]), b1 = pow2(pg.qubits[1]);
  double* p = reinterpret_cast<double*>(psi);
  const std::uint64_t total = pow2(nb - 2);
  for (std::uint64_t c = 0; c < total; c += 2) {
    const std::uint64_t base = insert_zero_bits(c, pg.sorted);
    double* q0 = p + 2 * base;
    double* q1 = p + 2 * (base + b0);
    double* q2 = p + 2 * (base + b1);
    double* q3 = p + 2 * (base + b0 + b1);
    const __m256d a0 = _mm256_loadu_pd(q0);
    const __m256d a1 = _mm256_loadu_pd(q1);
    const __m256d a2 = _mm256_loadu_pd(q2);
    const __m256d a3 = _mm256_loadu_pd(q3);
    _mm256_storeu_pd(q0,
                     _mm256_add_pd(_mm256_add_pd(cmul_d(a0, m[0]), cmul_d(a1, m[1])),
                                   _mm256_add_pd(cmul_d(a2, m[2]), cmul_d(a3, m[3]))));
    _mm256_storeu_pd(q1,
                     _mm256_add_pd(_mm256_add_pd(cmul_d(a0, m[4]), cmul_d(a1, m[5])),
                                   _mm256_add_pd(cmul_d(a2, m[6]), cmul_d(a3, m[7]))));
    _mm256_storeu_pd(q2,
                     _mm256_add_pd(_mm256_add_pd(cmul_d(a0, m[8]), cmul_d(a1, m[9])),
                                   _mm256_add_pd(cmul_d(a2, m[10]), cmul_d(a3, m[11]))));
    _mm256_storeu_pd(q3,
                     _mm256_add_pd(_mm256_add_pd(cmul_d(a0, m[12]), cmul_d(a1, m[13])),
                                   _mm256_add_pd(cmul_d(a2, m[14]), cmul_d(a3, m[15]))));
  }
}

// ---- float: 4 complexes per __m256 ---------------------------------------

struct CconstS {
  __m256 re, im;
};

inline CconstS cdup_s(std::complex<float> x) {
  return {_mm256_set1_ps(x.real()), _mm256_set1_ps(x.imag())};
}

// Per-complex-lane constants [a, b, c, d].
inline CconstS cquad_s(std::complex<float> a, std::complex<float> b,
                       std::complex<float> c, std::complex<float> d) {
  return {_mm256_setr_ps(a.real(), a.real(), b.real(), b.real(), c.real(),
                         c.real(), d.real(), d.real()),
          _mm256_setr_ps(a.imag(), a.imag(), b.imag(), b.imag(), c.imag(),
                         c.imag(), d.imag(), d.imag())};
}

inline __m256 cmul_s(__m256 a, const CconstS& b) {
  const __m256 a_sw = _mm256_permute_ps(a, 0xB1);  // swap re<->im per complex
  return _mm256_fmaddsub_ps(a, b.re, _mm256_mul_ps(a_sw, b.im));
}

// Partner permute for target 0 (adjacent complexes, within 128-bit lanes)
// and target 1 (complex pairs, across the 128-bit halves).
inline __m256 swap_t0_s(__m256 v) { return _mm256_permute_ps(v, 0x4E); }
inline __m256 swap_t1_s(__m256 v) { return _mm256_permute2f128_ps(v, v, 0x01); }

void hadamard_s(std::complex<float>* psi, unsigned nb,
                const PreparedGate<float>& pg) {
  const unsigned t = pg.target;
  if (nb < 2) {  // fewer amplitudes than one vector
    blk::full_range<float, KernelClass::Hadamard>(psi, nb, pg);
    return;
  }
  const __m256 vs =
      _mm256_set1_ps(static_cast<float>(0.70710678118654752440));
  float* p = reinterpret_cast<float*>(psi);
  const std::uint64_t size = pow2(nb);
  if (t <= 1) {
    // Output complex lanes holding "hi" partners: t=0 -> lanes 1,3
    // (floats 2,3,6,7 = 0xCC); t=1 -> lanes 2,3 (floats 4..7 = 0xF0).
    for (std::uint64_t i = 0; i < size; i += 4) {
      const __m256 v = _mm256_loadu_ps(p + 2 * i);
      const __m256 w = (t == 0) ? swap_t0_s(v) : swap_t1_s(v);
      const __m256 plus = _mm256_mul_ps(_mm256_add_ps(v, w), vs);
      const __m256 minus = _mm256_mul_ps(_mm256_sub_ps(w, v), vs);
      _mm256_storeu_ps(p + 2 * i, t == 0 ? _mm256_blend_ps(plus, minus, 0xCC)
                                         : _mm256_blend_ps(plus, minus, 0xF0));
    }
    return;
  }
  const std::uint64_t stride = pow2(t);
  for (std::uint64_t base = 0; base < size; base += 2 * stride) {
    float* lo = p + 2 * base;
    float* hi = lo + 2 * stride;
    for (std::uint64_t j = 0; j < 2 * stride; j += 8) {
      const __m256 a0 = _mm256_loadu_ps(lo + j);
      const __m256 a1 = _mm256_loadu_ps(hi + j);
      _mm256_storeu_ps(lo + j, _mm256_mul_ps(_mm256_add_ps(a0, a1), vs));
      _mm256_storeu_ps(hi + j, _mm256_mul_ps(_mm256_sub_ps(a0, a1), vs));
    }
  }
}

void diag1_s(std::complex<float>* psi, unsigned nb,
             const PreparedGate<float>& pg) {
  const unsigned t = pg.target;
  if (nb < 2) {
    blk::full_range<float, KernelClass::Diag1>(psi, nb, pg);
    return;
  }
  const std::complex<float> f0 = pg.coeff[0], f1 = pg.coeff[1];
  float* p = reinterpret_cast<float*>(psi);
  const std::uint64_t size = pow2(nb);
  if (t <= 1) {
    const CconstS c = (t == 0) ? cquad_s(f0, f1, f0, f1)
                               : cquad_s(f0, f0, f1, f1);
    for (std::uint64_t i = 0; i < size; i += 4)
      _mm256_storeu_ps(p + 2 * i, cmul_s(_mm256_loadu_ps(p + 2 * i), c));
    return;
  }
  const bool skip_lower = (f0 == std::complex<float>{1.0f, 0.0f});
  const CconstS c0 = cdup_s(f0), c1 = cdup_s(f1);
  const std::uint64_t stride = pow2(t);
  for (std::uint64_t base = 0; base < size; base += 2 * stride) {
    float* lo = p + 2 * base;
    float* hi = lo + 2 * stride;
    for (std::uint64_t j = 0; j < 2 * stride; j += 8) {
      if (!skip_lower)
        _mm256_storeu_ps(lo + j, cmul_s(_mm256_loadu_ps(lo + j), c0));
      _mm256_storeu_ps(hi + j, cmul_s(_mm256_loadu_ps(hi + j), c1));
    }
  }
}

void matrix1_s(std::complex<float>* psi, unsigned nb,
               const PreparedGate<float>& pg) {
  const unsigned t = pg.target;
  if (nb < 2) {
    blk::full_range<float, KernelClass::Matrix1>(psi, nb, pg);
    return;
  }
  const std::complex<float> m00 = pg.coeff[0], m01 = pg.coeff[1];
  const std::complex<float> m10 = pg.coeff[2], m11 = pg.coeff[3];
  float* p = reinterpret_cast<float*>(psi);
  const std::uint64_t size = pow2(nb);
  if (t <= 1) {
    const CconstS c1 = (t == 0) ? cquad_s(m00, m11, m00, m11)
                                : cquad_s(m00, m00, m11, m11);
    const CconstS c2 = (t == 0) ? cquad_s(m01, m10, m01, m10)
                                : cquad_s(m01, m01, m10, m10);
    for (std::uint64_t i = 0; i < size; i += 4) {
      const __m256 v = _mm256_loadu_ps(p + 2 * i);
      const __m256 w = (t == 0) ? swap_t0_s(v) : swap_t1_s(v);
      _mm256_storeu_ps(p + 2 * i, _mm256_add_ps(cmul_s(v, c1), cmul_s(w, c2)));
    }
    return;
  }
  const CconstS c00 = cdup_s(m00), c01 = cdup_s(m01);
  const CconstS c10 = cdup_s(m10), c11 = cdup_s(m11);
  const std::uint64_t stride = pow2(t);
  for (std::uint64_t base = 0; base < size; base += 2 * stride) {
    float* lo = p + 2 * base;
    float* hi = lo + 2 * stride;
    for (std::uint64_t j = 0; j < 2 * stride; j += 8) {
      const __m256 a0 = _mm256_loadu_ps(lo + j);
      const __m256 a1 = _mm256_loadu_ps(hi + j);
      _mm256_storeu_ps(lo + j, _mm256_add_ps(cmul_s(a0, c00), cmul_s(a1, c01)));
      _mm256_storeu_ps(hi + j, _mm256_add_ps(cmul_s(a0, c10), cmul_s(a1, c11)));
    }
  }
}

void matrix2_s(std::complex<float>* psi, unsigned nb,
               const PreparedGate<float>& pg) {
  if (nb < 4 || pg.sorted[0] < 2) {
    blk::full_range<float, KernelClass::Matrix2>(psi, nb, pg);
    return;
  }
  CconstS m[16];
  for (int k = 0; k < 16; ++k) m[k] = cdup_s(pg.coeff[k]);
  const std::uint64_t b0 = pow2(pg.qubits[0]), b1 = pow2(pg.qubits[1]);
  float* p = reinterpret_cast<float*>(psi);
  const std::uint64_t total = pow2(nb - 2);
  for (std::uint64_t c = 0; c < total; c += 4) {
    const std::uint64_t base = insert_zero_bits(c, pg.sorted);
    float* q0 = p + 2 * base;
    float* q1 = p + 2 * (base + b0);
    float* q2 = p + 2 * (base + b1);
    float* q3 = p + 2 * (base + b0 + b1);
    const __m256 a0 = _mm256_loadu_ps(q0);
    const __m256 a1 = _mm256_loadu_ps(q1);
    const __m256 a2 = _mm256_loadu_ps(q2);
    const __m256 a3 = _mm256_loadu_ps(q3);
    _mm256_storeu_ps(q0,
                     _mm256_add_ps(_mm256_add_ps(cmul_s(a0, m[0]), cmul_s(a1, m[1])),
                                   _mm256_add_ps(cmul_s(a2, m[2]), cmul_s(a3, m[3]))));
    _mm256_storeu_ps(q1,
                     _mm256_add_ps(_mm256_add_ps(cmul_s(a0, m[4]), cmul_s(a1, m[5])),
                                   _mm256_add_ps(cmul_s(a2, m[6]), cmul_s(a3, m[7]))));
    _mm256_storeu_ps(q2,
                     _mm256_add_ps(_mm256_add_ps(cmul_s(a0, m[8]), cmul_s(a1, m[9])),
                                   _mm256_add_ps(cmul_s(a2, m[10]), cmul_s(a3, m[11]))));
    _mm256_storeu_ps(q3,
                     _mm256_add_ps(_mm256_add_ps(cmul_s(a0, m[12]), cmul_s(a1, m[13])),
                                   _mm256_add_ps(cmul_s(a2, m[14]), cmul_s(a3, m[15]))));
  }
}

}  // namespace

const KernelOverrides& avx2_overrides() {
  static const KernelOverrides ov = [] {
    KernelOverrides o;
    o.compiled = true;
    o.vector_bits = 256;
    o.f64[idx(KernelClass::Hadamard)] = &hadamard_d;
    o.f64[idx(KernelClass::Diag1)] = &diag1_d;
    o.f64[idx(KernelClass::Matrix1)] = &matrix1_d;
    o.f64[idx(KernelClass::Matrix2)] = &matrix2_d;
    o.f32[idx(KernelClass::Hadamard)] = &hadamard_s;
    o.f32[idx(KernelClass::Diag1)] = &diag1_s;
    o.f32[idx(KernelClass::Matrix1)] = &matrix1_s;
    o.f32[idx(KernelClass::Matrix2)] = &matrix2_s;
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
