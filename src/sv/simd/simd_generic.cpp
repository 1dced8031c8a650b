// Portable "generic vector" backend: GCC/Clang vector extensions over
// 256-bit logical vectors (lowered to whatever the target provides).
//
// This tier vectorizes the unit-stride runs of Hadamard, Diag1, and
// Matrix1 (target high enough that a run fills whole vectors) and falls
// back to the scalar reference for low targets — the in-register permute
// games are left to the ISA-specific backends. Complex multiply folds the
// fmaddsub sign into a premultiplied imaginary constant, so the inner
// loop is one shuffle, two multiplies, and one add per vector.

#include "sv/simd/backend_tables.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define SVSIM_HAVE_GENERIC_KERNELS 1
#endif

namespace svsim::sv::simd::detail {

#if defined(SVSIM_HAVE_GENERIC_KERNELS)

namespace {

namespace blk = ::svsim::sv::detail::blk;

constexpr std::size_t idx(KernelClass c) { return static_cast<std::size_t>(c); }

using VD = double __attribute__((vector_size(32)));  // 2 complex<double>
using VS = float __attribute__((vector_size(32)));   // 4 complex<float>

template <typename T>
struct VecOf;
template <>
struct VecOf<double> {
  using V = VD;
};
template <>
struct VecOf<float> {
  using V = VS;
};

inline VD swap_ri(VD a) { return __builtin_shufflevector(a, a, 1, 0, 3, 2); }
inline VS swap_ri(VS a) {
  return __builtin_shufflevector(a, a, 1, 0, 3, 2, 5, 4, 7, 6);
}

template <typename V, typename T>
inline V splat(T x) {
  V v{};
  for (unsigned i = 0; i < sizeof(V) / sizeof(T); ++i) v[i] = x;
  return v;
}

// Complex constant split for the one-shuffle multiply: re broadcast plus
// the imaginary part with the subtract-on-even-lanes sign folded in.
template <typename V, typename T>
struct Cconst {
  V re, im_s;
};

template <typename V, typename T>
inline Cconst<V, T> csplit(std::complex<T> c) {
  Cconst<V, T> out;
  for (unsigned i = 0; i < sizeof(V) / sizeof(T); i += 2) {
    out.re[i] = c.real();
    out.re[i + 1] = c.real();
    out.im_s[i] = -c.imag();
    out.im_s[i + 1] = c.imag();
  }
  return out;
}

template <typename V, typename T>
inline V cmul(V a, const Cconst<V, T>& b) {
  return a * b.re + swap_ri(a) * b.im_s;
}

template <typename V, typename T>
inline V vload(const T* p) {
  V v;
  __builtin_memcpy(&v, p, sizeof(V));
  return v;
}

template <typename V, typename T>
inline void vstore(T* p, V v) {
  __builtin_memcpy(p, &v, sizeof(V));
}

template <typename T>
void g_hadamard(std::complex<T>* psi, unsigned nb, const PreparedGate<T>& pg) {
  using V = typename VecOf<T>::V;
  constexpr std::uint64_t kScalars = sizeof(V) / sizeof(T);
  const unsigned t = pg.target;
  const std::uint64_t stride = pow2(t);
  if (2 * stride < kScalars) {
    blk::full_range<T, KernelClass::Hadamard>(psi, nb, pg);
    return;
  }
  const V vs = splat<V>(static_cast<T>(0.70710678118654752440));
  T* p = reinterpret_cast<T*>(psi);
  const std::uint64_t size = pow2(nb);
  for (std::uint64_t base = 0; base < size; base += 2 * stride) {
    T* lo = p + 2 * base;
    T* hi = lo + 2 * stride;
    for (std::uint64_t j = 0; j < 2 * stride; j += kScalars) {
      const V a0 = vload<V>(lo + j);
      const V a1 = vload<V>(hi + j);
      vstore(lo + j, (a0 + a1) * vs);
      vstore(hi + j, (a0 - a1) * vs);
    }
  }
}

template <typename T>
void g_diag1(std::complex<T>* psi, unsigned nb, const PreparedGate<T>& pg) {
  using V = typename VecOf<T>::V;
  constexpr std::uint64_t kScalars = sizeof(V) / sizeof(T);
  const unsigned t = pg.target;
  const std::uint64_t stride = pow2(t);
  if (2 * stride < kScalars) {
    blk::full_range<T, KernelClass::Diag1>(psi, nb, pg);
    return;
  }
  const bool skip_lower = (pg.coeff[0] == std::complex<T>{T{1}, T{0}});
  const Cconst<V, T> c0 = csplit<V>(pg.coeff[0]);
  const Cconst<V, T> c1 = csplit<V>(pg.coeff[1]);
  T* p = reinterpret_cast<T*>(psi);
  const std::uint64_t size = pow2(nb);
  for (std::uint64_t base = 0; base < size; base += 2 * stride) {
    T* lo = p + 2 * base;
    T* hi = lo + 2 * stride;
    for (std::uint64_t j = 0; j < 2 * stride; j += kScalars) {
      if (!skip_lower) vstore(lo + j, cmul(vload<V>(lo + j), c0));
      vstore(hi + j, cmul(vload<V>(hi + j), c1));
    }
  }
}

template <typename T>
void g_matrix1(std::complex<T>* psi, unsigned nb, const PreparedGate<T>& pg) {
  using V = typename VecOf<T>::V;
  constexpr std::uint64_t kScalars = sizeof(V) / sizeof(T);
  const unsigned t = pg.target;
  const std::uint64_t stride = pow2(t);
  if (2 * stride < kScalars) {
    blk::full_range<T, KernelClass::Matrix1>(psi, nb, pg);
    return;
  }
  const Cconst<V, T> c00 = csplit<V>(pg.coeff[0]);
  const Cconst<V, T> c01 = csplit<V>(pg.coeff[1]);
  const Cconst<V, T> c10 = csplit<V>(pg.coeff[2]);
  const Cconst<V, T> c11 = csplit<V>(pg.coeff[3]);
  T* p = reinterpret_cast<T*>(psi);
  const std::uint64_t size = pow2(nb);
  for (std::uint64_t base = 0; base < size; base += 2 * stride) {
    T* lo = p + 2 * base;
    T* hi = lo + 2 * stride;
    for (std::uint64_t j = 0; j < 2 * stride; j += kScalars) {
      const V a0 = vload<V>(lo + j);
      const V a1 = vload<V>(hi + j);
      vstore(lo + j, cmul(a0, c00) + cmul(a1, c01));
      vstore(hi + j, cmul(a0, c10) + cmul(a1, c11));
    }
  }
}

}  // namespace

const KernelOverrides& generic_overrides() {
  static const KernelOverrides ov = [] {
    KernelOverrides o;
    o.compiled = true;
    o.vector_bits = 256;
    o.f64[idx(KernelClass::Hadamard)] = &g_hadamard<double>;
    o.f64[idx(KernelClass::Diag1)] = &g_diag1<double>;
    o.f64[idx(KernelClass::Matrix1)] = &g_matrix1<double>;
    o.f32[idx(KernelClass::Hadamard)] = &g_hadamard<float>;
    o.f32[idx(KernelClass::Diag1)] = &g_diag1<float>;
    o.f32[idx(KernelClass::Matrix1)] = &g_matrix1<float>;
    return o;
  }();
  return ov;
}

#else  // !SVSIM_HAVE_GENERIC_KERNELS

const KernelOverrides& generic_overrides() {
  static const KernelOverrides ov{};
  return ov;
}

#endif

}  // namespace svsim::sv::simd::detail
