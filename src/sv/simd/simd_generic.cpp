// Portable "generic vector" backend: the 256-bit kernels of
// sv/simd/vec256.hpp over GCC/Clang vector extensions, lowered to whatever
// the target provides.
//
// Complex multiply folds the fmaddsub sign into a premultiplied imaginary
// constant, so the inner loop is one shuffle, two multiplies, and one add
// per vector (FMA-contracted where the target has it).

#include "sv/simd/backend_tables.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define SVSIM_HAVE_GENERIC_KERNELS 1
#include "sv/simd/vec256.hpp"
#endif

namespace svsim::sv::simd::detail {

#if defined(SVSIM_HAVE_GENERIC_KERNELS)

namespace {

// Complex constant split for the one-shuffle multiply: re broadcast plus
// the imaginary part with the subtract-on-even-lanes sign folded in.
template <typename T>
struct GenericCx {
  using V = typename V256<T>::V;
  struct C {
    V re, im_s;
  };
  static C make(V re, V im) {
    C c{re, im};
    for (unsigned s = 0; s < 2 * kLanes<T>; s += 2) c.im_s[s] = -im[s];
    return c;
  }
  static V mul(V a, const C& b) { return a * b.re + swap_ri(a) * b.im_s; }
};

}  // namespace

const KernelOverrides& generic_overrides() {
  static const KernelOverrides ov = [] {
    KernelOverrides o;
    o.compiled = true;
    o.vector_bits = 256;
    fill_vec256_table<GenericCx>(o.f64);
    fill_vec256_table<GenericCx>(o.f32);
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
