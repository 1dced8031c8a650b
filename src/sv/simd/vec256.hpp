#pragma once

// The vectorized kernels of the two 256-bit backends (avx2, generic),
// written once over GCC/Clang vector extensions: a vector holds L = 2
// complex<double> or 4 complex<float> lanes. A backend supplies its complex
// multiply policy Cx<T> and compiles this header with its own ISA flags;
// everything sits in an unnamed namespace, so each TU keeps its own copy.
//
// Layout (qsim's): the outer loop walks vector groups, the inner loop
// streams whole vectors. Operand bits at or above the lane bits select
// vectors (base + offset); operand bits below them select lanes and become
// in-register permutes and blends — the low-target case the paper solves
// with SVE permutes on A64FX. A group cut by a range boundary runs the same
// vector arithmetic on scratch copies of its in-range lanes (arithmetic
// kernels) or the scalar reference (permutations, bit-exact with it), so an
// amplitude's bits never depend on where a range was split.

#include <algorithm>
#include <array>
#include <bit>
#include <complex>
#include <cstdint>
#include <cstring>

#include "common/bits.hpp"
#include "sv/simd/backend_tables.hpp"

namespace svsim::sv::simd::detail {
namespace {

using VD = double __attribute__((vector_size(32)));
using VS = float __attribute__((vector_size(32)));
using MD = std::int64_t __attribute__((vector_size(32)));
using MS = std::int32_t __attribute__((vector_size(32)));

template <typename T>
struct V256;
template <>
struct V256<double> {
  using V = VD;
  using M = MD;
  static constexpr unsigned kLaneBits = 1;
};
template <>
struct V256<float> {
  using V = VS;
  using M = MS;
  static constexpr unsigned kLaneBits = 2;
};

template <typename T>
inline constexpr std::uint64_t kLanes = pow2(V256<T>::kLaneBits);

template <typename T>
typename V256<T>::V vload(const std::complex<T>* p) {
  typename V256<T>::V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <typename T>
void vstore(std::complex<T>* p, typename V256<T>::V v) {
  std::memcpy(reinterpret_cast<T*>(p), &v, sizeof v);
}

/// Swaps re <-> im inside every lane.
inline VD swap_ri(VD a) { return __builtin_shufflevector(a, a, 1, 0, 3, 2); }
inline VS swap_ri(VS a) {
  return __builtin_shufflevector(a, a, 1, 0, 3, 2, 5, 4, 7, 6);
}

/// Lane j <-> lane j ^ 2^l, for an in-vector bit l < kLaneBits.
inline VD swap_lanes(VD v, unsigned) {
  return __builtin_shufflevector(v, v, 2, 3, 0, 1);
}
inline VS swap_lanes(VS v, unsigned l) {
  return l == 0 ? __builtin_shufflevector(v, v, 2, 3, 0, 1, 6, 7, 4, 5)
                : __builtin_shufflevector(v, v, 4, 5, 6, 7, 0, 1, 2, 3);
}

/// Lane mask: all ones in lane j where pred(j).
template <typename T, typename Pred>
typename V256<T>::M lane_mask(Pred pred) {
  typename V256<T>::M m;
  for (unsigned s = 0; s < 2 * kLanes<T>; ++s) m[s] = pred(s / 2) ? -1 : 0;
  return m;
}

/// m ? a : b, lane by lane.
template <typename M, typename V>
V select(M m, V a, V b) { return m ? a : b; }

/// A complex constant per lane, lane j holding f(j), in the form Cx::mul
/// takes.
template <template <typename> class Cx, typename T, typename F>
typename Cx<T>::C lanes_of(F f) {
  typename V256<T>::V re, im;
  for (unsigned s = 0; s < 2 * kLanes<T>; ++s) {
    re[s] = f(s / 2).real();
    im[s] = f(s / 2).imag();
  }
  return Cx<T>::make(re, im);
}

template <template <typename> class Cx, typename T>
typename Cx<T>::C broadcast(std::complex<T> c) {
  return lanes_of<Cx, T>([c](unsigned) { return c; });
}

/// Splits the outer-index range [begin, end) of pg's loop space into vector
/// groups of 2^(kLaneBits - #operands below kLaneBits) consecutive indices.
/// Whole groups go to body(base), base the amplitude index of the group's
/// first vector with every in-vector and operand bit clear; the cut groups
/// at the range edges go to partial(c0, c1).
template <typename T, typename Body, typename Partial>
void for_groups(const PreparedGate<T>& pg, std::uint64_t begin,
                std::uint64_t end, Body&& body, Partial&& partial) {
  constexpr unsigned lb = V256<T>::kLaneBits;
  const std::uint64_t mv = pg.mask >> lb;  // operand bits selecting vectors
  const unsigned s = lb - static_cast<unsigned>(
                              std::popcount(pg.mask & (kLanes<T> - 1)));
  const std::uint64_t g0 = (begin + pow2(s) - 1) >> s, g1 = end >> s;
  const std::uint64_t head_end = std::min(end, g0 << s);
  if (begin < head_end) partial(begin, head_end);
  std::uint64_t v = g0;  // vector index of group g0: zeros at mv's bits
  for (std::uint64_t m = mv; m != 0; m &= m - 1)
    v = insert_zero_bit(v, static_cast<unsigned>(std::countr_zero(m)));
  for (std::uint64_t g = g0; g < g1; ++g) {
    body(v << lb);
    v = ((v | mv) + 1) & ~mv;  // the next index with mv's bits clear
  }
  const std::uint64_t tail = std::max(head_end, g1 << s);
  if (tail < end) partial(tail, end);
}

/// Runs op(v) over every group of [begin, end): v[0..H) are the group's
/// vectors at base + hoffs[h]. A cut group runs the same op on zeroed
/// scratch vectors holding only its in-range lanes (the lanes of the other
/// indices may belong to another thread's range), copied back afterwards.
/// For kernels without controls: an index touches every lane combination
/// of the in-vector operand bits.
template <std::size_t H, typename T, typename Op>
void run_groups(std::complex<T>* psi, const PreparedGate<T>& pg,
                const std::array<std::uint64_t, H>& hoffs, std::uint64_t begin,
                std::uint64_t end, Op&& op) {
  constexpr std::uint64_t L = kLanes<T>;
  auto whole = [&](std::uint64_t base) {
    std::array<std::complex<T>*, H> v;
    for (std::size_t h = 0; h < H; ++h) v[h] = psi + base + hoffs[h];
    op(v.data());
  };
  auto cut = [&](std::uint64_t c0, std::uint64_t c1) {
    const std::uint64_t low = pg.mask & (L - 1);
    std::uint64_t base = 0;
    unsigned lanes = 0;
    for (std::uint64_t c = c0; c < c1; ++c) {
      const std::uint64_t i = insert_zero_bits(c, pg.sorted);
      base = i & ~(L - 1);
      for (std::uint64_t sub = low;; sub = (sub - 1) & low) {
        lanes |= 1u << ((i & (L - 1)) | sub);
        if (sub == 0) break;
      }
    }
    std::array<std::array<std::complex<T>, L>, H> tmp{};
    std::array<std::complex<T>*, H> v;
    for (std::size_t h = 0; h < H; ++h) {
      v[h] = tmp[h].data();
      for (std::uint64_t j = 0; j < L; ++j)
        if ((lanes >> j) & 1u) tmp[h][j] = psi[base + hoffs[h] + j];
    }
    op(v.data());
    for (std::size_t h = 0; h < H; ++h)
      for (std::uint64_t j = 0; j < L; ++j)
        if ((lanes >> j) & 1u) psi[base + hoffs[h] + j] = tmp[h][j];
  };
  for_groups(pg, begin, end, whole, cut);
}

// ---- arithmetic kernels ------------------------------------------------------

template <typename T>
void v_hadamard(std::complex<T>* psi, unsigned nb, const PreparedGate<T>& pg,
                std::uint64_t begin, std::uint64_t end) {
  using V = typename V256<T>::V;
  if (nb < V256<T>::kLaneBits) return scalar_range(psi, nb, pg, begin, end);
  const V s = V{} + static_cast<T>(0.70710678118654752440);  // broadcast
  const unsigned t = pg.target;
  if (t < V256<T>::kLaneBits) {
    // Partner in the same vector: the |1> lanes take (partner - self).
    const auto hi = lane_mask<T>([t](unsigned j) { return (j >> t) & 1u; });
    run_groups<1>(psi, pg, {0}, begin, end, [&](std::complex<T>* const* v) {
      const V a = vload(v[0]);
      const V b = swap_lanes(a, t);
      vstore(v[0], select(hi, (b - a) * s, (a + b) * s));
    });
    return;
  }
  run_groups<2>(psi, pg, {0, pow2(t)}, begin, end,
                [&](std::complex<T>* const* v) {
                  const V a0 = vload(v[0]), a1 = vload(v[1]);
                  vstore(v[0], (a0 + a1) * s);
                  vstore(v[1], (a0 - a1) * s);
                });
}

template <template <typename> class Cx, typename T>
void v_diag1(std::complex<T>* psi, unsigned nb, const PreparedGate<T>& pg,
             std::uint64_t begin, std::uint64_t end) {
  if (nb < V256<T>::kLaneBits) return scalar_range(psi, nb, pg, begin, end);
  const std::complex<T> f0 = pg.coeff[0], f1 = pg.coeff[1];
  const unsigned t = pg.target;
  if (t < V256<T>::kLaneBits) {
    const auto c = lanes_of<Cx, T>(
        [&](unsigned j) { return ((j >> t) & 1u) ? f1 : f0; });
    run_groups<1>(psi, pg, {0}, begin, end, [&](std::complex<T>* const* v) {
      vstore(v[0], Cx<T>::mul(vload(v[0]), c));
    });
    return;
  }
  const bool skip_lower = (f0 == std::complex<T>{T{1}, T{0}});
  const auto c0 = broadcast<Cx>(f0), c1 = broadcast<Cx>(f1);
  run_groups<2>(psi, pg, {0, pow2(t)}, begin, end,
                [&](std::complex<T>* const* v) {
                  if (!skip_lower) vstore(v[0], Cx<T>::mul(vload(v[0]), c0));
                  vstore(v[1], Cx<T>::mul(vload(v[1]), c1));
                });
}

template <template <typename> class Cx, typename T>
void v_matrix1(std::complex<T>* psi, unsigned nb, const PreparedGate<T>& pg,
               std::uint64_t begin, std::uint64_t end) {
  using V = typename V256<T>::V;
  if (nb < V256<T>::kLaneBits) return scalar_range(psi, nb, pg, begin, end);
  const std::complex<T> m00 = pg.coeff[0], m01 = pg.coeff[1];
  const std::complex<T> m10 = pg.coeff[2], m11 = pg.coeff[3];
  const unsigned t = pg.target;
  if (t < V256<T>::kLaneBits) {
    // Lane j holds a0 (bit t clear) or a1; the swapped vector supplies the
    // cross terms.
    const auto c1 = lanes_of<Cx, T>(
        [&](unsigned j) { return ((j >> t) & 1u) ? m11 : m00; });
    const auto c2 = lanes_of<Cx, T>(
        [&](unsigned j) { return ((j >> t) & 1u) ? m10 : m01; });
    run_groups<1>(psi, pg, {0}, begin, end, [&](std::complex<T>* const* v) {
      const V a = vload(v[0]);
      vstore(v[0], Cx<T>::mul(a, c1) + Cx<T>::mul(swap_lanes(a, t), c2));
    });
    return;
  }
  const auto c00 = broadcast<Cx>(m00), c01 = broadcast<Cx>(m01);
  const auto c10 = broadcast<Cx>(m10), c11 = broadcast<Cx>(m11);
  run_groups<2>(psi, pg, {0, pow2(t)}, begin, end,
                [&](std::complex<T>* const* v) {
                  const V a0 = vload(v[0]), a1 = vload(v[1]);
                  vstore(v[0], Cx<T>::mul(a0, c00) + Cx<T>::mul(a1, c01));
                  vstore(v[1], Cx<T>::mul(a0, c10) + Cx<T>::mul(a1, c11));
                });
}

/// General 4x4, vectorized when both operands select whole vectors;
/// in-vector operand pairs take the scalar reference.
template <template <typename> class Cx, typename T>
void v_matrix2(std::complex<T>* psi, unsigned nb, const PreparedGate<T>& pg,
               std::uint64_t begin, std::uint64_t end) {
  using V = typename V256<T>::V;
  if (pg.sorted[0] < V256<T>::kLaneBits)
    return scalar_range(psi, nb, pg, begin, end);
  std::array<typename Cx<T>::C, 16> m;
  for (std::size_t k = 0; k < 16; ++k) m[k] = broadcast<Cx>(pg.coeff[k]);
  const std::uint64_t b0 = pow2(pg.qubits[0]), b1 = pow2(pg.qubits[1]);
  run_groups<4>(psi, pg, {0, b0, b1, b0 | b1}, begin, end,
                [&](std::complex<T>* const* v) {
                  const V a0 = vload(v[0]), a1 = vload(v[1]);
                  const V a2 = vload(v[2]), a3 = vload(v[3]);
                  for (std::size_t r = 0; r < 4; ++r) {
                    const auto* row = &m[4 * r];
                    vstore(v[r], (Cx<T>::mul(a0, row[0]) +
                                  Cx<T>::mul(a1, row[1])) +
                                     (Cx<T>::mul(a2, row[2]) +
                                      Cx<T>::mul(a3, row[3])));
                  }
                });
}

// ---- permutation kernels (PermX, Mcx, PermSwap) ----------------------------

/// Pure data movement on a group's vectors x (at base + ox) and y (at
/// base + oy): x' = select(mx, S(y), x) and y' = select(my, S(x), y), S a
/// lane swap on in-vector bit s or none. With every operand bit in-vector
/// there is only x: x' = select(mx, S(x), x).
template <typename T>
void v_perm(std::complex<T>* psi, unsigned nb, const PreparedGate<T>& pg,
            std::uint64_t begin, std::uint64_t end) {
  using V = typename V256<T>::V;
  constexpr unsigned lb = V256<T>::kLaneBits;
  constexpr std::uint64_t L = kLanes<T>;
  const bool swap = pg.cls == KernelClass::PermSwap;
  // SWAP(q0,q1) of f32 has both bits in-vector: left to the scalar kernel.
  if (nb < lb || (swap && pg.sorted[1] < lb))
    return scalar_range(psi, nb, pg, begin, end);
  std::uint64_t ox = 0, oy = 0;
  unsigned s = lb;  // none
  typename V256<T>::M mx, my;
  if (swap) {
    // |..1..0..> <-> |..0..1..> on bits lo < hi: whole vectors when lo
    // selects vectors, else the bit-lo lanes of x against the others of y.
    const unsigned lo = pg.sorted[0];
    ox = lo >= lb ? pow2(lo) : 0;
    oy = pow2(pg.sorted[1]);
    s = lo >= lb ? lb : lo;
    mx = lane_mask<T>([&](unsigned j) { return lo >= lb || (j >> lo) & 1u; });
    my = lo >= lb ? mx : ~mx;
  } else {
    // PermX / Mcx: flip target t where every control bit is set.
    const std::uint64_t clow = pg.cmask & (L - 1);
    ox = pg.cmask & ~(L - 1);
    oy = pg.target >= lb ? ox + pow2(pg.target) : ox;
    s = pg.target >= lb ? lb : pg.target;
    mx = my = lane_mask<T>([clow](unsigned j) { return (j & clow) == clow; });
  }
  auto lanes = [s](V v) { return s < lb ? swap_lanes(v, s) : v; };
  auto scalar = [&](std::uint64_t c0, std::uint64_t c1) {
    scalar_range(psi, nb, pg, c0, c1);
  };
  if (ox == oy) {
    for_groups(pg, begin, end, [&](std::uint64_t base) {
      const V x = vload(psi + base + ox);
      vstore(psi + base + ox, select(mx, lanes(x), x));
    }, scalar);
    return;
  }
  for_groups(pg, begin, end, [&](std::uint64_t base) {
    const V x = vload(psi + base + ox), y = vload(psi + base + oy);
    vstore(psi + base + ox, select(mx, lanes(y), x));
    vstore(psi + base + oy, select(my, lanes(x), y));
  }, scalar);
}

/// The entries both 256-bit backends provide, for multiply policy Cx.
template <template <typename> class Cx, typename T>
void fill_vec256_table(std::array<RangeKernelFn<T>, kNumKernelClasses>& t) {
  auto set = [&t](KernelClass c, RangeKernelFn<T> f) {
    t[static_cast<std::size_t>(c)] = f;
  };
  set(KernelClass::PermX, &v_perm<T>);
  set(KernelClass::Mcx, &v_perm<T>);
  set(KernelClass::PermSwap, &v_perm<T>);
  set(KernelClass::Hadamard, &v_hadamard<T>);
  set(KernelClass::Diag1, &v_diag1<Cx, T>);
  set(KernelClass::Matrix1, &v_matrix1<Cx, T>);
  set(KernelClass::Matrix2, &v_matrix2<Cx, T>);
}

}  // namespace
}  // namespace svsim::sv::simd::detail
