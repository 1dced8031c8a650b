// Gate-application kernels over the raw amplitude array.
//
// One scalar kernel per KernelClass, shared by the whole-state path
// (apply_gate -> apply_prepared) and the cache-blocked sweep engine. Each
// kernel streams its range once in (operand subspace, contiguous-run)
// loops rather than a per-amplitude index computation, so the inner loop
// is a unit-stride sweep; its length 2^(lowest operand qubit) is exactly
// the low-target SIMD-efficiency effect the A64FX performance model
// captures.
//
// Index conventions match qc::Gate: for a k-qubit kernel, qs[0] is the least
// significant bit of the matrix index.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/threading.hpp"
#include "qc/gate.hpp"
#include "qc/matrix.hpp"

namespace svsim::sv {

namespace detail {

/// The run iterator: splits the outer-index range [begin, end) of a kernel
/// whose operand bits are `sorted` (ascending, non-empty) into contiguous
/// runs. Consecutive indices c map to consecutive amplitudes
/// insert_zero_bits(c, sorted) up to the next multiple of 2^sorted[0], so a
/// run holds at most 2^sorted[0] indices. body(base, len) processes
/// amplitudes [base, base+len), every operand bit clear. The
/// single-operand form is the same walk on bit t.
template <typename Body>
inline void for_runs(std::uint64_t begin, std::uint64_t end, unsigned t,
                     Body&& body) {
  const std::uint64_t stride = pow2(t);
  std::uint64_t c = begin;
  while (c < end) {
    const std::uint64_t offset = c & (stride - 1);
    const std::uint64_t block = c >> t;
    const std::uint64_t base = (block << (t + 1)) | offset;
    const std::uint64_t run = std::min(end - c, stride - offset);
    body(base, run);
    c += run;
  }
}

template <typename Body>
inline void for_runs(std::uint64_t begin, std::uint64_t end,
                     std::span<const unsigned> sorted, Body&& body) {
  const std::uint64_t run_len = pow2(sorted[0]);
  std::uint64_t mask = 0;
  for (unsigned q : sorted) mask |= pow2(q);
  std::uint64_t base = insert_zero_bits(begin, sorted);
  for (std::uint64_t c = begin; c < end;) {
    const std::uint64_t run =
        std::min(end - c, run_len - (c & (run_len - 1)));
    body(base, run);
    c += run;
    // The next amplitude with every operand bit clear.
    base = (((base + run - 1) | mask) + 1) & ~mask;
  }
}

/// x * y with the rounding pinned. GCC fuses the f64 complex product on
/// whichever operand SSA order puts first, which a loop restructuring can
/// flip; this form fixes the fused products at x.re*y.re and x.re*y.im on
/// FMA targets. The f32 product stays unfused in these loops.
template <typename T>
inline std::complex<T> fused_mul(std::complex<T> x, std::complex<T> y) {
#ifdef FP_FAST_FMA
  if constexpr (std::is_same_v<T, double>)
    return {std::fma(x.real(), y.real(), -(x.imag() * y.imag())),
            std::fma(x.real(), y.imag(), x.imag() * y.real())};
#endif
  return x * y;
}

/// Converts a qc::Matrix entry to the kernel precision.
template <typename T>
inline std::complex<T> cast_c(const qc::cplx& v) {
  return {static_cast<T>(v.real()), static_cast<T>(v.imag())};
}

}  // namespace detail

// ---- ablation baseline ------------------------------------------------------

/// Reference variant of the Matrix1 kernel that computes each pair index
/// with insert_zero_bit instead of run blocking. Same result, but the inner
/// loop has a data-dependent index chain the vectorizer cannot see through —
/// kept as the ablation baseline for the run-blocked design
/// (bench_abl_design quantifies the difference).
template <typename T>
void apply_matrix1_pairwise(std::complex<T>* psi, unsigned n, unsigned t,
                            const qc::Matrix& u, ThreadPool& pool) {
  SVSIM_ASSERT(u.dim() == 2 && t < n);
  const std::complex<T> m00 = detail::cast_c<T>(u(0, 0));
  const std::complex<T> m01 = detail::cast_c<T>(u(0, 1));
  const std::complex<T> m10 = detail::cast_c<T>(u(1, 0));
  const std::complex<T> m11 = detail::cast_c<T>(u(1, 1));
  const std::uint64_t tbit = pow2(t);
  pool.parallel_for(
      pow2(n - 1),
      [=](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t c = b; c < e; ++c) {
          const std::uint64_t i0 = insert_zero_bit(c, t);
          const std::uint64_t i1 = i0 | tbit;
          const std::complex<T> a0 = psi[i0];
          const std::complex<T> a1 = psi[i1];
          psi[i0] = m00 * a0 + m01 * a1;
          psi[i1] = m10 * a0 + m11 * a1;
        }
      },
      fork_cutoff(2));
}

// ---- the kernel family and its dispatch tables ------------------------------
//
// One kernel table per backend and precision serves both execution paths:
// the scalar family below (range_kernels) and the SIMD backends' tables
// derived from it (sv/simd). Each kernel takes an outer-index range
// [begin, end) over its own loop space on a 2^nb-amplitude array;
// work_items(pg, nb) is the size of that space. The kernel contract
// (documented in docs/ARCHITECTURE.md):
//
//  * Operands: every operand qubit of the gate is < nb. The whole-state
//    path (apply_prepared) passes nb = n; the cache-blocked engine
//    (sv/engine.hpp) passes the block exponent b, so the gate acts
//    identically and independently on each aligned block of 2^b amplitudes.
//  * Threading: kernels are SERIAL over their range. apply_prepared splits
//    [0, work_items) across the pool; the blocked engine owns one
//    parallel_for over blocks (statically partitioned so each worker streams
//    the pages it first-touched) and runs each kernel over its full range.
//    Both fork under the one fork rule (fork_cutoff, common/threading.hpp).
//    A kernel must never re-enter the pool.
//  * Partition invariance: an amplitude gets the same arithmetic wherever
//    a range boundary falls, so results depend neither on the pool size
//    nor on dense vs blocked execution.
//  * Coefficients: pre-cast once into PreparedGate<T> — the kernel loop does
//    no matrix conversion or allocation (MatrixK uses a fixed stack scratch,
//    hence its k <= kMaxMatrixK limit on both paths).
//  * Dispatch: one indirect call per (gate, range) or (gate, block) through
//    active_kernels<T>(), indexed by KernelClass.
//  * Rounding: with FMA contraction on, which partial product of a complex
//    multiply the compiler fuses depends on the operand order and on where
//    each operand is loaded from, and that decides the last bit of the
//    result. The in-loop coefficient reads and the product order are part
//    of each kernel's numerics: reordering them is a numerical change, not
//    a refactor.

/// Kernel specialization classes the dispatcher distinguishes. Order is the
/// dispatch-table index; keep kernel_class_name and the kernel tables in
/// sync.
enum class KernelClass : std::uint8_t {
  Nop = 0,      ///< I / BARRIER
  PermX,        ///< X: pure pair swap, no arithmetic
  PermY,        ///< Y: pair swap with ±i phases
  PermSwap,     ///< SWAP: (01)<->(10) amplitude exchange
  Mcx,          ///< CX/CCX/MCX: controlled pair swap
  Hadamard,     ///< H: add/sub + scale
  Diag1,        ///< Z/S/T/P/RZ: diag(d0, d1)
  CtrlDiag1,    ///< CRZ (controlled diagonal with d0 != 1)
  McPhase,      ///< CZ/CP/CCZ/MCP: one phased amplitude subset
  Diag2,        ///< RZZ: 4-entry diagonal
  DiagK,        ///< DIAG: 2^k-entry diagonal
  Matrix1,      ///< general 2x2
  CtrlMatrix1,  ///< CY/CH/CRX/CRY: controlled 2x2
  Matrix2,      ///< general (fused) 4x4
  MatrixK,      ///< dense 2^k x 2^k (fusion output, CSWAP)
  Unsupported,  ///< MEASURE / RESET: not a unitary kernel
};

inline constexpr std::size_t kNumKernelClasses = 16;

/// Widest dense (MatrixK) gate either path applies: the kernel's stack
/// scratch holds 2^kMaxMatrixK amplitudes.
inline constexpr unsigned kMaxMatrixK = 10;

const char* kernel_class_name(KernelClass c);

/// Maps a gate to its kernel class. Total: every GateKind classifies
/// (MEASURE/RESET as Unsupported). This is the single source of truth for
/// which specialized kernel serves a gate.
KernelClass classify_gate(const qc::Gate& g);

/// A gate resolved for kernel application: kernel class plus every
/// coefficient pre-cast to the state precision, so applying it touches only
/// the amplitudes.
template <typename T>
struct PreparedGate {
  KernelClass cls = KernelClass::Nop;
  std::vector<unsigned> qubits;   ///< operands, gate order (qubits[0] = LSB)
  std::vector<unsigned> sorted;   ///< ascending operand bit positions
  unsigned target = 0;            ///< target qubit (1-target kernels)
  std::uint64_t cmask = 0;        ///< OR of control bits
  std::uint64_t mask = 0;         ///< OR of all operand bits (McPhase)
  /// Class-dependent payload: Diag1/CtrlDiag1 {d0,d1}; McPhase {phase};
  /// Matrix1/CtrlMatrix1 4; Diag2 4; Matrix2 16; DiagK 2^k; MatrixK 4^k.
  std::vector<std::complex<T>> coeff;
  std::vector<std::uint64_t> offs;  ///< MatrixK sub-index scatter offsets
};

/// Ranged kernel signature: apply to outer indices [begin, end) of the
/// kernel's loop space over 2^nb amplitudes (detail::blk::work_items).
template <typename T>
using RangeKernelFn = void (*)(std::complex<T>*, unsigned nb,
                               const PreparedGate<T>&, std::uint64_t begin,
                               std::uint64_t end);

namespace detail::blk {

/// Highest operand qubit + 1 (0 for operand-free gates): the minimum block
/// exponent this prepared gate is valid for.
template <typename T>
unsigned min_block_qubits(const PreparedGate<T>& pg) {
  unsigned m = 0;
  for (unsigned q : pg.qubits) m = std::max(m, q + 1);
  return m;
}

/// Size of a kernel's outer loop space on 2^nb amplitudes: one item per
/// amplitude for the streaming diagonals, one per operand subspace (pair,
/// quad, 2^k group) for every other kernel, none for Nop/Unsupported.
template <typename T>
std::uint64_t work_items(const PreparedGate<T>& pg, unsigned nb) {
  switch (pg.cls) {
    case KernelClass::Nop:
    case KernelClass::Unsupported:
      return 0;
    case KernelClass::Diag2:
    case KernelClass::DiagK:
      return pow2(nb);
    default:
      return pow2(nb - static_cast<unsigned>(pg.sorted.size()));
  }
}

template <typename T>
void bk_nop(std::complex<T>*, unsigned, const PreparedGate<T>&, std::uint64_t,
            std::uint64_t) {}

template <typename T>
void bk_perm_x(std::complex<T>* psi, unsigned, const PreparedGate<T>& pg,
               std::uint64_t begin, std::uint64_t end) {
  const unsigned t = pg.target;
  const std::uint64_t stride = pow2(t);
  for_runs(begin, end, t, [&](std::uint64_t base, std::uint64_t run) {
    std::complex<T>* lo = psi + base;
    std::complex<T>* hi = psi + base + stride;
    for (std::uint64_t j = 0; j < run; ++j) std::swap(lo[j], hi[j]);
  });
}

template <typename T>
void bk_perm_y(std::complex<T>* psi, unsigned, const PreparedGate<T>& pg,
               std::uint64_t begin, std::uint64_t end) {
  const unsigned t = pg.target;
  const std::uint64_t stride = pow2(t);
  for_runs(begin, end, t, [&](std::uint64_t base, std::uint64_t run) {
    std::complex<T>* lo = psi + base;
    std::complex<T>* hi = psi + base + stride;
    for (std::uint64_t j = 0; j < run; ++j) {
      const std::complex<T> a0 = lo[j];
      const std::complex<T> a1 = hi[j];
      lo[j] = std::complex<T>{a1.imag(), -a1.real()};   // -i * a1
      hi[j] = std::complex<T>{-a0.imag(), a0.real()};   //  i * a0
    }
  });
}

template <typename T>
void bk_hadamard(std::complex<T>* psi, unsigned, const PreparedGate<T>& pg,
                 std::uint64_t begin, std::uint64_t end) {
  const T inv_sqrt2 = static_cast<T>(0.70710678118654752440);
  const unsigned t = pg.target;
  const std::uint64_t stride = pow2(t);
  for_runs(begin, end, t, [&](std::uint64_t base, std::uint64_t run) {
    std::complex<T>* lo = psi + base;
    std::complex<T>* hi = psi + base + stride;
    for (std::uint64_t j = 0; j < run; ++j) {
      const std::complex<T> a0 = lo[j];
      const std::complex<T> a1 = hi[j];
      lo[j] = (a0 + a1) * inv_sqrt2;
      hi[j] = (a0 - a1) * inv_sqrt2;
    }
  });
}

/// diag(d0, d1). When d0 == 1 (Z, S, T, P) only the |1> half of each pair
/// is touched — half the memory traffic, which the performance model
/// accounts for.
template <typename T>
void bk_diag1(std::complex<T>* psi, unsigned, const PreparedGate<T>& pg,
              std::uint64_t begin, std::uint64_t end) {
  const std::complex<T>* f = pg.coeff.data();
  const bool skip_lower = (f[0] == std::complex<T>{T{1}, T{0}});
  const unsigned t = pg.target;
  const std::uint64_t stride = pow2(t);
  for_runs(begin, end, t, [&](std::uint64_t base, std::uint64_t run) {
    std::complex<T>* lo = psi + base;
    std::complex<T>* hi = psi + base + stride;
    if (skip_lower) {
      for (std::uint64_t j = 0; j < run; ++j) hi[j] *= f[1];
    } else {
      for (std::uint64_t j = 0; j < run; ++j) {
        lo[j] *= f[0];
        hi[j] *= f[1];
      }
    }
  });
}

template <typename T>
void bk_matrix1(std::complex<T>* psi, unsigned, const PreparedGate<T>& pg,
                std::uint64_t begin, std::uint64_t end) {
  const std::complex<T>* m = pg.coeff.data();
  const unsigned t = pg.target;
  const std::uint64_t stride = pow2(t);
  for_runs(begin, end, t, [&](std::uint64_t base, std::uint64_t run) {
    std::complex<T>* lo = psi + base;
    std::complex<T>* hi = psi + base + stride;
    for (std::uint64_t j = 0; j < run; ++j) {
      const std::complex<T> a0 = lo[j];
      const std::complex<T> a1 = hi[j];
      const std::complex<T> m00 = m[0], m01 = m[1], m10 = m[2], m11 = m[3];
      lo[j] = m00 * a0 + m01 * a1;
      hi[j] = m10 * a0 + m11 * a1;
    }
  });
}

template <typename T>
void bk_mcx(std::complex<T>* psi, unsigned, const PreparedGate<T>& pg,
            std::uint64_t begin, std::uint64_t end) {
  const std::uint64_t tbit = pow2(pg.target);
  for_runs(begin, end, pg.sorted, [&](std::uint64_t base, std::uint64_t run) {
    std::complex<T>* lo = psi + (base | pg.cmask);
    std::complex<T>* hi = lo + tbit;
    for (std::uint64_t j = 0; j < run; ++j) std::swap(lo[j], hi[j]);
  });
}

template <typename T>
void bk_ctrl_matrix1(std::complex<T>* psi, unsigned, const PreparedGate<T>& pg,
                     std::uint64_t begin, std::uint64_t end) {
  const std::complex<T>* m = pg.coeff.data();
  const std::uint64_t tbit = pow2(pg.target);
  for_runs(begin, end, pg.sorted, [&](std::uint64_t base, std::uint64_t run) {
    for (std::uint64_t i = base; i < base + run; ++i) {
      const std::uint64_t i0 = i | pg.cmask;
      const std::uint64_t i1 = i0 | tbit;
      const std::complex<T> a0 = psi[i0];
      const std::complex<T> a1 = psi[i1];
      psi[i0] = m[0] * a0 + m[1] * a1;
      psi[i1] = m[2] * a0 + m[3] * a1;
    }
  });
}

template <typename T>
void bk_ctrl_diag1(std::complex<T>* psi, unsigned, const PreparedGate<T>& pg,
                   std::uint64_t begin, std::uint64_t end) {
  const std::complex<T>* f = pg.coeff.data();
  const std::uint64_t tbit = pow2(pg.target);
  for_runs(begin, end, pg.sorted, [&](std::uint64_t base, std::uint64_t run) {
    for (std::uint64_t i = base; i < base + run; ++i) {
      const std::uint64_t i0 = i | pg.cmask;
      psi[i0] = fused_mul(f[0], psi[i0]);
      psi[i0 | tbit] = fused_mul(f[1], psi[i0 | tbit]);
    }
  });
}

/// Multiplies the single amplitude subset where every operand (controls AND
/// target — MCP is symmetric) is 1 by the phase.
template <typename T>
void bk_mc_phase(std::complex<T>* psi, unsigned, const PreparedGate<T>& pg,
                 std::uint64_t begin, std::uint64_t end) {
  for_runs(begin, end, pg.sorted, [&](std::uint64_t base, std::uint64_t run) {
    for (std::uint64_t i = base; i < base + run; ++i)
      psi[i | pg.mask] = fused_mul(pg.coeff[0], psi[i | pg.mask]);
  });
}

template <typename T>
void bk_perm_swap(std::complex<T>* psi, unsigned, const PreparedGate<T>& pg,
                  std::uint64_t begin, std::uint64_t end) {
  const std::uint64_t b0 = pow2(pg.qubits[0]), b1 = pow2(pg.qubits[1]);
  for_runs(begin, end, pg.sorted, [&](std::uint64_t base, std::uint64_t run) {
    std::complex<T>* lo = psi + (base | b0);
    std::complex<T>* hi = psi + (base | b1);
    for (std::uint64_t j = 0; j < run; ++j) std::swap(lo[j], hi[j]);
  });
}

/// General 4x4 on (qubits[0], qubits[1]) with qubits[0] the matrix LSB.
template <typename T>
void bk_matrix2(std::complex<T>* psi, unsigned, const PreparedGate<T>& pg,
                std::uint64_t begin, std::uint64_t end) {
  const std::complex<T>* m = pg.coeff.data();
  const std::uint64_t b0 = pow2(pg.qubits[0]), b1 = pow2(pg.qubits[1]);
  for_runs(begin, end, pg.sorted, [&](std::uint64_t base, std::uint64_t run) {
    for (std::uint64_t b = base; b < base + run; ++b) {
      const std::uint64_t i[4] = {b, b | b0, b | b1, b | b0 | b1};
      const std::complex<T> a0 = psi[i[0]], a1 = psi[i[1]], a2 = psi[i[2]],
                            a3 = psi[i[3]];
      for (std::size_t r = 0; r < 4; ++r) {
        const std::complex<T>* row = m + 4 * r;
        psi[i[r]] = fused_mul(a0, row[0]) + fused_mul(a1, row[1]) +
                    fused_mul(a2, row[2]) + fused_mul(a3, row[3]);
      }
    }
  });
}

template <typename T>
void bk_diag2(std::complex<T>* psi, unsigned, const PreparedGate<T>& pg,
              std::uint64_t begin, std::uint64_t end) {
  const std::uint64_t m0 = pow2(pg.qubits[0]), m1 = pow2(pg.qubits[1]);
  for (std::uint64_t i = begin; i < end; ++i) {
    const unsigned s =
        static_cast<unsigned>(((i & m1) != 0) * 2 + ((i & m0) != 0));
    psi[i] *= pg.coeff[s];
  }
}

template <typename T>
void bk_diag_k(std::complex<T>* psi, unsigned, const PreparedGate<T>& pg,
               std::uint64_t begin, std::uint64_t end) {
  const std::complex<T>* f = pg.coeff.data();
  for (std::uint64_t i = begin; i < end; ++i)
    psi[i] *= f[gather_bits(i, pg.qubits)];
}

/// Dense 2^k x 2^k unitary on qubits (qubits[0] = matrix LSB), k <=
/// kMaxMatrixK; the fused-gate execution path.
template <typename T>
void bk_matrix_k(std::complex<T>* psi, unsigned, const PreparedGate<T>& pg,
                 std::uint64_t begin, std::uint64_t end) {
  const std::uint64_t sub = pow2(static_cast<unsigned>(pg.qubits.size()));
  std::array<std::complex<T>, pow2(kMaxMatrixK)> in;
  for_runs(begin, end, pg.sorted, [&](std::uint64_t base, std::uint64_t run) {
    for (std::uint64_t i = base; i < base + run; ++i) {
      for (std::uint64_t s = 0; s < sub; ++s) in[s] = psi[i | pg.offs[s]];
      for (std::uint64_t r = 0; r < sub; ++r) {
        std::complex<T> acc{};
        const std::complex<T>* row = pg.coeff.data() + r * sub;
        for (std::uint64_t s = 0; s < sub; ++s) acc += in[s] * row[s];
        psi[i | pg.offs[r]] = acc;
      }
    }
  });
}

template <typename T>
void bk_unsupported(std::complex<T>*, unsigned, const PreparedGate<T>&,
                    std::uint64_t, std::uint64_t) {
  throw Error("block kernel: MEASURE/RESET are not block-local");
}

/// The scalar kernel family, indexed by KernelClass: the portable
/// reference every SIMD backend table starts from.
template <typename T>
inline constexpr std::array<RangeKernelFn<T>, kNumKernelClasses>
    range_kernels = {
        &bk_nop<T>,          &bk_perm_x<T>,       &bk_perm_y<T>,
        &bk_perm_swap<T>,    &bk_mcx<T>,          &bk_hadamard<T>,
        &bk_diag1<T>,        &bk_ctrl_diag1<T>,   &bk_mc_phase<T>,
        &bk_diag2<T>,        &bk_diag_k<T>,       &bk_matrix1<T>,
        &bk_ctrl_matrix1<T>, &bk_matrix2<T>,      &bk_matrix_k<T>,
        &bk_unsupported<T>,
};

}  // namespace detail::blk

/// The kernel table of the active SIMD backend: the backend's vectorized
/// entries, scalar range_kernels everywhere else. Both execution paths
/// dispatch through it. Defined in sv/simd/registry.cpp; the first call
/// triggers runtime CPU detection / the SVSIM_SIMD override (see
/// sv/simd/simd.hpp).
template <typename T>
const std::array<RangeKernelFn<T>, kNumKernelClasses>& active_kernels();

template <>
const std::array<RangeKernelFn<float>, kNumKernelClasses>&
active_kernels<float>();
template <>
const std::array<RangeKernelFn<double>, kNumKernelClasses>&
active_kernels<double>();

/// Resolves `g` for kernel application: classifies it and pre-casts every
/// coefficient to precision T. Throws for MEASURE/RESET and for dense
/// payloads wider than kMaxMatrixK.
template <typename T>
PreparedGate<T> prepare_gate(const qc::Gate& g);

extern template PreparedGate<float> prepare_gate<float>(const qc::Gate&);
extern template PreparedGate<double> prepare_gate<double>(const qc::Gate&);

/// Applies a prepared gate to a whole 2^n-amplitude state: the active
/// backend's kernel over [0, work_items), split across `pool` when the state
/// reaches the fork crossover (each item stands for 2^n / work_items
/// amplitudes: its operand subspace and the controlled-off amplitudes
/// between).
/// Precondition: every operand qubit < n.
template <typename T>
inline void apply_prepared(std::complex<T>* psi, unsigned n,
                           const PreparedGate<T>& pg, ThreadPool& pool) {
  if (pg.cls == KernelClass::Nop) return;
  const RangeKernelFn<T> kernel =
      active_kernels<T>()[static_cast<std::size_t>(pg.cls)];
  const std::uint64_t items = detail::blk::work_items(pg, n);
  pool.parallel_for(
      items,
      [=, &pg](unsigned, std::uint64_t b, std::uint64_t e) {
        kernel(psi, n, pg, b, e);
      },
      fork_cutoff(pow2(n) / items));
}

/// Applies a prepared gate serially to one aligned block of 2^nb amplitudes:
/// the active backend's kernel over its full range.
/// Precondition (the kernel contract): every operand qubit < nb.
template <typename T>
inline void apply_gate_in_block(std::complex<T>* block, unsigned nb,
                                const PreparedGate<T>& pg) {
  SVSIM_ASSERT(detail::blk::min_block_qubits(pg) <= nb);
  active_kernels<T>()[static_cast<std::size_t>(pg.cls)](
      block, nb, pg, 0, detail::blk::work_items(pg, nb));
}

}  // namespace svsim::sv
