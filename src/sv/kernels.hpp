// Gate-application kernels over the raw amplitude array.
//
// One scalar kernel per KernelClass, shared by the whole-state path
// (apply_gate -> apply_prepared) and the cache-blocked sweep engine. Each
// kernel streams its range once. The 1-qubit iteration is written as
// (block, contiguous-run) loops rather than a per-pair index computation so
// the inner loop is a unit-stride sweep the compiler can vectorize; for a
// target qubit t the contiguous run length is 2^t, which is exactly the
// low-target SIMD-efficiency effect the A64FX performance model captures.
//
// Index conventions match qc::Gate: for a k-qubit kernel, qs[0] is the least
// significant bit of the matrix index.
#pragma once

#include <algorithm>
#include <array>
#include <complex>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/threading.hpp"
#include "qc/gate.hpp"
#include "qc/matrix.hpp"

namespace svsim::sv {

namespace detail {

/// Splits the pair-counter space [begin, end) of a 1-qubit kernel on target
/// `t` into contiguous runs: body(i0, len) must process lower indices
/// [i0, i0+len) with partners at +2^t.
template <typename Body>
inline void for_pair_runs(std::uint64_t begin, std::uint64_t end, unsigned t,
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
  pool.parallel_for(pow2(n - 1), [=](unsigned, std::uint64_t b,
                                     std::uint64_t e) {
    for (std::uint64_t c = b; c < e; ++c) {
      const std::uint64_t i0 = insert_zero_bit(c, t);
      const std::uint64_t i1 = i0 | tbit;
      const std::complex<T> a0 = psi[i0];
      const std::complex<T> a1 = psi[i1];
      psi[i0] = m00 * a0 + m01 * a1;
      psi[i1] = m10 * a0 + m11 * a1;
    }
  });
}

// ---- the kernel family and its dispatch tables ------------------------------
//
// One scalar kernel per KernelClass serves both execution paths. Each kernel
// takes an outer-index range [begin, end) over its own loop space on a
// 2^nb-amplitude array; work_items(pg, nb) is the size of that space. The
// kernel contract (documented in docs/ARCHITECTURE.md):
//
//  * Operands: every operand qubit of the gate is < nb. The whole-state
//    path (apply_prepared) passes nb = n; the cache-blocked engine
//    (sv/engine.hpp) passes the block exponent b, so the gate acts
//    identically and independently on each aligned block of 2^b amplitudes.
//  * Threading: kernels are SERIAL over their range. apply_prepared splits
//    [0, work_items) across the pool; the blocked engine owns one
//    parallel_for over blocks (statically partitioned so each worker streams
//    the pages it first-touched) and runs each kernel over its full range.
//    A kernel must never re-enter the pool.
//  * Coefficients: pre-cast once into PreparedGate<T> — the kernel loop does
//    no matrix conversion or allocation (MatrixK uses a fixed stack scratch,
//    hence its k <= kMaxMatrixK limit on both paths).
//  * Dispatch: one indirect call per (gate, range) through the ranged table
//    (whole-state path) or per (gate, block) through block_kernel_table<T>()
//    or a SIMD backend's table, indexed by KernelClass.
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
  for_pair_runs(begin, end, t, [&](std::uint64_t base, std::uint64_t run) {
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
  for_pair_runs(begin, end, t, [&](std::uint64_t base, std::uint64_t run) {
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
  for_pair_runs(begin, end, t, [&](std::uint64_t base, std::uint64_t run) {
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
  for_pair_runs(begin, end, t, [&](std::uint64_t base, std::uint64_t run) {
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
  for_pair_runs(begin, end, t, [&](std::uint64_t base, std::uint64_t run) {
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
  for (std::uint64_t c = begin; c < end; ++c) {
    const std::uint64_t i0 = insert_zero_bits(c, pg.sorted) | pg.cmask;
    std::swap(psi[i0], psi[i0 | tbit]);
  }
}

template <typename T>
void bk_ctrl_matrix1(std::complex<T>* psi, unsigned, const PreparedGate<T>& pg,
                     std::uint64_t begin, std::uint64_t end) {
  const std::complex<T>* m = pg.coeff.data();
  const std::uint64_t tbit = pow2(pg.target);
  for (std::uint64_t c = begin; c < end; ++c) {
    const std::uint64_t i0 = insert_zero_bits(c, pg.sorted) | pg.cmask;
    const std::uint64_t i1 = i0 | tbit;
    const std::complex<T> a0 = psi[i0];
    const std::complex<T> a1 = psi[i1];
    psi[i0] = m[0] * a0 + m[1] * a1;
    psi[i1] = m[2] * a0 + m[3] * a1;
  }
}

template <typename T>
void bk_ctrl_diag1(std::complex<T>* psi, unsigned, const PreparedGate<T>& pg,
                   std::uint64_t begin, std::uint64_t end) {
  const std::complex<T>* f = pg.coeff.data();
  const std::uint64_t tbit = pow2(pg.target);
  for (std::uint64_t c = begin; c < end; ++c) {
    const std::uint64_t i0 = insert_zero_bits(c, pg.sorted) | pg.cmask;
    const std::complex<T> f0 = f[0];
    psi[i0] = f0 * psi[i0];
    const std::complex<T> f1 = f[1];
    psi[i0 | tbit] = f1 * psi[i0 | tbit];
  }
}

/// Multiplies the single amplitude subset where every operand (controls AND
/// target — MCP is symmetric) is 1 by the phase.
template <typename T>
void bk_mc_phase(std::complex<T>* psi, unsigned, const PreparedGate<T>& pg,
                 std::uint64_t begin, std::uint64_t end) {
  for (std::uint64_t c = begin; c < end; ++c)
    psi[insert_zero_bits(c, pg.sorted) | pg.mask] *= pg.coeff[0];
}

template <typename T>
void bk_perm_swap(std::complex<T>* psi, unsigned, const PreparedGate<T>& pg,
                  std::uint64_t begin, std::uint64_t end) {
  const std::uint64_t b0 = pow2(pg.qubits[0]), b1 = pow2(pg.qubits[1]);
  for (std::uint64_t c = begin; c < end; ++c) {
    const std::uint64_t base = insert_zero_bits(c, pg.sorted);
    std::swap(psi[base | b0], psi[base | b1]);
  }
}

/// General 4x4 on (qubits[0], qubits[1]) with qubits[0] the matrix LSB.
template <typename T>
void bk_matrix2(std::complex<T>* psi, unsigned, const PreparedGate<T>& pg,
                std::uint64_t begin, std::uint64_t end) {
  const std::complex<T>* m = pg.coeff.data();
  const std::uint64_t b0 = pow2(pg.qubits[0]), b1 = pow2(pg.qubits[1]);
  for (std::uint64_t c = begin; c < end; ++c) {
    const std::uint64_t base = insert_zero_bits(c, pg.sorted);
    const std::uint64_t i[4] = {base, base | b0, base | b1, base | b0 | b1};
    const std::complex<T> a0 = psi[i[0]], a1 = psi[i[1]], a2 = psi[i[2]],
                          a3 = psi[i[3]];
    psi[i[0]] = m[0] * a0 + m[1] * a1 + m[2] * a2 + m[3] * a3;
    psi[i[1]] = m[4] * a0 + m[5] * a1 + m[6] * a2 + m[7] * a3;
    psi[i[2]] = m[8] * a0 + m[9] * a1 + m[10] * a2 + m[11] * a3;
    psi[i[3]] = m[12] * a0 + m[13] * a1 + m[14] * a2 + m[15] * a3;
  }
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
  for (std::uint64_t c = begin; c < end; ++c) {
    const std::uint64_t base = insert_zero_bits(c, pg.sorted);
    for (std::uint64_t s = 0; s < sub; ++s) in[s] = psi[base | pg.offs[s]];
    for (std::uint64_t r = 0; r < sub; ++r) {
      std::complex<T> acc{};
      const std::complex<T>* row = pg.coeff.data() + r * sub;
      for (std::uint64_t s = 0; s < sub; ++s) acc += in[s] * row[s];
      psi[base | pg.offs[r]] = acc;
    }
  }
}

template <typename T>
void bk_unsupported(std::complex<T>*, unsigned, const PreparedGate<T>&,
                    std::uint64_t, std::uint64_t) {
  throw Error("block kernel: MEASURE/RESET are not block-local");
}

/// Ranged kernel signature: apply to outer indices [begin, end) of the
/// kernel's loop space over 2^nb amplitudes.
template <typename T>
using RangeKernelFn = void (*)(std::complex<T>*, unsigned nb,
                               const PreparedGate<T>&, std::uint64_t begin,
                               std::uint64_t end);

/// The scalar kernel family, indexed by KernelClass.
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

/// The scalar kernel of class C over its full range: the whole-block form
/// the dispatch tables hold and SIMD backends fall back to.
template <typename T, KernelClass C>
void full_range(std::complex<T>* psi, unsigned nb, const PreparedGate<T>& pg) {
  range_kernels<T>[static_cast<std::size_t>(C)](psi, nb, pg, 0,
                                                work_items(pg, nb));
}

}  // namespace detail::blk

/// Serial block-kernel signature: apply to block[0 .. 2^nb).
template <typename T>
using BlockKernelFn = void (*)(std::complex<T>*, unsigned nb,
                               const PreparedGate<T>&);

/// The portable scalar reference table, indexed by KernelClass: the ranged
/// kernels over their full range. SIMD backends (sv/simd) derive their
/// tables from this one, substituting hand-vectorized entries; it also
/// serves as the equivalence oracle in tests.
template <typename T>
inline const std::array<BlockKernelFn<T>, kNumKernelClasses>&
block_kernel_table() {
  static const std::array<BlockKernelFn<T>, kNumKernelClasses> table =
      []<std::size_t... C>(std::index_sequence<C...>) {
        return std::array<BlockKernelFn<T>, kNumKernelClasses>{
            &detail::blk::full_range<T, static_cast<KernelClass>(C)>...};
      }(std::make_index_sequence<kNumKernelClasses>{});
  return table;
}

/// The table of the active SIMD backend (scalar entries where the backend
/// has no hand-vectorized kernel). Defined in sv/simd/registry.cpp; the
/// first call triggers runtime CPU detection / the SVSIM_SIMD override
/// (see sv/simd/simd.hpp).
template <typename T>
const std::array<BlockKernelFn<T>, kNumKernelClasses>&
active_block_kernel_table();

template <>
const std::array<BlockKernelFn<float>, kNumKernelClasses>&
active_block_kernel_table<float>();
template <>
const std::array<BlockKernelFn<double>, kNumKernelClasses>&
active_block_kernel_table<double>();

/// Resolves `g` for kernel application: classifies it and pre-casts every
/// coefficient to precision T. Throws for MEASURE/RESET and for dense
/// payloads wider than kMaxMatrixK.
template <typename T>
PreparedGate<T> prepare_gate(const qc::Gate& g);

extern template PreparedGate<float> prepare_gate<float>(const qc::Gate&);
extern template PreparedGate<double> prepare_gate<double>(const qc::Gate&);

/// Applies a prepared gate to a whole 2^n-amplitude state: the scalar
/// kernel of its class over [0, work_items), split across `pool`.
/// Precondition: every operand qubit < n.
template <typename T>
inline void apply_prepared(std::complex<T>* psi, unsigned n,
                           const PreparedGate<T>& pg, ThreadPool& pool) {
  if (pg.cls == KernelClass::Nop) return;
  const detail::blk::RangeKernelFn<T> kernel =
      detail::blk::range_kernels<T>[static_cast<std::size_t>(pg.cls)];
  pool.parallel_for(detail::blk::work_items(pg, n),
                    [=, &pg](unsigned, std::uint64_t b, std::uint64_t e) {
                      kernel(psi, n, pg, b, e);
                    });
}

/// Applies a prepared gate serially to one aligned block of 2^nb amplitudes
/// through the active SIMD backend's table.
/// Precondition (the kernel contract): every operand qubit < nb.
template <typename T>
inline void apply_gate_in_block(std::complex<T>* block, unsigned nb,
                                const PreparedGate<T>& pg) {
  SVSIM_ASSERT(detail::blk::min_block_qubits(pg) <= nb);
  active_block_kernel_table<T>()[static_cast<std::size_t>(pg.cls)](block, nb,
                                                                  pg);
}

}  // namespace svsim::sv
