// SIMD backend equivalence and the kernel contract. Every compiled-and-
// available backend must
// reproduce the portable scalar reference (sv::detail::blk::range_kernels)
// on random states, for every KernelClass, at both precisions, within the
// documented ULP bounds (sv/simd/simd.hpp): 1e-13 absolute on normalized
// f64 states, 1e-5 on f32; bit-exact for permutation and Hadamard entries.
// Within one backend, results are bit-identical however [0, work_items) is
// split, at any pool size, and on the dense and the blocked path.
// Backends the binary lacks (e.g. NEON on x86) or the CPU cannot run are
// skipped, not failed, so the suite is green on every host.
#include "sv/simd/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "qc/circuit.hpp"
#include "qc/gate.hpp"
#include "qc/library.hpp"
#include "qc/matrix.hpp"
#include "sv/engine.hpp"
#include "sv/kernels.hpp"
#include "sv/plan.hpp"
#include "sv/simulator.hpp"
#include "sv/state_vector.hpp"

namespace svsim::sv {
namespace {

using qc::Gate;
using qc::Matrix;

std::size_t idx(KernelClass c) { return static_cast<std::size_t>(c); }

const simd::BackendInfo* backend_info(simd::Isa isa) {
  static const std::vector<simd::BackendInfo> all = simd::backends();
  for (const auto& b : all)
    if (b.isa == isa) return &b;
  return nullptr;
}

/// Normalized random block of 2^n amplitudes.
template <typename T>
std::vector<std::complex<T>> random_block(unsigned n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::complex<T>> v(pow2(n));
  double norm = 0.0;
  for (auto& a : v) {
    const double re = rng.normal(), im = rng.normal();
    a = {static_cast<T>(re), static_cast<T>(im)};
    norm += re * re + im * im;
  }
  const T inv = static_cast<T>(1.0 / std::sqrt(norm));
  for (auto& a : v) a *= inv;
  return v;
}

std::vector<unsigned> distinct_qubits(unsigned n, unsigned k,
                                      Xoshiro256& rng) {
  std::vector<unsigned> qs;
  while (qs.size() < k) {
    const auto q = static_cast<unsigned>(rng.uniform_int(n));
    if (std::find(qs.begin(), qs.end(), q) == qs.end()) qs.push_back(q);
  }
  return qs;
}

/// One representative gate per applicable KernelClass at random operand
/// positions (Unsupported has no applicable gate; 3-operand classes need
/// n >= 3). Together with the per-target sweeps below this exercises every
/// dispatch-table entry a backend can override.
std::vector<Gate> representative_gates(unsigned n, Xoshiro256& rng) {
  const auto q2 = distinct_qubits(n, 2, rng);
  std::vector<Gate> gates = {
      Gate::i(q2[0]),                       // Nop
      Gate::x(q2[0]),                       // PermX
      Gate::y(q2[1]),                       // PermY
      Gate::swap(q2[0], q2[1]),             // PermSwap
      Gate::cx(q2[0], q2[1]),               // Mcx
      Gate::h(q2[0]),                       // Hadamard
      Gate::rz(q2[1], 0.7),                 // Diag1
      Gate::s(q2[0]),                       // Diag1 (skip_lower path)
      Gate::crz(q2[0], q2[1], 0.6),         // CtrlDiag1
      Gate::cp(q2[0], q2[1], 0.5),          // McPhase
      Gate::rzz(q2[0], q2[1], 0.8),         // Diag2
      Gate::u(q2[0], 0.3, 0.7, 1.9),        // Matrix1
      Gate::cry(q2[0], q2[1], 0.4),         // CtrlMatrix1
      Gate::rxx(q2[0], q2[1], 0.3),         // Matrix2
      Gate::u2q(q2[0], q2[1], Matrix::random_unitary(4, rng)),  // Matrix2
      Gate::diag({q2[0], q2[1]},
                 {std::polar(1.0, 0.3), std::polar(1.0, 1.1),
                  std::polar(1.0, 2.2), std::polar(1.0, 4.0)}),  // DiagK
  };
  if (n >= 3) {
    const auto q3 = distinct_qubits(n, 3, rng);
    gates.push_back(Gate::ccx(q3[0], q3[1], q3[2]));    // Mcx, 2 controls
    gates.push_back(Gate::cswap(q3[0], q3[1], q3[2]));  // MatrixK
    gates.push_back(
        Gate::unitary(q3, Matrix::random_unitary(8, rng)));  // MatrixK
  }
  return gates;
}

/// Applies `g` through the active table and the scalar reference on the
/// same random block; returns the max absolute amplitude difference.
template <typename T>
double divergence(const Gate& g, unsigned n, std::uint64_t seed) {
  const PreparedGate<T> pg = prepare_gate<T>(g);
  const auto& active = active_kernels<T>();
  const auto& scalar = detail::blk::range_kernels<T>;
  const std::uint64_t items = detail::blk::work_items(pg, n);
  std::vector<std::complex<T>> a = random_block<T>(n, seed);
  std::vector<std::complex<T>> b = a;
  active[idx(pg.cls)](a.data(), n, pg, 0, items);
  scalar[idx(pg.cls)](b.data(), n, pg, 0, items);
  double dist = 0.0;
  for (std::uint64_t i = 0; i < a.size(); ++i)
    dist = std::max(dist, static_cast<double>(std::abs(a[i] - b[i])));
  return dist;
}

template <typename T>
void check_backend_vs_scalar(double tol) {
  for (unsigned n = 2; n <= 10; ++n) {
    Xoshiro256 rng(0x51d0 + n);
    for (const Gate& g : representative_gates(n, rng))
      EXPECT_LE(divergence<T>(g, n, 7700 + n), tol)
          << g.to_string() << " on n=" << n;
    // Vectorized classes at every target: the low targets (t < lanes) take
    // the in-register swizzle paths, high targets the unit-stride paths.
    for (unsigned t = 0; t < n; ++t) {
      EXPECT_EQ(divergence<T>(Gate::h(t), n, 8800 + t), 0.0)
          << "Hadamard must stay bit-exact at t=" << t << " n=" << n;
      EXPECT_LE(divergence<T>(Gate::rz(t, 1.13), n, 8900 + t), tol)
          << "rz t=" << t << " n=" << n;
      EXPECT_LE(divergence<T>(Gate::u(t, 0.3, 0.7, 1.9), n, 9000 + t), tol)
          << "u t=" << t << " n=" << n;
    }
  }
}

/// Selects the parameterized backend for the test body (skipping when it
/// is unavailable on this build/CPU) and restores the previous one after.
class BackendEquivalence : public ::testing::TestWithParam<simd::Isa> {
 protected:
  void SetUp() override {
    prev_ = simd::active_backend().isa;
    const simd::BackendInfo* b = backend_info(GetParam());
    ASSERT_NE(b, nullptr);
    if (!b->available)
      GTEST_SKIP() << simd::isa_name(GetParam())
                   << " backend not available on this build/CPU";
    ASSERT_TRUE(simd::select_backend(GetParam()));
  }
  void TearDown() override { simd::select_backend(prev_); }

 private:
  simd::Isa prev_ = simd::Isa::Scalar;
};

TEST_P(BackendEquivalence, MatchesScalarReferenceF64) {
  check_backend_vs_scalar<double>(1e-13);
}

TEST_P(BackendEquivalence, MatchesScalarReferenceF32) {
  check_backend_vs_scalar<float>(1e-5);
}

TEST_P(BackendEquivalence, NonOverriddenEntriesAreTheScalarReference) {
  // Classes a backend does not hand-vectorize must dispatch to the exact
  // scalar function pointers — Unsupported among them, so the blocked
  // engine's error path is backend-independent.
  const auto& active_d = active_kernels<double>();
  const auto& scalar_d = detail::blk::range_kernels<double>;
  EXPECT_EQ(active_d[idx(KernelClass::Unsupported)],
            scalar_d[idx(KernelClass::Unsupported)]);
  const std::size_t overridden = simd::active_backend().overridden_classes;
  std::size_t differing = 0;
  for (std::size_t i = 0; i < kNumKernelClasses; ++i)
    differing += active_d[i] != scalar_d[i] ? 1 : 0;
  EXPECT_LE(differing, overridden);
}

template <typename T>
bool same_bytes(const std::vector<std::complex<T>>& a,
                const std::vector<std::complex<T>>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
}

/// `g` through the active kernel table on a random block, one call per
/// piece of [0, work_items) cut at `cuts` (ascending, inside the range).
template <typename T>
std::vector<std::complex<T>> apply_split(const Gate& g, unsigned n,
                                         std::uint64_t seed,
                                         const std::vector<std::uint64_t>& cuts) {
  const PreparedGate<T> pg = prepare_gate<T>(g);
  const RangeKernelFn<T> kernel = active_kernels<T>()[idx(pg.cls)];
  std::vector<std::complex<T>> a = random_block<T>(n, seed);
  std::uint64_t lo = 0;
  for (std::uint64_t c : cuts) {
    kernel(a.data(), n, pg, lo, c);
    lo = c;
  }
  kernel(a.data(), n, pg, lo, detail::blk::work_items(pg, n));
  return a;
}

template <typename T>
void check_partition_invariance() {
  for (unsigned n = 2; n <= 9; ++n) {
    Xoshiro256 rng(0xc0de + n);
    std::vector<Gate> gates = representative_gates(n, rng);
    for (unsigned t = 0; t < n; ++t) {
      gates.push_back(Gate::h(t));
      gates.push_back(Gate::x(t));
      gates.push_back(Gate::rz(t, 1.13));
      gates.push_back(Gate::u(t, 0.3, 0.7, 1.9));
    }
    for (const Gate& g : gates) {
      const std::uint64_t items =
          detail::blk::work_items(prepare_gate<T>(g), n);
      const std::uint64_t seed = 4400 + n;
      const auto whole = apply_split<T>(g, n, seed, {});
      // Every index in its own call: each vector group is cut everywhere.
      std::vector<std::uint64_t> every;
      for (std::uint64_t c = 1; c < items; ++c) every.push_back(c);
      EXPECT_TRUE(same_bytes(whole, apply_split<T>(g, n, seed, every)))
          << g.to_string() << " one index per call, n=" << n;
      for (int trial = 0; trial < 4 && items > 1; ++trial) {
        std::vector<std::uint64_t> cuts;
        for (int k = 0; k < 3; ++k)
          cuts.push_back(1 + rng.uniform_int(items - 1));
        std::sort(cuts.begin(), cuts.end());
        cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
        EXPECT_TRUE(same_bytes(whole, apply_split<T>(g, n, seed, cuts)))
            << g.to_string() << " cut at " << cuts.front() << ", n=" << n;
      }
    }
  }
}

TEST_P(BackendEquivalence, RangeSplitsAreBitExactF64) {
  check_partition_invariance<double>();
}

TEST_P(BackendEquivalence, RangeSplitsAreBitExactF32) {
  check_partition_invariance<float>();
}

/// The active entry and the scalar reference agree bit for bit.
template <typename T>
bool exact_vs_scalar(const Gate& g, unsigned n, std::uint64_t seed) {
  const PreparedGate<T> pg = prepare_gate<T>(g);
  const std::uint64_t items = detail::blk::work_items(pg, n);
  std::vector<std::complex<T>> a = random_block<T>(n, seed);
  std::vector<std::complex<T>> b = a;
  active_kernels<T>()[idx(pg.cls)](a.data(), n, pg, 0, items);
  detail::blk::range_kernels<T>[idx(pg.cls)](b.data(), n, pg, 0, items);
  return same_bytes(a, b);
}

template <typename T>
void check_permutations_exact() {
  for (unsigned n = 2; n <= 10; ++n) {
    std::vector<Gate> gates;
    for (unsigned a = 0; a < n; ++a) {
      gates.push_back(Gate::x(a));
      for (unsigned b = 0; b < n; ++b) {
        if (a == b) continue;
        gates.push_back(Gate::cx(a, b));
        gates.push_back(Gate::swap(a, b));
        // Two controls, q0/q1 and the top qubit among the placements.
        for (unsigned c : {0u, 1u, n - 1})
          if (c != a && c != b) gates.push_back(Gate::ccx(a, c, b));
      }
    }
    if (n >= 4) {
      gates.push_back(Gate::mcx({0, 1, 2}, n - 1));
      gates.push_back(Gate::mcx({n - 1, 2, 0}, 1));
      gates.push_back(Gate::mcx({1, n - 2, n - 1}, 0));
    }
    for (const Gate& g : gates)
      EXPECT_TRUE(exact_vs_scalar<T>(g, n, 5100 + n))
          << g.to_string() << " on n=" << n;
  }
}

TEST_P(BackendEquivalence, PermutationsBitExactF64) {
  check_permutations_exact<double>();
}

TEST_P(BackendEquivalence, PermutationsBitExactF32) {
  check_permutations_exact<float>();
}

template <typename T>
void check_pool_size_invariance() {
  const unsigned n = 16;  // enough work items that every pool size splits
  Xoshiro256 rng(0x9001);
  std::vector<Gate> gates = representative_gates(n, rng);
  gates.push_back(Gate::h(0));
  gates.push_back(Gate::cx(0, 1));
  gates.push_back(Gate::u(1, 0.3, 0.7, 1.9));
  std::vector<qc::cplx> init(pow2(n));
  for (auto& a : init) a = {rng.normal() / 256, rng.normal() / 256};
  for (const Gate& g : gates) {
    std::vector<std::complex<T>> first;
    for (unsigned threads = 1; threads <= 4; ++threads) {
      ThreadPool pool(threads);
      StateVector<T> s(n, &pool);
      s.set_state(init);
      apply_gate(s, g);
      std::vector<std::complex<T>> got(s.data(), s.data() + s.size());
      if (threads == 1)
        first = std::move(got);
      else
        EXPECT_TRUE(same_bytes(first, got))
            << g.to_string() << " at " << threads << " threads";
    }
  }
}

TEST_P(BackendEquivalence, ApplyGateIsPoolSizeInvariantF64) {
  check_pool_size_invariance<double>();
}

TEST_P(BackendEquivalence, ApplyGateIsPoolSizeInvariantF32) {
  check_pool_size_invariance<float>();
}

template <typename T>
void check_dense_matches_blocked() {
  const unsigned n = 12;
  qc::Circuit c = qc::random_quantum_volume(n, 3, 11);
  c.h(0).cx(0, 1).cx(1, 2).cp(0, 3, 0.4).swap(1, 6).rz(0, 0.3).crz(2, 0, 0.5);
  c.ccx(0, 1, 2).u(1, 0.3, 0.7, 1.9).cx(4, 0).swap(0, 11).h(7);
  PlanOptions dense_opts;
  PlanOptions blocked_opts;
  blocked_opts.blocking = true;
  blocked_opts.block_qubits = 6;
  const ExecutionPlan dense = compile_plan(c, dense_opts);
  const ExecutionPlan blocked = compile_plan(c, blocked_opts);
  ASSERT_GT(blocked.block_qubits, 0u);
  StateVector<T> a(n), b(n);
  std::vector<qc::cplx> init(pow2(n));
  Xoshiro256 rng(0xb10c);
  for (auto& x : init) x = {rng.normal() / 64, rng.normal() / 64};
  a.set_state(init);
  b.set_state(init);
  run_plan(a, dense);
  run_plan(b, blocked);
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(a.data()[0])),
            0);
}

TEST_P(BackendEquivalence, DenseAndBlockedPlansAgreeBitExactlyF64) {
  check_dense_matches_blocked<double>();
}

TEST_P(BackendEquivalence, DenseAndBlockedPlansAgreeBitExactlyF32) {
  check_dense_matches_blocked<float>();
}

INSTANTIATE_TEST_SUITE_P(AllIsas, BackendEquivalence,
                         ::testing::Values(simd::Isa::Scalar,
                                           simd::Isa::Generic,
                                           simd::Isa::Avx2, simd::Isa::Neon,
                                           simd::Isa::Sve),
                         [](const auto& info) {
                           return std::string(simd::isa_name(info.param));
                         });

// ---- registry behavior ----------------------------------------------------

TEST(SimdRegistry, EnumeratesEveryIsaOnce) {
  const auto all = simd::backends();
  ASSERT_EQ(all.size(), simd::kNumIsas);
  for (std::size_t i = 0; i < all.size(); ++i)
    EXPECT_EQ(static_cast<std::size_t>(all[i].isa), i);
  // Scalar and the compiler-vector backend have no hardware prerequisite.
  EXPECT_TRUE(backend_info(simd::Isa::Scalar)->available);
  EXPECT_TRUE(backend_info(simd::Isa::Generic)->available);
}

TEST(SimdRegistry, RejectsUnknownAndUnavailableSelection) {
  const simd::Isa prev = simd::active_backend().isa;
  EXPECT_FALSE(simd::select_backend("bogus"));
  EXPECT_EQ(simd::active_backend().isa, prev)
      << "a failed selection must not change the active backend";
  for (const auto& b : simd::backends())
    if (!b.available) EXPECT_FALSE(simd::select_backend(b.isa));
  EXPECT_EQ(simd::active_backend().isa, prev);
}

TEST(SimdRegistry, EnvOverrideRoundTrip) {
  const simd::Isa prev = simd::active_backend().isa;
  for (const auto& b : simd::backends()) {
    if (!b.available) continue;
    ASSERT_EQ(::setenv("SVSIM_SIMD", b.name, 1), 0);
    simd::select_default_backend();
    EXPECT_EQ(simd::active_backend().isa, b.isa) << "SVSIM_SIMD=" << b.name;
  }
  ::unsetenv("SVSIM_SIMD");
  simd::select_backend(prev);
}

TEST(SimdRegistry, EffectiveVectorBitsFallsBackToOneComplex) {
  const simd::Isa prev = simd::active_backend().isa;
  ASSERT_TRUE(simd::select_backend(simd::Isa::Scalar));
  EXPECT_EQ(simd::effective_vector_bits(8), 128u);  // one complex<double>
  EXPECT_EQ(simd::effective_vector_bits(4), 64u);   // one complex<float>
  const simd::BackendInfo* gen = backend_info(simd::Isa::Generic);
  ASSERT_TRUE(simd::select_backend(simd::Isa::Generic));
  EXPECT_EQ(simd::effective_vector_bits(8), gen->vector_bits);
  simd::select_backend(prev);
}

}  // namespace
}  // namespace svsim::sv
