#include "sv/state_vector.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <numbers>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "qc/dense.hpp"
#include "sv/kernels.hpp"
#include "sv/simulator.hpp"

namespace svsim::sv {
namespace {

/// Brace-friendly shim: std::span cannot bind an initializer list directly.
void set_state_of(StateVector<double>& sv,
                  std::vector<std::complex<double>> v) {
  sv.set_state(v);
}

TEST(StateVector, InitializesToZeroState) {
  StateVector<double> sv(4);
  EXPECT_EQ(sv.size(), 16u);
  EXPECT_EQ(sv.num_qubits(), 4u);
  EXPECT_NEAR(std::abs(sv.amplitude(0) - std::complex<double>{1, 0}), 0.0,
              1e-15);
  for (std::uint64_t i = 1; i < sv.size(); ++i)
    EXPECT_EQ(sv.amplitude(i), (std::complex<double>{0, 0}));
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-15);
}

TEST(StateVector, RejectsBadSizes) {
  EXPECT_THROW(StateVector<double>(0), Error);
  EXPECT_THROW(StateVector<double>(60), Error);
}

TEST(StateVector, SetBasisState) {
  StateVector<double> sv(3);
  sv.set_basis_state(5);
  EXPECT_NEAR(sv.probability(5), 1.0, 1e-15);
  EXPECT_NEAR(sv.probability(0), 0.0, 1e-15);
  EXPECT_THROW(sv.set_basis_state(8), Error);
}

TEST(StateVector, SetStateAndToVectorRoundTrip) {
  StateVector<double> sv(2);
  const std::vector<std::complex<double>> state = {0.5, 0.5, 0.5, 0.5};
  set_state_of(sv, state);
  EXPECT_EQ(sv.to_vector(), state);
}

TEST(StateVector, NormalizeScalesToUnit) {
  StateVector<double> sv(2);
  set_state_of(sv, {{1.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}});
  sv.normalize();
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-12);
}

TEST(StateVector, InnerProductOrthonormalBasis) {
  StateVector<double> a(3), b(3);
  a.set_basis_state(2);
  b.set_basis_state(2);
  EXPECT_NEAR(std::abs(a.inner_product(b) - std::complex<double>{1, 0}), 0.0,
              1e-14);
  b.set_basis_state(3);
  EXPECT_NEAR(std::abs(a.inner_product(b)), 0.0, 1e-14);
}

TEST(StateVector, InnerProductPhase) {
  StateVector<double> a(1), b(1);
  // a = |0>, b = i|0>  ->  <a|b> = i
  set_state_of(b, {{0.0, 1.0}, {0.0, 0.0}});
  const auto ip = a.inner_product(b);
  EXPECT_NEAR(ip.real(), 0.0, 1e-14);
  EXPECT_NEAR(ip.imag(), 1.0, 1e-14);
}

TEST(StateVector, ProbabilityOfOne) {
  StateVector<double> sv(2);
  // (|00> + |01>)/√2 : qubit 0 has P(1) = 1/2, qubit 1 has P(1) = 0.
  const double r = 1 / std::numbers::sqrt2;
  set_state_of(sv, {r, r, 0.0, 0.0});
  EXPECT_NEAR(sv.probability_of_one(0), 0.5, 1e-12);
  EXPECT_NEAR(sv.probability_of_one(1), 0.0, 1e-12);
  EXPECT_THROW(sv.probability_of_one(2), Error);
}

TEST(StateVector, CollapseProjectsAndRenormalizes) {
  StateVector<double> sv(2);
  const double r = 0.5;
  set_state_of(sv, {r, r, r, r});
  sv.collapse(0, true, 0.5);
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-12);
  EXPECT_NEAR(sv.probability_of_one(0), 1.0, 1e-12);
  EXPECT_NEAR(sv.probability(0), 0.0, 1e-15);
  EXPECT_NEAR(sv.probability(1), 0.5, 1e-12);
}

TEST(StateVector, MeasureDeterministicStates) {
  Xoshiro256 rng(1);
  StateVector<double> sv(2);
  sv.set_basis_state(3);
  EXPECT_TRUE(sv.measure(0, rng));
  EXPECT_TRUE(sv.measure(1, rng));
  sv.set_basis_state(0);
  EXPECT_FALSE(sv.measure(0, rng));
}

TEST(StateVector, MeasureStatisticsOnPlusState) {
  Xoshiro256 rng(7);
  int ones = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    StateVector<double> sv(1);
    apply_gate(sv, qc::Gate::h(0));
    ones += sv.measure(0, rng);
  }
  EXPECT_NEAR(static_cast<double>(ones) / trials, 0.5, 0.05);
}

TEST(StateVector, ResetForcesZero) {
  Xoshiro256 rng(3);
  StateVector<double> sv(2);
  sv.set_basis_state(3);
  sv.reset_qubit(0, rng);
  EXPECT_NEAR(sv.probability_of_one(0), 0.0, 1e-12);
  EXPECT_NEAR(sv.probability_of_one(1), 1.0, 1e-12);
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-12);
}

TEST(StateVector, SampleRespectsDistribution) {
  StateVector<double> sv(2);
  // P = {0.25, 0.25, 0.5, 0}
  set_state_of(sv, {0.5, 0.5, 1 / std::numbers::sqrt2, 0.0});
  Xoshiro256 rng(11);
  const auto samples = sv.sample(20000, rng);
  std::array<int, 4> counts{};
  for (auto s : samples) ++counts[s];
  EXPECT_NEAR(counts[0] / 20000.0, 0.25, 0.02);
  EXPECT_NEAR(counts[1] / 20000.0, 0.25, 0.02);
  EXPECT_NEAR(counts[2] / 20000.0, 0.5, 0.02);
  EXPECT_EQ(counts[3], 0);
}

TEST(StateVector, SampleDeterministicInSeed) {
  StateVector<double> sv(3);
  apply_gate(sv, qc::Gate::h(0));
  apply_gate(sv, qc::Gate::h(1));
  Xoshiro256 r1(5), r2(5);
  EXPECT_EQ(sv.sample(100, r1), sv.sample(100, r2));
}

TEST(StateVector, ExpectationSingleQubitPaulis) {
  StateVector<double> sv(1);
  // |0>: <Z> = 1, <X> = 0.
  EXPECT_NEAR(sv.expectation(qc::PauliString::from_label("Z")), 1.0, 1e-12);
  EXPECT_NEAR(sv.expectation(qc::PauliString::from_label("X")), 0.0, 1e-12);
  // |+>: <X> = 1, <Z> = 0.
  apply_gate(sv, qc::Gate::h(0));
  EXPECT_NEAR(sv.expectation(qc::PauliString::from_label("X")), 1.0, 1e-12);
  EXPECT_NEAR(sv.expectation(qc::PauliString::from_label("Z")), 0.0, 1e-12);
}

TEST(StateVector, ExpectationWithYFactor) {
  // |y+> = (|0> + i|1>)/√2 has <Y> = +1.
  StateVector<double> sv(1);
  const double r = 1 / std::numbers::sqrt2;
  set_state_of(sv, {{r, 0.0}, {0.0, r}});
  EXPECT_NEAR(sv.expectation(qc::PauliString::from_label("Y")), 1.0, 1e-12);
  EXPECT_NEAR(sv.expectation(qc::PauliString::from_label("Z")), 0.0, 1e-12);
}

TEST(StateVector, ExpectationMatchesDenseMatrixQuadratureRandomStates) {
  Xoshiro256 rng(13);
  const unsigned n = 4;
  for (const std::string label : {"ZZII", "XXYY", "IXZY", "YIIX"}) {
    // Random normalized state.
    std::vector<std::complex<double>> state(pow2(n));
    double norm = 0.0;
    for (auto& a : state) {
      a = {rng.normal(), rng.normal()};
      norm += std::norm(a);
    }
    for (auto& a : state) a /= std::sqrt(norm);

    StateVector<double> sv(n);
    set_state_of(sv, state);
    const auto p = qc::PauliString::from_label(label);
    const qc::Matrix pm = p.to_matrix();
    std::complex<double> expect{0, 0};
    for (std::uint64_t i = 0; i < state.size(); ++i)
      for (std::uint64_t j = 0; j < state.size(); ++j)
        expect += std::conj(state[i]) * pm(i, j) * state[j];
    EXPECT_NEAR(sv.expectation(p), expect.real(), 1e-10) << label;
  }
}

TEST(StateVector, ExpectationOfOperatorSumsTerms) {
  StateVector<double> sv(2);
  qc::PauliOperator op(2);
  op.add(2.0, "IZ").add(3.0, "ZI").add(0.5, "XX");
  // |00>: <IZ> = <ZI> = 1, <XX> = 0.
  EXPECT_NEAR(sv.expectation(op), 5.0, 1e-12);
}


TEST(StateVector, MarginalProbabilities) {
  // (|00> + |11>)/√2 on qubits {0,1} of a 3-qubit register.
  StateVector<double> sv(3);
  apply_gate(sv, qc::Gate::h(0));
  sv::apply_gate(sv, qc::Gate::cx(0, 1));
  const auto m01 = sv.marginal_probabilities({0, 1});
  ASSERT_EQ(m01.size(), 4u);
  EXPECT_NEAR(m01[0], 0.5, 1e-12);
  EXPECT_NEAR(m01[3], 0.5, 1e-12);
  EXPECT_NEAR(m01[1], 0.0, 1e-12);
  // Marginal of one qubit matches probability_of_one.
  const auto m0 = sv.marginal_probabilities({0});
  EXPECT_NEAR(m0[1], sv.probability_of_one(0), 1e-12);
  // Order of the qubit list sets the bit order of the bin index.
  const auto m10 = sv.marginal_probabilities({1, 0});
  EXPECT_NEAR(m10[0], m01[0], 1e-12);
  EXPECT_NEAR(m10[3], m01[3], 1e-12);
}

TEST(StateVector, MarginalSumsToOneAndValidates) {
  StateVector<double> sv(4);
  apply_gate(sv, qc::Gate::h(2));
  apply_gate(sv, qc::Gate::h(3));
  const auto m = sv.marginal_probabilities({3, 1});
  double total = 0.0;
  for (double p : m) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_THROW(sv.marginal_probabilities({}), Error);
  EXPECT_THROW(sv.marginal_probabilities({9}), Error);
}

TEST(StateVectorFloat, SinglePrecisionBasics) {
  StateVector<float> sv(3);
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-6);
  apply_gate(sv, qc::Gate::h(1));
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-6);
  EXPECT_NEAR(sv.probability_of_one(1), 0.5, 1e-6);
}

TEST(StateVectorFloat, PrecisionLowerThanDouble) {
  // Apply many gates; float error grows but stays bounded for this size.
  StateVector<float> svf(4);
  StateVector<double> svd(4);
  for (int rep = 0; rep < 50; ++rep) {
    for (unsigned q = 0; q < 4; ++q) {
      apply_gate(svf, qc::Gate::h(q));
      apply_gate(svd, qc::Gate::h(q));
    }
  }
  EXPECT_NEAR(svf.norm_squared(), 1.0, 1e-4);
  EXPECT_NEAR(svd.norm_squared(), 1.0, 1e-12);
}

// ---- the fork rule ---------------------------------------------------------

/// A random normalized state on `pool` (the same amplitudes for a seed).
StateVector<double> random_state(unsigned n, ThreadPool& pool,
                                 std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::complex<double>> amps(pow2(n));
  double norm = 0.0;
  for (auto& a : amps) {
    a = {rng.normal(), rng.normal()};
    norm += std::norm(a);
  }
  for (auto& a : amps) a /= std::sqrt(norm);
  StateVector<double> sv(n, &pool);
  sv.set_state(amps);
  return sv;
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(ForkRule, ReductionsBitIdenticalAcrossPoolSizesAroundCrossover) {
  // probability_of_one touches half the state and sample() all of it, so
  // widths crossover-1 .. crossover+1 put each just below and just above
  // the point where it starts to fork. Pools of 1, 2 and 4 threads must
  // agree bit for bit on either side: the outcomes of every measurement
  // and trajectory depend on these sums.
  const unsigned crossover = ilog2(kForkAmplitudes);
  ThreadPool one(1), two(2), four(4);
  for (unsigned n = crossover - 1; n <= crossover + 1; ++n) {
    const StateVector<double> ref = random_state(n, one, 100 + n);
    const auto ref_samples = [&] {
      Xoshiro256 rng(7);
      return ref.sample(512, rng);
    }();
    for (ThreadPool* pool : {&two, &four}) {
      const unsigned t = pool->num_threads();
      const StateVector<double> sv = random_state(n, *pool, 100 + n);
      pool->reset_stats();
      for (unsigned q : {0u, n / 2, n - 1}) {
        EXPECT_EQ(bits_of(sv.probability_of_one(q)),
                  bits_of(ref.probability_of_one(q)))
            << "n=" << n << " q=" << q << " threads=" << t;
      }
      // probability_of_one forks once half the state reaches the crossover.
      EXPECT_EQ(pool->stats().parallel_regions > 0,
                pow2(n) / 2 >= kForkAmplitudes)
          << "n=" << n << " threads=" << t;
      Xoshiro256 rng(7);
      EXPECT_EQ(sv.sample(512, rng), ref_samples)
          << "n=" << n << " threads=" << t;
    }
  }
}

TEST(ForkRule, MeasureBitIdenticalAcrossPoolSizesAroundCrossover) {
  const unsigned crossover = ilog2(kForkAmplitudes);
  ThreadPool one(1), two(2), four(4);
  for (unsigned n = crossover - 1; n <= crossover + 1; ++n) {
    StateVector<double> ref = random_state(n, one, 200 + n);
    StateVector<double> a = random_state(n, two, 200 + n);
    StateVector<double> b = random_state(n, four, 200 + n);
    Xoshiro256 rng_ref(11), rng_a(11), rng_b(11);
    for (unsigned q = 0; q < n; q += 3) {
      const bool outcome = ref.measure(q, rng_ref);
      EXPECT_EQ(a.measure(q, rng_a), outcome) << "n=" << n << " q=" << q;
      EXPECT_EQ(b.measure(q, rng_b), outcome) << "n=" << n << " q=" << q;
    }
    const std::size_t bytes = ref.size() * sizeof(std::complex<double>);
    EXPECT_EQ(std::memcmp(ref.data(), a.data(), bytes), 0) << "n=" << n;
    EXPECT_EQ(std::memcmp(ref.data(), b.data(), bytes), 0) << "n=" << n;
  }
}

}  // namespace
}  // namespace svsim::sv
