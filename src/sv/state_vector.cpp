#include "sv/state_vector.hpp"

#include <algorithm>
#include <cmath>

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#endif

#include "common/bits.hpp"
#include "common/error.hpp"

namespace svsim::sv {

template <typename T>
StateVector<T>::StateVector(unsigned num_qubits, ThreadPool* pool)
    : num_qubits_(num_qubits), pool_(pool) {
  require(num_qubits >= 1 && num_qubits <= kMaxQubits,
          "StateVector supports 1..34 qubits");
  SVSIM_ASSERT(pool_ != nullptr);
  // A state of one 2 MiB huge page or more is 2 MiB-aligned and advised for
  // transparent huge pages before the first-touch fill: a 2 GiB state then
  // takes 1024 page faults instead of 524288, and its streams walk 2 MiB
  // TLB entries.
  constexpr std::size_t kHugePage = std::size_t{2} << 20;
  const std::size_t bytes = pow2(num_qubits) * sizeof(value_type);
  amps_ = AlignedBuffer<value_type>(pow2(num_qubits),
                                    bytes >= kHugePage ? kHugePage : 4096);
#ifdef MADV_HUGEPAGE
  if (bytes >= kHugePage)  // a power of two: whole huge pages
    ::madvise(amps_.data(), bytes, MADV_HUGEPAGE);  // best effort
#endif
  set_basis_state(0);
}

template <typename T>
double StateVector<T>::probability(std::uint64_t i) const {
  const value_type a = amps_[i];
  return static_cast<double>(a.real()) * a.real() +
         static_cast<double>(a.imag()) * a.imag();
}

template <typename T>
void StateVector<T>::set_basis_state(std::uint64_t basis) {
  require(basis < size(), "set_basis_state: basis index out of range");
  value_type* psi = amps_.data();
  pool_->parallel_for(
      size(),
      [psi](unsigned, std::uint64_t b, std::uint64_t e) {
        std::fill(psi + b, psi + e, value_type{});
      },
      fork_cutoff(1));
  psi[basis] = value_type{T{1}, T{0}};
}

template <typename T>
void StateVector<T>::set_state(std::span<const std::complex<double>> state) {
  require(state.size() == size(), "set_state: size mismatch");
  value_type* psi = amps_.data();
  const std::complex<double>* src = state.data();
  pool_->parallel_for(
      size(),
      [psi, src](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i)
          psi[i] = value_type{static_cast<T>(src[i].real()),
                              static_cast<T>(src[i].imag())};
      },
      fork_cutoff(1));
}

template <typename T>
std::vector<std::complex<double>> StateVector<T>::to_vector() const {
  std::vector<std::complex<double>> out(size());
  for (std::uint64_t i = 0; i < size(); ++i)
    out[i] = {static_cast<double>(amps_[i].real()),
              static_cast<double>(amps_[i].imag())};
  return out;
}

template <typename T>
double StateVector<T>::norm_squared() const {
  const value_type* psi = amps_.data();
  return pool_->parallel_reduce(
      size(),
      [psi](unsigned, std::uint64_t b, std::uint64_t e) {
        double acc = 0.0;
        for (std::uint64_t i = b; i < e; ++i) {
          acc += static_cast<double>(psi[i].real()) * psi[i].real() +
                 static_cast<double>(psi[i].imag()) * psi[i].imag();
        }
        return acc;
      },
      fork_cutoff(1));
}

template <typename T>
void StateVector<T>::normalize() {
  const double n2 = norm_squared();
  require(n2 > 0.0, "normalize: zero state");
  const T inv = static_cast<T>(1.0 / std::sqrt(n2));
  value_type* psi = amps_.data();
  pool_->parallel_for(
      size(),
      [psi, inv](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i) psi[i] *= inv;
      },
      fork_cutoff(1));
}

template <typename T>
std::complex<double> StateVector<T>::inner_product(
    const StateVector& other) const {
  require(size() == other.size(), "inner_product: size mismatch");
  const value_type* a = amps_.data();
  const value_type* b = other.amps_.data();
  // Two reductions (real and imaginary part); simpler than a complex-typed
  // reduce and still one pass each through cache-resident test sizes.
  // Each item reads one amplitude of each state.
  const double re = pool_->parallel_reduce(
      size(),
      [a, b](unsigned, std::uint64_t lo, std::uint64_t hi) {
        double acc = 0.0;
        for (std::uint64_t i = lo; i < hi; ++i) {
          acc += static_cast<double>(a[i].real()) * b[i].real() +
                 static_cast<double>(a[i].imag()) * b[i].imag();
        }
        return acc;
      },
      fork_cutoff(2));
  const double im = pool_->parallel_reduce(
      size(),
      [a, b](unsigned, std::uint64_t lo, std::uint64_t hi) {
        double acc = 0.0;
        for (std::uint64_t i = lo; i < hi; ++i) {
          acc += static_cast<double>(a[i].real()) * b[i].imag() -
                 static_cast<double>(a[i].imag()) * b[i].real();
        }
        return acc;
      },
      fork_cutoff(2));
  return {re, im};
}

template <typename T>
double StateVector<T>::probability_of_one(unsigned q) const {
  require(q < num_qubits_, "probability_of_one: qubit out of range");
  const value_type* psi = amps_.data();
  const std::uint64_t half = size() / 2;
  // Fixed-chunk reduction (same scheme as sample()): per-chunk partials are
  // summed in chunk order, so the result is bit-identical for ANY pool size
  // and whether or not the region forks. This feeds measure() and therefore
  // every trajectory's RNG comparisons — a plain parallel_reduce would make
  // measurement outcomes depend on how many workers the caller's pool has,
  // breaking the serve guarantee that `--threads N` (per-worker pool
  // slices) reproduces `--threads 1` results exactly.
  const std::uint64_t num_chunks = std::min<std::uint64_t>(half, 1u << 12);
  if (num_chunks == half) {
    // One amplitude per chunk, far below the fork crossover: the chunk sums
    // are the terms themselves, so summing the terms in index order gives
    // the same bits. Walk the |1> runs of qubit q.
    double total = 0.0;
    for (std::uint64_t base = pow2(q); base < size(); base += pow2(q + 1)) {
      for (std::uint64_t i = base; i < base + pow2(q); ++i) {
        total += static_cast<double>(psi[i].real()) * psi[i].real() +
                 static_cast<double>(psi[i].imag()) * psi[i].imag();
      }
    }
    return total;
  }
  const std::uint64_t chunk = half / num_chunks;
  std::vector<double> partial(num_chunks, 0.0);
  double* part = partial.data();
  pool_->parallel_for(
      num_chunks,
      [psi, q, chunk, part](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t k = b; k < e; ++k) {
          double acc = 0.0;
          for (std::uint64_t c = k * chunk; c < (k + 1) * chunk; ++c) {
            const std::uint64_t i = insert_zero_bit(c, q) | pow2(q);
            acc += static_cast<double>(psi[i].real()) * psi[i].real() +
                   static_cast<double>(psi[i].imag()) * psi[i].imag();
          }
          part[k] = acc;
        }
      },
      fork_cutoff(chunk));
  double total = 0.0;
  for (std::uint64_t k = 0; k < num_chunks; ++k) total += partial[k];
  return total;
}

template <typename T>
std::vector<double> StateVector<T>::marginal_probabilities(
    const std::vector<unsigned>& qubits) const {
  require(!qubits.empty() && qubits.size() <= 20,
          "marginal_probabilities: need 1..20 qubits");
  for (unsigned q : qubits)
    require(q < num_qubits_, "marginal_probabilities: qubit out of range");
  const std::uint64_t bins = pow2(static_cast<unsigned>(qubits.size()));
  std::vector<double> out(bins, 0.0);
  // Single sequential sweep (parallel would need per-thread bins; marginals
  // are not on the hot path).
  const value_type* psi = amps_.data();
  for (std::uint64_t i = 0; i < size(); ++i) {
    const double p = static_cast<double>(psi[i].real()) * psi[i].real() +
                     static_cast<double>(psi[i].imag()) * psi[i].imag();
    out[gather_bits(i, qubits)] += p;
  }
  return out;
}

template <typename T>
void StateVector<T>::collapse(unsigned q, bool outcome, double prob_outcome) {
  require(q < num_qubits_, "collapse: qubit out of range");
  require(prob_outcome > 0.0, "collapse: zero-probability outcome");
  const T scale = static_cast<T>(1.0 / std::sqrt(prob_outcome));
  value_type* psi = amps_.data();
  const std::uint64_t half = size() / 2;
  pool_->parallel_for(
      half,
      [psi, q, outcome, scale](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t c = b; c < e; ++c) {
          const std::uint64_t i0 = insert_zero_bit(c, q);
          const std::uint64_t i1 = i0 | pow2(q);
          const std::uint64_t keep = outcome ? i1 : i0;
          const std::uint64_t kill = outcome ? i0 : i1;
          psi[keep] *= scale;
          psi[kill] = value_type{};
        }
      },
      fork_cutoff(2));
}

template <typename T>
bool StateVector<T>::measure(unsigned q, Xoshiro256& rng) {
  const double p1 = probability_of_one(q);
  const bool outcome = rng.uniform() < p1;
  collapse(q, outcome, outcome ? p1 : 1.0 - p1);
  return outcome;
}

template <typename T>
void StateVector<T>::reset_qubit(unsigned q, Xoshiro256& rng) {
  if (measure(q, rng)) {
    // Map |1> back to |0>: swap the halves (an X gate restricted to the
    // collapsed state is just a relabeling because the |0> half is zero).
    value_type* psi = amps_.data();
    const std::uint64_t half = size() / 2;
    pool_->parallel_for(
        half,
        [psi, q](unsigned, std::uint64_t b, std::uint64_t e) {
          for (std::uint64_t c = b; c < e; ++c) {
            const std::uint64_t i0 = insert_zero_bit(c, q);
            const std::uint64_t i1 = i0 | pow2(q);
            psi[i0] = psi[i1];
            psi[i1] = value_type{};
          }
        },
        fork_cutoff(2));
  }
}

template <typename T>
std::vector<std::uint64_t> StateVector<T>::sample(std::size_t shots,
                                                  Xoshiro256& rng) const {
  // Chunked cumulative distribution: one coarse table of at most 2^12
  // chunk sums, then a scan within the selected chunk. Keeps the setup pass
  // parallel-friendly and each shot cheap.
  const std::uint64_t num_chunks = std::min<std::uint64_t>(size(), 1u << 12);
  const std::uint64_t chunk = size() / num_chunks;
  std::vector<double> cum(num_chunks + 1, 0.0);
  const value_type* psi = amps_.data();
  pool_->parallel_for(
      num_chunks,
      [psi, chunk, &cum](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t k = b; k < e; ++k) {
          double acc = 0.0;
          for (std::uint64_t i = k * chunk; i < (k + 1) * chunk; ++i) {
            acc += static_cast<double>(psi[i].real()) * psi[i].real() +
                   static_cast<double>(psi[i].imag()) * psi[i].imag();
          }
          cum[k + 1] = acc;
        }
      },
      fork_cutoff(chunk));
  for (std::uint64_t k = 0; k < num_chunks; ++k) cum[k + 1] += cum[k];
  const double total = cum[num_chunks];

  std::vector<std::uint64_t> out;
  out.reserve(shots);
  for (std::size_t s = 0; s < shots; ++s) {
    const double r = rng.uniform() * total;
    // Binary search the chunk, then linear scan inside.
    const auto it = std::upper_bound(cum.begin(), cum.end(), r);
    std::uint64_t k = static_cast<std::uint64_t>(
        std::max<std::ptrdiff_t>(0, it - cum.begin() - 1));
    if (k >= num_chunks) k = num_chunks - 1;
    double acc = cum[k];
    std::uint64_t idx = k * chunk;
    for (; idx + 1 < (k + 1) * chunk; ++idx) {
      acc += static_cast<double>(psi[idx].real()) * psi[idx].real() +
             static_cast<double>(psi[idx].imag()) * psi[idx].imag();
      if (acc > r) break;
    }
    out.push_back(idx);
  }
  return out;
}

template <typename T>
double StateVector<T>::expectation(const qc::PauliString& pauli) const {
  require(pauli.num_qubits() == num_qubits_,
          "expectation: Pauli qubit count mismatch");
  const value_type* psi = amps_.data();
  const std::uint64_t x = pauli.x_mask();
  const std::uint64_t z = pauli.z_mask();
  const unsigned y_count = popcount(x & z);
  // <ψ|P|ψ> = Σ_col conj(ψ[col ^ x]) · phase(col) · ψ[col]; phase(col) =
  // i^{y_count} · (-1)^{popcount(z & col)}. The sum is real for Hermitian P.
  const double re = pool_->parallel_reduce(
      size(), [psi, x, z](unsigned, std::uint64_t b, std::uint64_t e) {
        double acc = 0.0;
        for (std::uint64_t col = b; col < e; ++col) {
          const std::uint64_t row = col ^ x;
          const double sign = (popcount(z & col) % 2) ? -1.0 : 1.0;
          const std::complex<double> a{
              static_cast<double>(psi[row].real()),
              static_cast<double>(psi[row].imag())};
          const std::complex<double> c{
              static_cast<double>(psi[col].real()),
              static_cast<double>(psi[col].imag())};
          acc += sign * (std::conj(a) * c).real();
        }
        return acc;
      },
      fork_cutoff(1));
  const double im = (y_count % 2 == 1)
                        ? pool_->parallel_reduce(
                              size(),
                              [psi, x, z](unsigned, std::uint64_t b,
                                          std::uint64_t e) {
                                double acc = 0.0;
                                for (std::uint64_t col = b; col < e; ++col) {
                                  const std::uint64_t row = col ^ x;
                                  const double sign =
                                      (popcount(z & col) % 2) ? -1.0 : 1.0;
                                  const std::complex<double> a{
                                      static_cast<double>(psi[row].real()),
                                      static_cast<double>(psi[row].imag())};
                                  const std::complex<double> c{
                                      static_cast<double>(psi[col].real()),
                                      static_cast<double>(psi[col].imag())};
                                  acc += sign * (std::conj(a) * c).imag();
                                }
                                return acc;
                              },
                              fork_cutoff(1))
                        : 0.0;
  // Multiply by i^{y_count}: rotate (re, im) accordingly and keep the real
  // part, which is the Hermitian expectation value.
  switch (y_count % 4) {
    case 0: return re;
    case 1: return -im;
    case 2: return -re;
    default: return im;
  }
}

template <typename T>
double StateVector<T>::expectation(const qc::PauliOperator& op) const {
  double total = 0.0;
  for (const auto& term : op.terms())
    total += term.coefficient * expectation(term.pauli);
  return total;
}

template class StateVector<float>;
template class StateVector<double>;

}  // namespace svsim::sv
