// Bit-manipulation helpers used by the state-vector kernels.
//
// State-vector simulation is index arithmetic: applying a gate to qubit `t`
// pairs amplitude indices that differ only in bit `t`. The helpers here
// implement the "insert zero bit(s)" enumeration that walks exactly the
// lower half of each such pair, plus small utilities (powers of two, masks,
// popcount wrappers) shared across the library.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace svsim {

/// 2^e as a 64-bit value. Precondition: e < 64.
constexpr std::uint64_t pow2(unsigned e) noexcept {
  return std::uint64_t{1} << e;
}

/// Mask with the low `n` bits set. Precondition: n <= 64.
constexpr std::uint64_t low_mask(unsigned n) noexcept {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

/// True if v is a power of two (v != 0).
constexpr bool is_pow2(std::uint64_t v) noexcept {
  return std::has_single_bit(v);
}

/// floor(log2(v)). Precondition: v != 0.
constexpr unsigned ilog2(std::uint64_t v) noexcept {
  return 63u - static_cast<unsigned>(std::countl_zero(v));
}

/// Number of set bits.
constexpr unsigned popcount(std::uint64_t v) noexcept {
  return static_cast<unsigned>(std::popcount(v));
}

/// Tests bit `b` of `v`.
constexpr bool test_bit(std::uint64_t v, unsigned b) noexcept {
  return (v >> b) & 1u;
}

/// Returns `v` with bit `b` set.
constexpr std::uint64_t set_bit(std::uint64_t v, unsigned b) noexcept {
  return v | (std::uint64_t{1} << b);
}

/// Returns `v` with bit `b` cleared.
constexpr std::uint64_t clear_bit(std::uint64_t v, unsigned b) noexcept {
  return v & ~(std::uint64_t{1} << b);
}

/// Returns `v` with bit `b` flipped.
constexpr std::uint64_t flip_bit(std::uint64_t v, unsigned b) noexcept {
  return v ^ (std::uint64_t{1} << b);
}

/// Expands `v` by inserting a zero bit at position `pos`: bits [0, pos) of v
/// stay in place, bits [pos, 63) shift up by one, bit `pos` of the result is
/// zero. This enumerates, for counter v in [0, 2^(n-1)), every n-bit index
/// whose bit `pos` is clear — the canonical 1-qubit kernel iteration.
constexpr std::uint64_t insert_zero_bit(std::uint64_t v, unsigned pos) noexcept {
  const std::uint64_t lo = v & low_mask(pos);
  const std::uint64_t hi = (v >> pos) << (pos + 1);
  return hi | lo;
}

/// Expands `v` by inserting zero bits at each position in `sorted_positions`
/// (which must be strictly ascending). Enumerates indices whose bits at all
/// the given positions are clear — the k-qubit kernel iteration.
inline std::uint64_t insert_zero_bits(
    std::uint64_t v, std::span<const unsigned> sorted_positions) noexcept {
  for (unsigned p : sorted_positions) v = insert_zero_bit(v, p);
  return v;
}

/// Extracts bit `b` of each element of `bits` and packs them little-endian:
/// result bit i = bit bits[i] of v.
inline std::uint64_t gather_bits(std::uint64_t v,
                                 const std::vector<unsigned>& bits) noexcept {
  std::uint64_t r = 0;
  for (std::size_t i = 0; i < bits.size(); ++i)
    r |= static_cast<std::uint64_t>(test_bit(v, bits[i])) << i;
  return r;
}

/// Inverse of gather_bits: scatters the low bits of `packed` into positions
/// `bits` of a zero word.
inline std::uint64_t scatter_bits(std::uint64_t packed,
                                  const std::vector<unsigned>& bits) noexcept {
  std::uint64_t r = 0;
  for (std::size_t i = 0; i < bits.size(); ++i)
    r |= static_cast<std::uint64_t>((packed >> i) & 1u) << bits[i];
  return r;
}

/// Reverses the low `n` bits of `v` (bit 0 <-> bit n-1, ...).
constexpr std::uint64_t reverse_bits(std::uint64_t v, unsigned n) noexcept {
  std::uint64_t r = 0;
  for (unsigned i = 0; i < n; ++i) r |= ((v >> i) & 1u) << (n - 1 - i);
  return r;
}

}  // namespace svsim
