#pragma once

// Internal contract between the backend kernel translation units and the
// registry (sv/simd/registry.cpp). Each backend TU returns a sparse
// override set of ranged kernels: null entries fall back to the scalar
// reference family, detail::blk::range_kernels.
// When the ISA is not compiled in (wrong architecture or missing
// compiler flags), the TU still links but reports compiled = false.

#include <array>

#include "sv/kernels.hpp"

namespace svsim::sv::simd::detail {

struct KernelOverrides {
  bool compiled = false;
  /// Hardware vector width of the compiled kernels; 0 when !compiled.
  /// For SVE this is probed at runtime (vector-length agnostic code).
  unsigned vector_bits = 0;
  std::array<RangeKernelFn<float>, kNumKernelClasses> f32{};
  std::array<RangeKernelFn<double>, kNumKernelClasses> f64{};
};

/// The scalar reference kernel of pg's class over [begin, end), for the
/// cases a backend does not vectorize. Defined in registry.cpp only,
/// so backend TUs built with their own ISA flags never compile the inline
/// scalar templates (the linker could keep such a copy for every caller).
template <typename T>
void scalar_range(std::complex<T>* psi, unsigned nb, const PreparedGate<T>& pg,
                  std::uint64_t begin, std::uint64_t end);

const KernelOverrides& generic_overrides();
const KernelOverrides& avx2_overrides();
const KernelOverrides& neon_overrides();
const KernelOverrides& sve_overrides();

}  // namespace svsim::sv::simd::detail
