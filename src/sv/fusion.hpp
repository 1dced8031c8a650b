// Gate fusion: merge adjacent gates into dense k-qubit unitaries.
//
// State-vector simulation is memory-bound; a 1-qubit gate moves the whole
// state for 14 flops per pair. Fusing a run of gates whose combined support
// fits in k qubits into one 2^k x 2^k UNITARY gate raises arithmetic
// intensity ~2^k/4-fold and cuts sweeps of the state from one-per-gate to
// one-per-group. This is the optimization whose effect Table 2 of the
// reconstructed evaluation quantifies (the same technique as Qiskit Aer's
// fusion and qsim's gate grouping).
#pragma once

#include "qc/circuit.hpp"

namespace svsim::obs {
class MetricsRegistry;
}

namespace svsim::sv {

/// Widest fused group the pass accepts.
inline constexpr unsigned kMaxFusionWidth = 6;

struct FusionOptions {
  /// Maximum number of distinct qubits per fused group, 1..kMaxFusionWidth
  /// (2..6 useful).
  unsigned max_width = 3;
  /// Groups that remain a single gate pass through unchanged.
  /// Diagonal-only groups are emitted as DIAG gates (cheaper kernel).
  bool prefer_diagonal = true;
  /// Registry fusion telemetry publishes to (borrowed); nullptr = the
  /// process-wide registry.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Returns an equivalent circuit where runs of adjacent unitary gates with
/// combined support <= max_width qubits are merged into UNITARY (or DIAG)
/// gates. MEASURE/RESET/BARRIER flush the current group and are preserved.
qc::Circuit fuse(const qc::Circuit& circuit, const FusionOptions& options);

}  // namespace svsim::sv
