#include "sv/fusion.hpp"

#include <algorithm>
#include <optional>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "qc/dense.hpp"

namespace svsim::sv {

namespace {

using qc::Circuit;
using qc::Gate;
using qc::GateKind;
using qc::Matrix;
using qc::cplx;

/// A pending fusion group: gates plus their combined support, in first-seen
/// order (which becomes the local bit order of the fused matrix).
struct Group {
  std::vector<Gate> gates;
  std::vector<unsigned> support;

  bool empty() const { return gates.empty(); }

  /// Local index of qubit q within the support, adding it if new.
  unsigned local(unsigned q) {
    for (unsigned i = 0; i < support.size(); ++i)
      if (support[i] == q) return i;
    support.push_back(q);
    return static_cast<unsigned>(support.size() - 1);
  }

  /// Support size if `g` joined.
  std::size_t width_with(const Gate& g) const {
    std::size_t extra = 0;
    for (unsigned q : g.qubits)
      if (std::find(support.begin(), support.end(), q) == support.end())
        ++extra;
    return support.size() + extra;
  }
};

/// Computes the fused unitary of a group: product of its gates embedded on
/// the group support, column by column via the dense reference (the group is
/// tiny, <= 2^6).
Matrix group_unitary(const Group& group) {
  const unsigned k = static_cast<unsigned>(group.support.size());
  const std::uint64_t dim = pow2(k);
  Matrix u(dim);
  std::vector<cplx> col(dim);
  // Remap each gate's qubits onto local indices once.
  std::vector<Gate> local_gates;
  local_gates.reserve(group.gates.size());
  for (const auto& g : group.gates) {
    Gate lg = g;
    for (auto& q : lg.qubits) {
      const auto it =
          std::find(group.support.begin(), group.support.end(), q);
      SVSIM_ASSERT(it != group.support.end());
      q = static_cast<unsigned>(it - group.support.begin());
    }
    local_gates.push_back(std::move(lg));
  }
  for (std::uint64_t kcol = 0; kcol < dim; ++kcol) {
    std::fill(col.begin(), col.end(), cplx{0.0, 0.0});
    col[kcol] = 1.0;
    for (const auto& lg : local_gates) qc::dense::apply_gate(col, lg, k);
    for (std::uint64_t r = 0; r < dim; ++r) u(r, kcol) = col[r];
  }
  return u;
}

bool all_diagonal(const Group& group) {
  return std::all_of(group.gates.begin(), group.gates.end(),
                     [](const Gate& g) { return g.is_diagonal(); });
}

/// Publishes the width of one emitted multi-gate block (1..6 qubits).
/// Handles resolve per call against the options' registry — caching them
/// in statics would pin whichever registry was seen first.
void observe_block_width(const FusionOptions& options, std::size_t width,
                         std::size_t gates_merged) {
  auto& registry = options.metrics != nullptr ? *options.metrics
                                              : obs::MetricsRegistry::global();
  registry.histogram("fusion.block_width", {1.0, 2.0, 3.0, 4.0, 5.0, 6.0})
      .observe(static_cast<double>(width));
  registry.counter("fusion.blocks").increment();
  registry.counter("fusion.gates_merged").add(gates_merged);
}

void flush(Group& group, Circuit& out, const FusionOptions& options) {
  if (group.empty()) return;
  if (group.gates.size() == 1) {
    out.append(group.gates.front());
  } else if (options.prefer_diagonal && all_diagonal(group)) {
    const Matrix u = group_unitary(group);
    std::vector<cplx> diag(u.dim());
    for (std::size_t i = 0; i < u.dim(); ++i) diag[i] = u(i, i);
    out.append(Gate::diag(group.support, std::move(diag)));
    observe_block_width(options, group.support.size(), group.gates.size());
  } else {
    out.append(Gate::unitary(group.support, group_unitary(group)));
    observe_block_width(options, group.support.size(), group.gates.size());
  }
  group = Group{};
}

}  // namespace

Circuit fuse(const Circuit& circuit, const FusionOptions& options) {
  require(options.max_width >= 1 && options.max_width <= kMaxFusionWidth,
          "fusion max_width must be in 1..6");
  obs::ScopedSpan span("fuse", obs::SpanCategory::Fusion);
  Circuit out(circuit.num_qubits(), circuit.num_clbits());
  Group group;
  for (const auto& g : circuit.gates()) {
    if (!g.is_unitary_op() || g.kind == GateKind::I) {
      flush(group, out, options);
      if (g.kind != GateKind::BARRIER && g.kind != GateKind::I) out.append(g);
      if (g.kind == GateKind::BARRIER) out.append(g);
      continue;
    }
    if (g.num_qubits() > options.max_width) {
      // Too wide to ever fuse; flush and pass through.
      flush(group, out, options);
      out.append(g);
      continue;
    }
    if (group.width_with(g) > options.max_width) flush(group, out, options);
    for (unsigned q : g.qubits) group.local(q);
    group.gates.push_back(g);
  }
  flush(group, out, options);
  return out;
}

}  // namespace svsim::sv
