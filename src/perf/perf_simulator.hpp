// The circuit cost model: an ExecutionPlan priced phase by phase.
//
// `time_gate` prices one gate from its cost profile (kernel_model) and the
// thread placement and serving memory level (machine models):
//
//   gate time = max(flop time under the derated compute roof,
//                   traffic / effective bandwidth) + fork-join overhead.
//
// `cost_plan` prices a whole plan with it: a DenseGate or MeasureFlush
// phase is the sum of its gates, a LocalSweep is one state traversal for
// all its gates, an Exchange carries its wire bytes for the interconnect
// model. A circuit is modeled as cost_plan(compile_plan(circuit, options));
// without blocking every DenseGate phase is one gate, so the plan cost is
// the per-gate sum.
//
// The absolute numbers are model estimates; the point — as in the paper's
// class of analysis — is the *shape*: regime transitions over target qubit
// and register size, thread/affinity scaling, vector-length sensitivity,
// fusion payoff, and cross-machine ranking.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "machine/exec_config.hpp"
#include "machine/machine_spec.hpp"
#include "obs/context.hpp"
#include "perf/kernel_model.hpp"
#include "sv/plan.hpp"

namespace svsim::perf {

struct GateTiming {
  KernelCost cost;
  double seconds = 0.0;
  double compute_seconds = 0.0;
  double memory_seconds = 0.0;
  double overhead_seconds = 0.0;
  bool memory_bound = false;
  int serving_level = -1;  ///< cache index or -1 = memory
};

/// Models one gate on `m` under `config` for an n-qubit register.
GateTiming time_gate(const qc::Gate& gate, unsigned num_qubits,
                     const machine::MachineSpec& m,
                     const machine::ExecConfig& config);

/// Modeled cost of one ExecutionPlan phase. `seconds` is the local compute
/// time on a single rank's 2^local_qubits partition (zero for Exchange
/// phases, whose cost lives in `exchange_bytes` and is priced by the
/// caller's interconnect model).
struct PhaseCost {
  sv::PhaseKind kind = sv::PhaseKind::DenseGate;
  std::size_t gates = 0;
  double seconds = 0.0;
  double compute_seconds = 0.0;  ///< flop time under the derated compute roof
  double memory_seconds = 0.0;   ///< traffic time at the serving bandwidth
  double flops = 0.0;
  double bytes = 0.0;           ///< modeled local DRAM/cache traffic
  double exchange_bytes = 0.0;  ///< per rank, one direction (Exchange only)
  /// Report labels (static strings): the first gate's name and kernel
  /// class; "sweep" for a LocalSweep, "exchange" for an Exchange.
  std::string_view gate;
  std::string_view kernel;
  /// SIMD efficiency derating the flop time; for a sweep, the one that
  /// derates its summed flops to its flop time.
  double simd_efficiency = 1.0;

  bool memory_bound() const noexcept {
    return memory_seconds > compute_seconds;
  }
};

/// Plan-level roll-up of the first-principles model: what one rank computes
/// between exchanges. A LocalSweep phase is priced as one state traversal
/// (blocked_sweep_cost) regardless of how many gates it carries — this is
/// where the traversals-saved-between-exchanges payoff shows up against a
/// per-gate plan.
struct PlanCost {
  std::string machine_name;
  unsigned local_qubits = 0;
  unsigned block_qubits = 0;
  unsigned threads = 0;
  double compute_seconds = 0.0;
  double total_flops = 0.0;
  double total_bytes = 0.0;
  std::size_t traversals = 0;
  std::size_t num_windows = 0;
  std::size_t num_exchanges = 0;
  std::size_t num_gates = 0;
  double exchange_bytes_per_rank = 0.0;
  std::vector<PhaseCost> phases;  ///< one entry per plan phase, in order

  double achieved_gflops() const noexcept {
    return compute_seconds > 0.0 ? total_flops / compute_seconds * 1e-9 : 0.0;
  }
  double achieved_bandwidth_gbps() const noexcept {
    return compute_seconds > 0.0 ? total_bytes / compute_seconds * 1e-9
                                 : 0.0;
  }
  double gates_per_traversal() const noexcept {
    return traversals > 0
               ? static_cast<double>(num_gates) /
                     static_cast<double>(traversals)
               : 0.0;
  }
};

/// Costs every phase of `plan` on machine `m` under `config`. Gates with
/// operands on node slots are priced as the worst rank runs them on its
/// partition: a diagonal as a phase (no local operand) or as a diagonal on
/// its local slots; a gate with node controls at its full arity, the node
/// operands moved to scratch local slots.
/// Publishes the `perf.plan_cost_evals` counter and its model span through
/// `ctx` (default: the process-wide singletons).
PlanCost cost_plan(const sv::ExecutionPlan& plan, const machine::MachineSpec& m,
                   const machine::ExecConfig& config,
                   const ExecutionContext& ctx = ExecutionContext::global());

}  // namespace svsim::perf
