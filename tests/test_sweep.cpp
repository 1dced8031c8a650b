// Sweep planner and blocked execution engine.
//
// The planner must be exactly equivalent to the circuit (no reordering, no
// dropped gates), and the engine must produce bit-identical kernel math to
// the per-gate path. Equivalence tests deliberately straddle the block
// boundary: targets below, at, and above block_qubits in one circuit.
#include "sv/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dist/dist_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "qc/dense.hpp"
#include "qc/library.hpp"
#include "sv/engine.hpp"
#include "sv/plan.hpp"
#include "sv/simulator.hpp"

namespace svsim::sv {
namespace {

using qc::Circuit;
using qc::Gate;

TEST(AutoBlockQubits, FitsCacheBudget) {
  // 512 KiB of complex<double>: 2^15 amplitudes.
  EXPECT_EQ(auto_block_qubits(24, 512u * 1024u, 16, 3), 15u);
  // Halving the amplitude size buys one more qubit.
  EXPECT_EQ(auto_block_qubits(24, 512u * 1024u, 8, 3), 16u);
  // Tiny budget still yields a valid block.
  EXPECT_EQ(auto_block_qubits(24, 1, 16, 3), 1u);
}

TEST(AutoBlockQubits, KeepsFreeQubitsForParallelism) {
  // n=10 clamps b to n - min_free = 7 despite the large budget.
  EXPECT_EQ(auto_block_qubits(10, 512u * 1024u, 16, 3), 7u);
  // Registers at or below min_free fall back to [1, n].
  EXPECT_EQ(auto_block_qubits(2, 512u * 1024u, 16, 3), 2u);
  EXPECT_EQ(auto_block_qubits(1, 512u * 1024u, 16, 3), 1u);
}

TEST(PlanSweeps, GroupsConsecutiveLowGates) {
  Circuit c(8);
  c.h(0).rz(1, 0.3).x(2);   // sweep of 3
  c.h(6);                   // pass-through (>= b)
  c.h(1).cz(0, 2);          // sweep of 2
  SweepOptions so;
  so.block_qubits = 4;
  const SweepPlan plan = plan_sweeps(c, so);
  ASSERT_EQ(plan.steps.size(), 3u);
  EXPECT_TRUE(plan.steps[0].blocked);
  EXPECT_EQ(plan.steps[0].gates.size(), 3u);
  EXPECT_FALSE(plan.steps[1].blocked);
  EXPECT_TRUE(plan.steps[2].blocked);
  EXPECT_EQ(plan.blocked_gates, 5u);
  EXPECT_EQ(plan.passthrough_gates, 1u);
  EXPECT_EQ(plan.traversals(), 3u);
  EXPECT_NEAR(plan.gates_per_traversal(), 6.0 / 3.0, 1e-12);
}

TEST(PlanSweeps, PreservesGateOrderAndCount) {
  const Circuit c = qc::random_clifford_t(8, 120, 7);
  SweepOptions so;
  so.block_qubits = 4;
  const SweepPlan plan = plan_sweeps(c, so);
  std::vector<Gate> flattened;
  for (const auto& step : plan.steps)
    for (const auto& g : step.gates) flattened.push_back(g);
  ASSERT_EQ(flattened.size(), c.size());
  for (std::size_t i = 0; i < flattened.size(); ++i) {
    EXPECT_EQ(flattened[i].kind, c.gate(i).kind);
    EXPECT_EQ(flattened[i].qubits, c.gate(i).qubits);
  }
}

TEST(PlanSweeps, SplitsAtMaxSweepGates) {
  Circuit c(6);
  for (int i = 0; i < 10; ++i) c.h(0);
  SweepOptions so;
  so.block_qubits = 3;
  so.max_sweep_gates = 4;
  const SweepPlan plan = plan_sweeps(c, so);
  ASSERT_EQ(plan.steps.size(), 3u);  // 4 + 4 + 2
  EXPECT_EQ(plan.steps[0].gates.size(), 4u);
  EXPECT_EQ(plan.steps[2].gates.size(), 2u);
  EXPECT_EQ(plan.traversals(), 3u);
}

TEST(PlanSweeps, BarriersAndMeasureArePassThrough) {
  Circuit c(6);
  c.h(0).barrier().h(1).measure(0, 0);
  SweepOptions so;
  so.block_qubits = 3;
  const SweepPlan plan = plan_sweeps(c, so);
  EXPECT_EQ(plan.blocked_gates, 2u);
  EXPECT_EQ(plan.passthrough_gates, 1u);  // barrier is free, measure is not
  EXPECT_EQ(plan.traversals(), 3u);       // two sweeps split by the barrier
}

TEST(RunSweep, MatchesPerGateKernels) {
  const unsigned n = 8, b = 4;
  Circuit c(n);
  // Mixed kernel classes, all operands < b, including the boundary bit b-1.
  c.h(0).x(3).z(1).s(2).rz(3, 0.7).cx(0, 3).cz(1, 2).swap(0, 2);
  c.ccx(0, 1, 3).cp(2, 3, 0.4).rzz(1, 3, 0.9).u(2, 0.1, 0.2, 0.3);

  StateVector<double> blocked(n), naive(n);
  apply_gate(blocked, Gate::h(n - 1));  // spread mass beyond block 0
  apply_gate(naive, Gate::h(n - 1));
  run_sweep(blocked, c.gates().data(), c.gates().size(), b);
  for (const auto& g : c.gates()) apply_gate(naive, g);

  const auto got = blocked.to_vector();
  const auto want = naive.to_vector();
  // Same kernel math, but instruction selection (FMA contraction) may
  // differ between the block and whole-state loops: allow a few ulps.
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_NEAR(std::abs(got[i] - want[i]), 0.0, 1e-13);
}

TEST(RunSweep, RejectsOutOfBlockOperands) {
  StateVector<double> state(6);
  const Gate g = Gate::h(4);
  EXPECT_THROW(run_sweep(state, &g, 1, 4), Error);
}

TEST(RunPlan, RandomCircuitsStraddlingTheBoundary) {
  // Random circuits on 8 qubits executed with block_qubits=4: targets land
  // below, at, and above the boundary, exercising sweeps, pass-throughs,
  // and the transitions between them.
  for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
    const Circuit c = qc::random_clifford_t(8, 100, seed);
    PlanOptions po;
    po.blocking = true;
    po.block_qubits = 4;
    const ExecutionPlan plan = compile_plan(c, po);
    plan.validate();

    StateVector<double> blocked(8);
    const EngineStats stats = run_plan(blocked, plan);
    EXPECT_EQ(stats.blocked_gates + stats.passthrough_gates, c.size());
    EXPECT_EQ(stats.traversals, plan.traversals());

    const auto got = blocked.to_vector();
    const auto want = qc::dense::run(c);
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_NEAR(std::abs(got[i] - want[i]), 0.0, 1e-10);
  }
}

TEST(RunPlan, FusedCircuitMatchesDense) {
  const Circuit c = qc::random_quantum_volume(7, 5, 21);
  PlanOptions po;
  po.fusion = true;
  po.fusion_width = 3;
  po.blocking = true;
  po.block_qubits = 4;
  StateVector<double> state(7);
  run_plan(state, compile_plan(c, po));
  const auto got = state.to_vector();
  const auto want = qc::dense::run(c);
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_NEAR(std::abs(got[i] - want[i]), 0.0, 1e-9);
}

TEST(RunPlan, RejectsMeasureWithoutHook) {
  // The engine is purely unitary: a MeasureFlush phase needs the Simulator's
  // measure hook (RNG + classical bits); the bare engine must refuse it.
  Circuit c(4, 4);
  c.h(0).measure(0, 0);
  PlanOptions po;
  po.blocking = true;
  po.block_qubits = 2;
  StateVector<double> state(4);
  EXPECT_THROW(run_plan(state, compile_plan(c, po)), Error);
}

TEST(RunPlan, RejectsNoiseHookOnSweptPlan) {
  // Bit flip p=1 after every X undoes each X: |0000>. Gates inside a sweep
  // have no per-gate boundary for the channel, so the executor must refuse
  // the blocked plan rather than silently drop the noise (|1111>).
  Circuit c(4);
  for (unsigned q = 0; q < 4; ++q) c.x(q);
  SimulatorOptions so;
  so.noise.add_bit_flip(1.0);
  Simulator<double> sim(so);

  PlanOptions blocked;
  blocked.blocking = true;
  blocked.block_qubits = 2;
  const ExecutionPlan swept = compile_plan(c, blocked);
  ASSERT_TRUE(std::any_of(
      swept.phases.begin(), swept.phases.end(),
      [](const PlanPhase& p) { return p.kind == PhaseKind::LocalSweep; }));
  StateVector<double> state(4);
  EXPECT_THROW(sim.run_plan(state, swept), Error);

  PlanHooks<double> hooks;
  hooks.after_gate = [](std::size_t, StateVector<double>&, const Gate&) {};
  EXPECT_THROW(run_plan(state, swept, hooks), Error);

  StateVector<double> dense(4);
  sim.run_plan(dense, compile_plan(c, PlanOptions{}));
  EXPECT_NEAR(std::abs(dense.amplitude(0)), 1.0, 1e-12);
  EXPECT_NEAR(std::abs(dense.amplitude(15)), 0.0, 1e-12);
}

class WideMatrixK : public ::testing::TestWithParam<unsigned> {};

TEST_P(WideMatrixK, DenseAndBlockedPlansMatchReference) {
  // One MatrixK width limit on both paths: a k-qubit unitary runs unblocked
  // and inside a sweep with block_qubits = 10.
  const unsigned k = GetParam();
  const unsigned n = 11;
  Xoshiro256 rng(90 + k);
  qc::Matrix u = qc::Matrix::random_unitary(2, rng);
  for (unsigned i = 1; i < k; ++i)
    u = qc::Matrix::random_unitary(2, rng).kron(u);
  std::vector<unsigned> qs;
  for (unsigned i = 0; i < k; ++i) qs.push_back((i * 7) % 10);
  Circuit c(n);
  for (unsigned q = 0; q < n; ++q) c.h(q).t(q);
  c.append(Gate::unitary(qs, u));
  const auto want = qc::dense::run(c);

  PlanOptions blocked;
  blocked.blocking = true;
  blocked.block_qubits = 10;
  for (const PlanOptions& po : {PlanOptions{}, blocked}) {
    const ExecutionPlan plan = compile_plan(c, po);
    StateVector<double> state(n);
    run_plan(state, plan);
    const auto got = state.to_vector();
    double dist = 0.0;
    for (std::size_t i = 0; i < want.size(); ++i)
      dist = std::max(dist, std::abs(got[i] - want[i]));
    EXPECT_LT(dist, 1e-10) << "k=" << k << " blocking=" << po.blocking;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, WideMatrixK, ::testing::Values(9u, 10u));

TEST(RunPlan, SingleStateIsABatchOfOne) {
  // One plan holding all four phase kinds, executed once by run_plan and
  // once as a batch of one, each against a fresh registry, tracer and
  // profiler: the two runs must be indistinguishable.
  qc::Circuit c = qc::qft(6);
  c.measure_all();
  dist::DistExecOptions dopts;
  dopts.plan.blocking = true;
  dopts.plan.block_qubits = 2;
  const ExecutionPlan plan = dist::compile_distributed(c, 2, dopts);
  for (PhaseKind kind : {PhaseKind::LocalSweep, PhaseKind::DenseGate,
                         PhaseKind::Exchange, PhaseKind::MeasureFlush}) {
    ASSERT_TRUE(std::any_of(
        plan.phases.begin(), plan.phases.end(),
        [kind](const PlanPhase& p) { return p.kind == kind; }));
  }

  struct Run {
    std::vector<qc::cplx> amps;
    EngineStats stats;
    std::string counters;
    std::size_t spans = 0;
    std::size_t profiled_runs = 0;
  };
  auto run = [&](std::size_t batch, bool single) {
    obs::MetricsRegistry registry;
    obs::Tracer tracer;
    tracer.enable();
    obs::Profiler profiler;
    ExecutionContext ctx;
    ctx.with_metrics(registry).with_tracer(tracer).with_profiler(&profiler);
    Xoshiro256 rng(17);
    PlanHooks<double> hooks;
    hooks.measure = [&rng](std::size_t, StateVector<double>& s,
                           const Gate& g) { s.measure(g.qubits[0], rng); };
    std::vector<StateVector<double>> states;
    for (std::size_t i = 0; i < batch; ++i) states.emplace_back(6);
    std::vector<StateVector<double>*> ptrs;
    for (auto& s : states) ptrs.push_back(&s);
    Run r;
    r.stats = single ? run_plan(states[0], plan, hooks, ctx)
                     : run_plan_batch(ptrs, plan, hooks, ctx);
    r.amps = states[0].to_vector();
    std::ostringstream json;
    registry.write_json(json);
    r.counters = json.str();
    r.spans = tracer.collect().size();
    r.profiled_runs = profiler.runs_recorded();
    return r;
  };

  const Run one = run(1, /*single=*/true);
  const Run batch_of_one = run(1, /*single=*/false);
  EXPECT_EQ(one.amps, batch_of_one.amps);
  EXPECT_EQ(one.stats.sweeps, batch_of_one.stats.sweeps);
  EXPECT_EQ(one.stats.blocked_gates, batch_of_one.stats.blocked_gates);
  EXPECT_EQ(one.stats.passthrough_gates,
            batch_of_one.stats.passthrough_gates);
  EXPECT_EQ(one.stats.traversals, batch_of_one.stats.traversals);
  EXPECT_EQ(one.stats.exchanges, batch_of_one.stats.exchanges);
  EXPECT_EQ(one.stats.measure_ops, batch_of_one.stats.measure_ops);
  EXPECT_EQ(one.stats.bytes_streamed, batch_of_one.stats.bytes_streamed);
  for (const char* name : {"\"plan.executions\"", "\"sv.sweeps\"",
                           "\"sv.sweep_gates\"", "\"sv.simd.dispatch."})
    EXPECT_NE(one.counters.find(name), std::string::npos) << name;
  EXPECT_EQ(one.counters, batch_of_one.counters);
  EXPECT_GT(one.spans, 0u);
  EXPECT_EQ(one.spans, batch_of_one.spans);
  EXPECT_EQ(one.profiled_runs, 1u);
  EXPECT_EQ(batch_of_one.profiled_runs, 1u);

  // Profiler samples describe one state's traversal: a real batch records
  // none.
  EXPECT_EQ(run(4, /*single=*/false).profiled_runs, 0u);
}

TEST(EngineStats, GatesPerTraversalCountsBothPaths) {
  EngineStats s;
  s.blocked_gates = 6;
  s.passthrough_gates = 2;
  s.traversals = 3;
  EXPECT_NEAR(s.gates_per_traversal(), 8.0 / 3.0, 1e-12);
  EXPECT_EQ(EngineStats{}.gates_per_traversal(), 0.0);
}

}  // namespace
}  // namespace svsim::sv
