#include "dist/dist_plan.hpp"

#include <gtest/gtest.h>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "qc/library.hpp"

namespace svsim::dist {
namespace {

using qc::Circuit;
using qc::Gate;
using sv::ExecutionPlan;
using sv::PhaseKind;

constexpr unsigned kN = 10;   // total qubits
constexpr unsigned kD = 3;    // 8 ranks, local = 7
const double kPartitionBytes = 128.0 * 16.0;  // 2^7 amps x 16 B

/// The plan a model study compiles: no restore exchanges at the end, so
/// the exchange totals count only what the circuit itself needs.
ExecutionPlan compile(const Circuit& c, CommScheduler sched,
                      unsigned amp_bytes = 16) {
  DistExecOptions o;
  o.scheduler = sched;
  o.restore_layout = false;
  o.plan.amp_bytes = amp_bytes;
  return compile_distributed(c, kD, o);
}

TEST(DistPlan, ValidatesArguments) {
  Circuit c(4);
  c.h(0);
  EXPECT_THROW(compile_distributed(c, 4), Error);
  EXPECT_THROW(compile_distributed(c, 3), Error);
  EXPECT_NO_THROW(compile_distributed(c, 2));
}

TEST(DistPlan, LocalGatesNeverCommunicate) {
  Circuit c(kN);
  c.h(0).cx(1, 2).rz(3, 0.5).swap(4, 5).ccx(0, 1, 6);
  for (auto sched : {CommScheduler::Naive, CommScheduler::Remap}) {
    const ExecutionPlan plan = compile(c, sched);
    EXPECT_EQ(plan.num_exchanges, 0u) << scheduler_name(sched);
    EXPECT_DOUBLE_EQ(plan.exchange_bytes_per_rank, 0.0);
  }
}

TEST(DistPlan, DiagonalGatesOnNodeQubitsAreFree) {
  Circuit c(kN);
  // Qubits 7, 8, 9 live in the rank.
  c.z(8).rz(9, 0.4).cp(7, 9, 0.3).cz(0, 8).rzz(7, 8, 0.2);
  for (auto sched : {CommScheduler::Naive, CommScheduler::Remap})
    EXPECT_EQ(compile(c, sched).num_exchanges, 0u) << scheduler_name(sched);
}

TEST(DistPlan, NodeControlIsFree) {
  Circuit c(kN);
  c.cx(8, 2);   // control on node qubit, target local: conditional local X
  c.ccx(7, 9, 3);
  for (auto sched : {CommScheduler::Naive, CommScheduler::Remap})
    EXPECT_EQ(compile(c, sched).num_exchanges, 0u) << scheduler_name(sched);
}

TEST(DistPlan, NonDiagonalNodeTargetCostsFullPartitionExchange) {
  Circuit c(kN);
  c.h(8);
  const ExecutionPlan plan = compile(c, CommScheduler::Naive);
  EXPECT_EQ(plan.num_exchanges, 1u);
  EXPECT_DOUBLE_EQ(plan.exchange_bytes_per_rank, kPartitionBytes);
  ASSERT_EQ(plan.phases.front().kind, PhaseKind::Exchange);
  EXPECT_EQ(plan.phases.front().hops.at(0).rank_bit, 1);  // slot 8 -> bit 1
}

TEST(DistPlan, LocalControlHalvesExchangeVolume) {
  Circuit c(kN);
  c.cx(2, 8);  // local control, node target
  const ExecutionPlan plan = compile(c, CommScheduler::Naive);
  EXPECT_EQ(plan.num_exchanges, 1u);
  EXPECT_DOUBLE_EQ(plan.exchange_bytes_per_rank, kPartitionBytes / 2.0);
}

TEST(DistPlan, LocalNodeSwapMovesHalf) {
  Circuit c(kN);
  c.swap(3, 9);
  const ExecutionPlan plan = compile(c, CommScheduler::Naive);
  EXPECT_EQ(plan.num_exchanges, 1u);
  EXPECT_DOUBLE_EQ(plan.exchange_bytes_per_rank, kPartitionBytes / 2.0);
}

TEST(DistPlan, NaivePaysPerGateOnRepeatedNodeTargets) {
  Circuit c(kN);
  for (int i = 0; i < 5; ++i) c.h(9);
  const ExecutionPlan plan = compile(c, CommScheduler::Naive);
  EXPECT_EQ(plan.num_exchanges, 5u);
  EXPECT_DOUBLE_EQ(plan.exchange_bytes_per_rank, 5.0 * kPartitionBytes);
}

TEST(DistPlan, RemapPaysOnceForRepeatedNodeTargets) {
  Circuit c(kN);
  for (int i = 0; i < 5; ++i) c.h(9);
  const ExecutionPlan plan = compile(c, CommScheduler::Remap);
  EXPECT_EQ(plan.num_exchanges, 1u);
  EXPECT_DOUBLE_EQ(plan.exchange_bytes_per_rank, kPartitionBytes / 2.0);
  // Qubit 9 now lives in a local slot.
  EXPECT_LT(plan.final_slot_of[9], plan.local_qubits);
}

TEST(DistPlan, RemapTracksPermutationConsistently) {
  Circuit c(kN);
  c.h(9).h(8).h(7).h(9).h(8);
  const ExecutionPlan plan = compile(c, CommScheduler::Remap);
  // slot_of must stay a permutation.
  std::vector<bool> seen(kN, false);
  for (unsigned q = 0; q < kN; ++q) {
    EXPECT_LT(plan.final_slot_of[q], kN);
    EXPECT_FALSE(seen[plan.final_slot_of[q]]);
    seen[plan.final_slot_of[q]] = true;
  }
  // 3 remaps only (one per distinct qubit).
  EXPECT_EQ(plan.num_exchanges, 3u);
}

TEST(DistPlan, RemapBeatsNaiveOnQft) {
  const Circuit c = qc::qft(kN);
  const ExecutionPlan naive = compile(c, CommScheduler::Naive);
  const ExecutionPlan remap = compile(c, CommScheduler::Remap);
  EXPECT_GT(naive.exchange_bytes_per_rank, 0.0);
  EXPECT_LT(remap.exchange_bytes_per_rank, naive.exchange_bytes_per_rank);
}

TEST(DistPlan, RemapBeladyEvictsFarthestNextUse) {
  // After remapping q9 in, the evicted local qubit must be one not used
  // soon. Build a circuit where q0 is used immediately after.
  Circuit c(kN);
  c.h(9);       // forces remap; q0..q6 occupy local slots
  c.h(0);       // q0 used next -> must NOT have been evicted
  const ExecutionPlan plan = compile(c, CommScheduler::Remap);
  EXPECT_LT(plan.final_slot_of[0], plan.local_qubits);
}

TEST(DistPlan, RemapTargetsStayInLocalSlots) {
  // Under Remap only controls and diagonal operands may stay on node slots;
  // every non-diagonal target has been exchanged into the partition.
  const ExecutionPlan plan = compile(qc::qft(kN), CommScheduler::Remap);
  for (const auto& phase : plan.phases)
    for (const auto& g : phase.gates) {
      if (g.is_diagonal()) continue;
      for (unsigned q : g.targets()) EXPECT_LT(q, plan.local_qubits);
    }
}

TEST(DistPlan, ElementBytesScalesVolume) {
  // plan.amp_bytes sizes the exchanged partition: f32 amplitudes (8 B)
  // move half the bytes of f64 ones (16 B), under both schedulers.
  Circuit c(kN);
  c.h(9).cx(2, 8).swap(3, 7);
  for (auto sched : {CommScheduler::Naive, CommScheduler::Remap}) {
    const ExecutionPlan dp = compile(c, sched, 16);
    const ExecutionPlan sp = compile(c, sched, 8);
    EXPECT_GT(dp.exchange_bytes_per_rank, 0.0) << scheduler_name(sched);
    EXPECT_DOUBLE_EQ(sp.exchange_bytes_per_rank,
                     dp.exchange_bytes_per_rank / 2.0)
        << scheduler_name(sched);
  }
}

TEST(DistPlan, GhzChainCommunicatesOnlyAtBoundary) {
  // GHZ: H(0) + CX chain. Only CX gates whose *target* is a node qubit
  // exchange; with remap the count collapses further.
  const Circuit c = qc::ghz(kN);
  const ExecutionPlan naive = compile(c, CommScheduler::Naive);
  // Targets 7, 8, 9 are node qubits: 3 exchanges. cx(6,7) is halved by its
  // local control; cx(7,8) and cx(8,9) have node controls (free) and move a
  // full partition on the participating nodes.
  EXPECT_EQ(naive.num_exchanges, 3u);
  EXPECT_DOUBLE_EQ(naive.exchange_bytes_per_rank, 2.5 * kPartitionBytes);
}

}  // namespace
}  // namespace svsim::dist
