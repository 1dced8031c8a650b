#include "common/threading.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <vector>

namespace svsim {
namespace {

TEST(StaticPartition, CoversRangeExactly) {
  for (std::uint64_t count : {0ull, 1ull, 7ull, 100ull, 1024ull}) {
    for (unsigned workers : {1u, 2u, 3u, 7u, 16u}) {
      std::uint64_t covered = 0;
      std::uint64_t prev_end = 0;
      for (unsigned w = 0; w < workers; ++w) {
        const Partition p = static_partition(count, workers, w);
        EXPECT_EQ(p.begin, prev_end);
        EXPECT_LE(p.begin, p.end);
        covered += p.end - p.begin;
        prev_end = p.end;
      }
      EXPECT_EQ(covered, count);
      EXPECT_EQ(prev_end, count);
    }
  }
}

TEST(StaticPartition, BalancedWithinOne) {
  const std::uint64_t count = 1003;
  const unsigned workers = 7;
  std::uint64_t lo = count, hi = 0;
  for (unsigned w = 0; w < workers; ++w) {
    const Partition p = static_partition(count, workers, w);
    lo = std::min(lo, p.end - p.begin);
    hi = std::max(hi, p.end - p.begin);
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(ThreadPool, ParallelForTouchesEveryIndexOnce) {
  ThreadPool pool(4);
  const std::uint64_t count = 100000;
  std::vector<std::atomic<int>> hits(count);
  pool.parallel_for(
      count,
      [&](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i) hits[i].fetch_add(1);
      },
      /*serial_cutoff=*/0);
  for (std::uint64_t i = 0; i < count; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, SmallRangeRunsInline) {
  ThreadPool pool(4);
  unsigned worker_seen = 99;
  pool.parallel_for(
      10,
      [&](unsigned w, std::uint64_t, std::uint64_t) { worker_seen = w; },
      /*serial_cutoff=*/100);
  EXPECT_EQ(worker_seen, 0u);  // ran on the caller
}

TEST(ThreadPool, ZeroCutoffAlwaysForks) {
  // The fork/join probe times exactly this call: a zero cutoff forks even a
  // tiny range, whatever the fork rule says for state regions.
  ThreadPool pool(2);
  pool.reset_stats();
  std::atomic<unsigned> calls{0};
  pool.parallel_for(
      64, [&](unsigned, std::uint64_t, std::uint64_t) { calls.fetch_add(1); },
      /*serial_cutoff=*/0);
  EXPECT_EQ(pool.stats().parallel_regions, 1u);
  EXPECT_EQ(pool.stats().inline_regions, 0u);
  EXPECT_EQ(calls.load(), 2u);  // both workers got a chunk
}

TEST(ForkRule, CutoffCountsAmplitudesNotItems) {
  EXPECT_EQ(fork_cutoff(1), kForkAmplitudes);
  EXPECT_EQ(fork_cutoff(2), kForkAmplitudes / 2);
  EXPECT_EQ(fork_cutoff(3), (kForkAmplitudes + 2) / 3);  // rounds up
  // Items as large as the crossover fork from two up: one never forks.
  EXPECT_EQ(fork_cutoff(kForkAmplitudes), 2u);
  EXPECT_EQ(fork_cutoff(kForkAmplitudes * 8), 2u);

  ThreadPool pool(2);
  pool.reset_stats();
  const auto body = [](unsigned, std::uint64_t, std::uint64_t) {};
  pool.parallel_for(kForkAmplitudes / 2 - 1, body, fork_cutoff(2));
  EXPECT_EQ(pool.stats().parallel_regions, 0u);
  pool.parallel_for(kForkAmplitudes / 2, body, fork_cutoff(2));
  EXPECT_EQ(pool.stats().parallel_regions, 1u);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](unsigned, std::uint64_t, std::uint64_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ReduceSumsCorrectly) {
  ThreadPool pool(4);
  const std::uint64_t count = 1 << 16;
  const double total = pool.parallel_reduce(
      count,
      [](unsigned, std::uint64_t b, std::uint64_t e) {
        double acc = 0.0;
        for (std::uint64_t i = b; i < e; ++i) acc += static_cast<double>(i);
        return acc;
      },
      /*serial_cutoff=*/0);
  const double expect =
      static_cast<double>(count - 1) * static_cast<double>(count) / 2.0;
  EXPECT_DOUBLE_EQ(total, expect);
}

TEST(ThreadPool, ReusableAcrossManyRegions) {
  ThreadPool pool(3);
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 100; ++round) {
    pool.parallel_for(
        1000,
        [&](unsigned, std::uint64_t b, std::uint64_t e) {
          sum.fetch_add(e - b);
        },
        /*serial_cutoff=*/0);
  }
  EXPECT_EQ(sum.load(), 100000u);
}

TEST(ThreadPool, NestedCallsRunSequentially) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> inner_total{0};
  pool.parallel_for(
      1000,
      [&](unsigned, std::uint64_t b, std::uint64_t e) {
        // Nested region must not deadlock; it runs inline.
        pool.parallel_for(
            e - b,
            [&](unsigned, std::uint64_t ib, std::uint64_t ie) {
              inner_total.fetch_add(ie - ib);
            },
            /*serial_cutoff=*/0);
      },
      /*serial_cutoff=*/0);
  EXPECT_EQ(inner_total.load(), 1000u);
}

TEST(ThreadPool, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  double sum = pool.parallel_reduce(
      100, [](unsigned, std::uint64_t b, std::uint64_t e) {
        return static_cast<double>(e - b);
      });
  EXPECT_DOUBLE_EQ(sum, 100.0);
}

TEST(ThreadPool, SeededRngsAreDeterministicPerWorker) {
  ThreadPool pool(4);
  pool.seed_rngs(2024);
  std::vector<std::uint64_t> first;
  for (unsigned w = 0; w < 4; ++w) first.push_back(pool.rng(w)());
  pool.seed_rngs(2024);
  for (unsigned w = 0; w < 4; ++w) EXPECT_EQ(pool.rng(w)(), first[w]);
  // Distinct workers get distinct streams.
  EXPECT_NE(first[0], first[1]);
}

TEST(ThreadPool, GlobalPoolSingleton) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1u);
}

// ---- thread pinning (NUMA/CMG affinity) ----------------------------------

TEST(PinPolicy, CompactFillsCoresInOrder) {
  PinPolicy p;
  p.mode = PinPolicy::Mode::Compact;
  p.num_cores = 8;
  for (unsigned w = 0; w < 8; ++w) EXPECT_EQ(pin_cpu_for_worker(p, w, 8), w);
  // Oversubscription wraps.
  EXPECT_EQ(pin_cpu_for_worker(p, 8, 16), 0u);
  EXPECT_EQ(pin_cpu_for_worker(p, 9, 16), 1u);
}

TEST(PinPolicy, ScatterRoundRobinsAcrossDomains) {
  // 8 cores in 2 domains (cores 0-3 and 4-7): consecutive workers must
  // alternate domains — the first-touch pages of adjacent partitions land
  // on alternating memory controllers.
  PinPolicy p;
  p.mode = PinPolicy::Mode::Scatter;
  p.num_domains = 2;
  p.num_cores = 8;
  EXPECT_EQ(pin_cpu_for_worker(p, 0, 8), 0u);
  EXPECT_EQ(pin_cpu_for_worker(p, 1, 8), 4u);
  EXPECT_EQ(pin_cpu_for_worker(p, 2, 8), 1u);
  EXPECT_EQ(pin_cpu_for_worker(p, 3, 8), 5u);
  // 4 CMG-like domains.
  p.num_domains = 4;
  EXPECT_EQ(pin_cpu_for_worker(p, 0, 8), 0u);
  EXPECT_EQ(pin_cpu_for_worker(p, 1, 8), 2u);
  EXPECT_EQ(pin_cpu_for_worker(p, 2, 8), 4u);
  EXPECT_EQ(pin_cpu_for_worker(p, 3, 8), 6u);
  EXPECT_EQ(pin_cpu_for_worker(p, 4, 8), 1u);
}

TEST(PinPolicy, ScatterDegeneratesToCompactWhenDomainsExceedCores) {
  PinPolicy p;
  p.mode = PinPolicy::Mode::Scatter;
  p.num_domains = 16;
  p.num_cores = 4;
  for (unsigned w = 0; w < 4; ++w) EXPECT_EQ(pin_cpu_for_worker(p, w, 4), w);
}

TEST(PinPolicy, ParsesEnvSpelling) {
  ASSERT_EQ(setenv("SVSIM_PIN", "compact", 1), 0);
  EXPECT_EQ(pin_policy_from_env().mode, PinPolicy::Mode::Compact);

  ASSERT_EQ(setenv("SVSIM_PIN", "scatter", 1), 0);
  PinPolicy p = pin_policy_from_env();
  EXPECT_EQ(p.mode, PinPolicy::Mode::Scatter);
  EXPECT_EQ(p.num_domains, 2u);

  ASSERT_EQ(setenv("SVSIM_PIN", "scatter:4", 1), 0);
  p = pin_policy_from_env();
  EXPECT_EQ(p.mode, PinPolicy::Mode::Scatter);
  EXPECT_EQ(p.num_domains, 4u);

  ASSERT_EQ(setenv("SVSIM_PIN", "nonsense", 1), 0);
  EXPECT_EQ(pin_policy_from_env().mode, PinPolicy::Mode::None);

  ASSERT_EQ(unsetenv("SVSIM_PIN"), 0);
  EXPECT_EQ(pin_policy_from_env().mode, PinPolicy::Mode::None);
}

TEST(ThreadPool, PinThreadsIsInertWithoutPolicy) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.pin_threads(PinPolicy{}));
  EXPECT_FALSE(pool.pinned());
}

TEST(ThreadPool, PinnedPoolStillComputesCorrectly) {
  ThreadPool pool(2);
  PinPolicy p;
  p.mode = PinPolicy::Mode::Compact;
#if defined(__linux__)
  EXPECT_TRUE(pool.pin_threads(p));
  EXPECT_TRUE(pool.pinned());
#else
  pool.pin_threads(p);  // must not crash; reports false without an API
#endif
  const double sum = pool.parallel_reduce(
      1000, [](unsigned, std::uint64_t b, std::uint64_t e) {
        return static_cast<double>(e - b);
      });
  EXPECT_DOUBLE_EQ(sum, 1000.0);
}

}  // namespace
}  // namespace svsim
