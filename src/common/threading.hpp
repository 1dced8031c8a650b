// A fixed-size thread pool with a fork-join parallel_for.
//
// State-vector kernels are embarrassingly parallel over the amplitude index
// space; all we need is a static-partition fork-join loop with low per-gate
// overhead (a gate on a small register takes microseconds, so re-spawning
// std::thread per gate would dominate). Workers block on a condition
// variable between parallel regions.
//
// The pool also exposes `parallel_reduce` for norms/probabilities and a
// per-worker RNG substream facility for parallel sampling.
//
// One fork rule sizes every parallel region over a state: a region forks
// the pool only when it touches at least kForkAmplitudes amplitudes, and
// fork_cutoff() below turns that into the item cutoff of one parallel_for /
// parallel_reduce call. Every region in src/sv passes fork_cutoff(...);
// none keeps a cutoff of its own. Below the crossover the region runs
// inline on the caller, which for a few thousand amplitudes is an order of
// magnitude cheaper than waking and joining the workers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace svsim {

/// Describes how a range [0, count) is split across `num_workers` workers:
/// contiguous static chunks, remainder spread over the first chunks.
struct Partition {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// Computes worker `w`'s chunk of [0, count) under static partitioning.
inline Partition static_partition(std::uint64_t count, unsigned num_workers,
                                  unsigned w) noexcept {
  const std::uint64_t base = count / num_workers;
  const std::uint64_t rem = count % num_workers;
  const std::uint64_t begin =
      w * base + (w < rem ? w : static_cast<std::uint64_t>(rem));
  const std::uint64_t len = base + (w < rem ? 1 : 0);
  return {begin, begin + len};
}

/// NUMA/CMG-aware thread-pinning policy.
///
/// State-vector kernels and the first-touch page placement both use the
/// same static partition of the amplitude space, so once a worker is pinned
/// to a core it keeps streaming pages homed on that core's memory domain.
/// `Compact` fills domain 0 first (one memory controller active at low
/// thread counts — the paper's compact-affinity curve); `Scatter`
/// round-robins workers across domains so every HBM stack / memory
/// controller is active from `num_domains` threads up.
struct PinPolicy {
  enum class Mode { None, Compact, Scatter };
  Mode mode = Mode::None;
  /// NUMA domains (CMGs / sockets) to spread across; >= 1.
  unsigned num_domains = 1;
  /// Total cores to place onto (0 = hardware_concurrency).
  unsigned num_cores = 0;
};

/// CPU id worker `w` of `num_workers` lands on under `policy` (pure, so the
/// placement function is unit-testable without touching the OS). Compact:
/// cpu = w. Scatter: domain d = w mod D, slot = w div D, cpu = d *
/// (cores/D) + slot. CPUs wrap modulo the core count when oversubscribed.
unsigned pin_cpu_for_worker(const PinPolicy& policy, unsigned w,
                            unsigned num_workers) noexcept;

/// Policy from the environment: SVSIM_PIN = "none" | "compact" |
/// "scatter[:domains]" (e.g. "scatter:4" for an A64FX-like 4-CMG spread).
/// Unset/unrecognized -> Mode::None.
PinPolicy pin_policy_from_env();

/// Cumulative counters of what a pool has executed. Observability hook for
/// the obs layer (which mirrors these into its metrics registry); kept here
/// as plain atomics so `common` stays dependency-free.
struct PoolStats {
  std::uint64_t parallel_regions = 0;  ///< regions forked across workers
  std::uint64_t inline_regions = 0;    ///< regions run inline (cutoff/nested)
  std::uint64_t items = 0;             ///< total loop iterations dispatched
};

/// The fork crossover, in amplitudes: a region that touches fewer runs
/// inline. Set where forking starts to pay on the 2-thread pools of the
/// trajectory service: on a 4-core 2.0 GHz AVX2 Xeon a fork/join costs
/// about 17 us and the gate kernels stream an in-cache amplitude in about
/// 0.5 ns, so a region of W amplitudes saves W * 0.5 ns / 2 on two threads
/// and breaks even near 2^16.
inline constexpr std::uint64_t kForkAmplitudes = std::uint64_t{1} << 16;

/// The serial_cutoff of a parallel_for / parallel_reduce whose items each
/// touch `amps_per_item` amplitudes: the region forks from kForkAmplitudes
/// amplitudes up, and a region of one item never forks.
constexpr std::uint64_t fork_cutoff(std::uint64_t amps_per_item) noexcept {
  const std::uint64_t items =
      (kForkAmplitudes + amps_per_item - 1) / amps_per_item;
  return items < 2 ? 2 : items;
}

/// Fork-join worker pool. Thread-safe for one parallel region at a time;
/// nested parallelism is not supported (inner calls run sequentially on the
/// calling thread, which is the behaviour kernels want).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = std::thread::hardware_concurrency()).
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of workers (>= 1). Worker 0 is the calling thread.
  unsigned num_threads() const noexcept {
    return static_cast<unsigned>(threads_.size()) + 1;
  }

  /// Runs body(worker_index, begin, end) on every worker with a static
  /// partition of [0, count). Blocks until all workers finish. If the range
  /// is smaller than `serial_cutoff`, runs inline on the caller.
  void parallel_for(std::uint64_t count,
                    const std::function<void(unsigned, std::uint64_t,
                                             std::uint64_t)>& body,
                    std::uint64_t serial_cutoff = 1u << 12);

  /// Parallel sum-reduction: each worker computes body(worker, begin, end)
  /// and the partial results are summed on the caller.
  double parallel_reduce(std::uint64_t count,
                         const std::function<double(unsigned, std::uint64_t,
                                                    std::uint64_t)>& body,
                         std::uint64_t serial_cutoff = 1u << 12);

  /// Pins every worker (including the caller, which acts as worker 0) to
  /// the CPU pin_cpu_for_worker assigns it. Returns false — and pins
  /// nothing — when the policy is Mode::None or the platform has no
  /// affinity support; pinning is best-effort and idempotent.
  bool pin_threads(const PinPolicy& policy);

  /// True after a successful pin_threads call.
  bool pinned() const noexcept { return pinned_; }

  /// Deterministic per-worker RNG substream derived from `seed`.
  /// Re-seeds all streams; call once per stochastic run.
  void seed_rngs(std::uint64_t seed);

  /// RNG stream of worker `w`. Valid after seed_rngs().
  Xoshiro256& rng(unsigned w) {
    SVSIM_ASSERT(w < rngs_.size());
    return rngs_[w];
  }

  /// Snapshot of the execution counters (relaxed; monotonic per field).
  PoolStats stats() const noexcept {
    return {stat_parallel_.load(std::memory_order_relaxed),
            stat_inline_.load(std::memory_order_relaxed),
            stat_items_.load(std::memory_order_relaxed)};
  }

  /// Zeroes the execution counters.
  void reset_stats() noexcept {
    stat_parallel_.store(0, std::memory_order_relaxed);
    stat_inline_.store(0, std::memory_order_relaxed);
    stat_items_.store(0, std::memory_order_relaxed);
  }

  /// Shared process-wide pool sized to hardware concurrency. Lazily created.
  static ThreadPool& global();

 private:
  void worker_loop(unsigned worker_index);

  std::vector<std::thread> threads_;
  std::vector<Xoshiro256> rngs_;
  bool pinned_ = false;

  std::atomic<std::uint64_t> stat_parallel_{0};
  std::atomic<std::uint64_t> stat_inline_{0};
  std::atomic<std::uint64_t> stat_items_{0};

  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  // Generation counter: workers run the stored job once per increment.
  std::uint64_t generation_ = 0;
  unsigned pending_ = 0;
  bool stopping_ = false;
  std::atomic<bool> in_parallel_region_{false};

  // Current job, valid while pending_ > 0.
  const std::function<void(unsigned, std::uint64_t, std::uint64_t)>* job_ =
      nullptr;
  std::uint64_t job_count_ = 0;
};

}  // namespace svsim
