#pragma once

#include "common/threading.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace svsim {

/// Bundles the execution-scoped services the stack used to reach for via
/// process-wide singletons: a metrics registry, a tracer, an optional
/// profiler hook, and a ThreadPool slice.
///
/// A default-constructed context resolves every service to the process-wide
/// singleton (`MetricsRegistry::global()`, `Tracer::global()`,
/// `Profiler::current()`, `ThreadPool::global()`), so call sites that take
/// `const ExecutionContext& ctx = ExecutionContext::global()` behave exactly
/// as before the refactor. Builders override individual services:
///
///   obs::MetricsRegistry my_metrics;
///   ThreadPool my_pool(4);
///   ExecutionContext ctx;
///   ctx.with_metrics(my_metrics).with_pool(my_pool);
///   sv::run_plan(state, plan, {}, ctx);   // counters land in my_metrics
///
/// Contexts are cheap value types (a few pointers); they do not own the
/// services they reference. The caller keeps registries and pools alive for
/// as long as any context pointing at them is in use. Resolution happens at
/// call time, never at first use: nothing downstream may cache a resolved
/// `Counter&` in a function-local static (the stale-handle bug this type
/// exists to eliminate — see tests/test_context.cpp).
class ExecutionContext {
 public:
  ExecutionContext() = default;

  /// Metrics registry counters/gauges/histograms resolve against.
  obs::MetricsRegistry& metrics() const noexcept {
    return metrics_ != nullptr ? *metrics_ : obs::MetricsRegistry::global();
  }

  /// Tracer spans record into.
  obs::Tracer& tracer() const noexcept {
    return tracer_ != nullptr ? *tracer_ : obs::Tracer::global();
  }

  /// Profiler hook, or nullptr when profiling is off. By default this
  /// follows the process-wide installed profiler dynamically (so a
  /// `Profiler::install()` mid-run is observed); `with_profiler` pins an
  /// explicit profiler, and `with_profiler(nullptr)` suppresses profiling
  /// for this context even while one is installed globally.
  obs::Profiler* profiler() const noexcept {
    return follow_installed_profiler_ ? obs::Profiler::current() : profiler_;
  }

  /// ThreadPool amplitude loops fork onto.
  ThreadPool& pool() const noexcept {
    return pool_ != nullptr ? *pool_ : ThreadPool::global();
  }

  ExecutionContext& with_metrics(obs::MetricsRegistry& registry) noexcept {
    metrics_ = &registry;
    return *this;
  }
  ExecutionContext& with_tracer(obs::Tracer& tracer) noexcept {
    tracer_ = &tracer;
    return *this;
  }
  ExecutionContext& with_profiler(obs::Profiler* profiler) noexcept {
    follow_installed_profiler_ = false;
    profiler_ = profiler;
    return *this;
  }
  ExecutionContext& with_pool(ThreadPool& pool) noexcept {
    pool_ = &pool;
    return *this;
  }

  /// The process-default context: every service resolves to the singleton.
  static const ExecutionContext& global() noexcept;

 private:
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  bool follow_installed_profiler_ = true;
  ThreadPool* pool_ = nullptr;
};

}  // namespace svsim
