// e2e_probe: the in-process half of the end-to-end benchmark.
//
// The benchmark drives the real `svsim` binary from outside; this helper
// links the same library and does what cannot be done through a pipe:
//
//   host       copy bandwidth on arrays >= 4x the LLC, SIMD backend, pool size
//   qasm       writes the run workload's circuits with qc::to_qasm
//   refs       per-job references for serve results (bit-identical counts
//              or exact marginals), computed before the results are checked
//   trace      replays the same jobs in-process, timing the public function
//              of each layer around each call, and probes the kernels, the
//              pool and the metrics registry on a 27-qubit state
//
// Every subcommand prints one JSON document on stdout.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/bits.hpp"
#include "common/threading.hpp"
#include "dist/dist_plan.hpp"
#include "machine/exec_config.hpp"
#include "machine/machine_spec.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "perf/perf_simulator.hpp"
#include "qc/circuit.hpp"
#include "qc/library.hpp"
#include "qc/qasm.hpp"
#include "sv/engine.hpp"
#include "sv/plan.hpp"
#include "sv/simd/simd.hpp"
#include "sv/simulator.hpp"
#include "sv/state_vector.hpp"
#include "svc/json.hpp"
#include "svc/plan_cache.hpp"
#include "svc/service.hpp"

namespace {

using namespace svsim;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::string bit_label(std::uint64_t key, unsigned width) {
  std::string label;
  for (unsigned b = width; b-- > 0;) label += ((key >> b) & 1) ? '1' : '0';
  return label;
}

std::string counts_json(const std::map<std::string, std::size_t>& counts) {
  std::string out = "{";
  for (const auto& [bits, c] : counts) {
    if (out.size() > 1) out += ",";
    out += "\"" + bits + "\":" + std::to_string(c);
  }
  return out + "}";
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

/// Minimal flag parser: "--name value" pairs after the subcommand.
struct Flags {
  std::map<std::string, std::string> values;
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string k = argv[i];
      if (k.rfind("--", 0) != 0) throw std::runtime_error("bad flag " + k);
      values[k.substr(2)] = i + 1 < argc ? argv[++i] : "";
    }
  }
  std::string get(const std::string& k, const std::string& d = "") const {
    auto it = values.find(k);
    return it == values.end() ? d : it->second;
  }
  bool has(const std::string& k) const { return values.count(k) != 0; }
};

bool is_sampled(const svc::JobRequest& req) {
  return req.noise.channels().empty();
}

std::string precision_of(const svc::JobRequest& req) {
  return req.precision.empty() ? "f64" : req.precision;
}

// ---------------------------------------------------------------- host ----

/// Streams src -> dst with `threads` threads; returns GB/s counting the
/// bytes read plus the bytes written, the same convention the kernel rates
/// use (a state traversal reads and writes every amplitude once).
double copy_gbps(std::uint64_t bytes_per_buffer, unsigned threads) {
  const std::uint64_t n = bytes_per_buffer / sizeof(double);
  AlignedBuffer<double> src(n), dst(n);
  auto run = [&](bool fill) {
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < threads; ++t) {
      ts.emplace_back([&, t] {
        const std::uint64_t b = n * t / threads, e = n * (t + 1) / threads;
        if (fill) {
          for (std::uint64_t i = b; i < e; ++i) src[i] = double(i & 1023);
          std::memset(dst.data() + b, 0, (e - b) * sizeof(double));
        } else {
          std::memcpy(dst.data() + b, src.data() + b, (e - b) * sizeof(double));
        }
      });
    }
    for (auto& t : ts) t.join();
  };
  run(true);  // first touch outside the timing, on the copying threads
  std::vector<double> rates;
  for (int rep = 0; rep < 11; ++rep) {
    const auto t0 = Clock::now();
    run(false);
    rates.push_back(2.0 * double(n * sizeof(double)) /
                    seconds_between(t0, Clock::now()) / 1e9);
  }
  return median(rates);
}

int cmd_host(const Flags& f) {
  const std::uint64_t llc = std::stoull(f.get("llc", "0"));
  // Each array is at least 4x the LLC (and at least 1 GiB).
  const std::uint64_t per_buffer =
      std::max<std::uint64_t>(4 * llc, std::uint64_t{1} << 30);
  const unsigned threads = ThreadPool::global().num_threads();
  const double gbps = copy_gbps(per_buffer, threads);
  const auto be = sv::simd::active_backend();
  std::cout << "{\"copy_gbps\":" << num(gbps)
            << ",\"copy_array_bytes\":" << per_buffer
            << ",\"copy_threads\":" << threads << ",\"simd_backend\":\""
            << be.name << "\",\"simd_vector_bits\":" << be.vector_bits
            << ",\"pool_threads\":" << ThreadPool::global().num_threads()
            << ",\"hw_threads\":" << std::thread::hardware_concurrency()
            << "}\n";
  return 0;
}

// ---------------------------------------------------------------- qasm ----

int cmd_qasm(const Flags& f) {
  const std::string dir = f.get("dir", ".");
  const auto n = static_cast<unsigned>(std::stoul(f.get("qubits", "27")));
  auto write = [&](const std::string& name, const qc::Circuit& c) {
    std::ofstream out(dir + "/" + name);
    out << qc::to_qasm(c);
    if (!out) throw std::runtime_error("cannot write " + dir + "/" + name);
  };
  write("ghz.qasm", qc::ghz(n));
  write("tiny.qasm", qc::ghz(2));
  std::cout << "{\"ghz\":\"" << dir << "/ghz.qasm\",\"tiny\":\"" << dir
            << "/tiny.qasm\"}\n";
  return 0;
}

// ---------------------------------------------------------------- refs ----

std::map<std::string, std::size_t> labelled(
    const std::map<std::uint64_t, std::size_t>& counts, unsigned width) {
  std::map<std::string, std::size_t> out;
  for (const auto& [k, c] : counts) out[bit_label(k, width)] += c;
  return out;
}

/// One reference per job line:
///  - noiseless single-rank f64: Simulator::sample_counts at the job's seed
///    and options, which the service promises to match bit for bit;
///  - other noiseless jobs (f32, ranks > 1): exact P(1) per classical bit
///    from an f64 state, readout flips folded in analytically;
///  - noisy jobs: the counts of svc::Service::run_job on a fresh service
///    (trajectories are seeded per global index, so a result does not
///    depend on batching, worker count or pool size).
int cmd_refs(const Flags& f) {
  const machine::MachineSpec machine = machine::MachineSpec::a64fx();
  const auto lines = read_lines(f.get("jobs"));
  std::ostringstream out;
  out << "{\"refs\":[";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const svc::JobRequest req = svc::parse_job_line(lines[i]);
    qc::Circuit circuit = req.circuit;
    if (circuit.is_unitary()) circuit.measure_all();
    const unsigned width = circuit.num_clbits();
    const bool sampled = is_sampled(req);
    const std::string precision = precision_of(req);
    out << (i ? "," : "") << "{\"mode\":\""
        << (sampled ? "sampled" : "trajectory") << "\",\"precision\":\""
        << precision << "\",\"width\":" << width;
    if (sampled && req.ranks == 1 && precision == "f64") {
      sv::SimulatorOptions o;
      o.seed = req.seed;
      o.fusion = req.fusion;
      o.fusion_width = req.fusion_width;
      o.blocking = req.blocking;
      o.block_qubits = req.block_qubits;
      o.machine = &machine;
      o.noise = req.noise;
      sv::Simulator<double> sim(o);
      out << ",\"kind\":\"exact\",\"counts\":"
          << counts_json(labelled(sim.sample_counts(circuit, req.shots),
                                  width));
    } else if (sampled) {
      qc::Circuit unitary(circuit.num_qubits());
      std::vector<std::pair<unsigned, unsigned>> measures;
      for (const auto& g : circuit.gates()) {
        if (g.kind == qc::GateKind::MEASURE)
          measures.emplace_back(g.qubits[0], g.cbit);
        else if (g.is_unitary_op())
          unitary.append(g);
      }
      sv::Simulator<double> sim;
      const auto state = sim.run(unitary);
      std::vector<double> p1(width, 0.0);
      // NoiseModel keeps the readout rates private; take them from the line.
      double p01 = 0.0, p10 = 0.0;
      const svc::json::Value job = svc::json::parse(lines[i]);
      if (const auto* nz = job.find("noise"))
        if (const auto* ro = nz->find("readout")) {
          p01 = ro->array.at(0).as_number("readout[0]");
          p10 = ro->array.at(1).as_number("readout[1]");
        }
      for (const auto& [q, c] : measures) {
        const double p = state.probability_of_one(q);
        p1[c] = p * (1.0 - p10) + (1.0 - p) * p01;
      }
      out << ",\"kind\":\"marginals\",\"p1\":[";
      for (unsigned c = 0; c < width; ++c) out << (c ? "," : "") << num(p1[c]);
      out << "]";
    } else {
      svc::Service service{svc::ServiceOptions{}};
      const svc::JobResult r = service.run_job(req);
      out << ",\"kind\":\"exact\",\"counts\":" << counts_json(r.counts);
    }
    out << "}";
  }
  out << "]}\n";
  std::cout << out.str();
  return 0;
}

// --------------------------------------------------------------- trace ----

/// In-memory span log: name, start, end, parent and job id per span,
/// written out when the run ends. Disabled, a scope costs one branch.
class SpanLog {
 public:
  struct Span {
    const char* name;
    double start = 0, end = 0;
    int parent = -1;
    int job = -1;
  };

  bool enabled = true;
  int job = -1;
  std::vector<Span> spans;

  int open(const char* name) {
    if (!enabled) return -1;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.job = job;
    s.start = seconds_between(epoch_, Clock::now());
    spans.push_back(s);
    stack_.push_back(static_cast<int>(spans.size()) - 1);
    return stack_.back();
  }
  void close(int idx) {
    if (idx < 0) return;
    spans[static_cast<std::size_t>(idx)].end =
        seconds_between(epoch_, Clock::now());
    stack_.pop_back();
  }

  /// Span duration minus the durations of its direct children.
  std::vector<double> self_times() const {
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
      self[i] = spans[i].end - spans[i].start;
    for (const auto& s : spans)
      if (s.parent >= 0)
        self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    return self;
  }

  /// One JSON line per span; times in microseconds since the log began.
  void write(const std::string& path) const {
    std::ofstream out(path);
    char buf[200];
    for (const auto& s : spans) {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                    "\"parent\":%d,\"job\":%d}\n",
                    s.name, s.start * 1e6, s.end * 1e6, s.parent, s.job);
      out << buf;
    }
  }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(SpanLog& log, const char* name) : log_(log), idx_(log.open(name)) {}
  ~Scope() { log_.close(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int idx_;
};

/// Facts the per-layer metrics need beyond the spans.
struct ReplayFacts {
  std::vector<double> gates_per_traversal;  // per compiled plan
  std::vector<double> exchange_hops;        // per compiled distributed plan
  std::uint64_t shots_sampled = 0;
  std::uint64_t trajectories = 0;
};

/// Replays one service job through the same public calls svc::Service
/// makes — parse, normalize, fingerprint + PlanCache, compile (sv or dist),
/// cost_plan, state allocation, run_plan / run_plan_batch, sampling,
/// serialization — with a span around each. Returns the result line.
class ServiceReplay {
 public:
  ServiceReplay(SpanLog& log, unsigned model_threads,
                const ExecutionContext& ctx)
      : log_(log), model_threads_(model_threads), ctx_(ctx) {}

  std::string run(const std::string& line, ReplayFacts& facts) {
    facts_ = &facts;
    Scope job(log_, "job");
    svc::JobRequest req;
    {
      Scope s(log_, "svc.parse");
      req = svc::parse_job_line(line);
    }
    svc::JobResult result;
    {
      Scope s(log_, "svc.run_job");
      result = execute(req);
    }
    Scope s(log_, "svc.serialize");
    return svc::result_to_json(result);
  }

 private:
  svc::JobResult execute(const svc::JobRequest& req) {
    svc::JobResult result;
    result.id = req.id;
    result.shots = req.shots;
    const std::string precision = precision_of(req);
    const unsigned element_bytes = precision == "f32" ? 4 : 8;
    result.precision = precision;

    qc::Circuit circuit;
    sv::PlanOptions po;
    {
      Scope s(log_, "svc.normalize");
      circuit = req.circuit;
      if (circuit.is_unitary()) circuit.measure_all();
      po.fusion = req.fusion;
      po.fusion_width = req.fusion_width;
      po.blocking = req.blocking && req.noise.channels().empty();
      po.block_qubits = req.block_qubits;
      po.amp_bytes = 2 * element_bytes;
      po.machine = &machine_;
      po.metrics = &ctx_.metrics();
    }

    svc::PlanKey key;
    std::shared_ptr<const svc::CachedPlan> cached;
    {
      Scope s(log_, "svc.plan_cache.lookup");
      key.circuit_fp = svc::fingerprint_circuit(circuit);
      key.machine_fp = svc::fingerprint_machine(&machine_);
      key.options_fp = svc::fingerprint_plan_options(po, req.ranks,
                                                     req.scheduler,
                                                     po.amp_bytes);
      cached = cache_.get(key);
    }
    result.cache_hit = cached != nullptr;
    if (!cached) {
      Scope s(log_, "svc.compile");
      auto entry = std::make_shared<svc::CachedPlan>();
      entry->num_clbits = circuit.num_clbits();
      entry->sampled_mode = req.noise.channels().empty();
      qc::Circuit body(circuit.num_qubits(), circuit.num_clbits());
      if (entry->sampled_mode) {
        for (const auto& g : circuit.gates()) {
          if (g.kind == qc::GateKind::MEASURE)
            entry->measures.emplace_back(g.qubits[0], g.cbit);
          else if (g.kind != qc::GateKind::BARRIER)
            body.append(g);
        }
      } else {
        body = circuit;
      }
      sv::ExecutionPlan plan;
      if (req.ranks <= 1) {
        Scope c(log_, "sv.plan.compile");
        plan = sv::compile_plan(body, po);
        plan.validate();
      } else {
        Scope c(log_, "dist.compile");
        dist::DistExecOptions dopts;
        dopts.scheduler = req.scheduler == "naive"
                              ? dist::CommScheduler::Naive
                              : dist::CommScheduler::Remap;
        dopts.plan = po;
        plan = dist::compile_distributed(body, ilog2(req.ranks), dopts);
        plan.validate();
      }
      entry->plan = std::make_shared<const sv::ExecutionPlan>(std::move(plan));
      {
        Scope c(log_, "perf.cost_plan");
        machine::ExecConfig cfg;
        cfg.threads = model_threads_;
        cfg.element_bytes = element_bytes;
        entry->cost = perf::cost_plan(*entry->plan, machine_, cfg, ctx_);
      }
      entry->footprint_bytes = svc::plan_footprint_bytes(*entry->plan);
      facts_->gates_per_traversal.push_back(entry->plan->gates_per_traversal());
      if (req.ranks > 1) {
        double hops = 0;
        for (const auto& ph : entry->plan->phases)
          hops += static_cast<double>(ph.hops.size());
        facts_->exchange_hops.push_back(hops);
      }
      cache_.put(key, entry);
      cached = std::move(entry);
    }
    result.mode = cached->sampled_mode ? "sampled" : "trajectory";

    Scope s(log_, "svc.execute");
    const unsigned n = cached->plan->num_qubits;
    const bool has_measure = !cached->measures.empty() ||
                             (!cached->sampled_mode && cached->num_clbits > 0);
    const unsigned width = has_measure ? std::max(cached->num_clbits, 1u) : n;
    sv::SimulatorOptions so;
    so.pool = &ctx_.pool();
    so.context = &ctx_;
    so.seed = req.seed;
    so.noise = req.noise;
    if (element_bytes == 4)
      run_counts<float>(*cached, req, so, width, result);
    else
      run_counts<double>(*cached, req, so, width, result);
    return result;
  }

  template <typename T>
  void run_counts(const svc::CachedPlan& cached, const svc::JobRequest& req,
                  const sv::SimulatorOptions& so, unsigned width,
                  svc::JobResult& result) {
    const unsigned n = cached.plan->num_qubits;
    ThreadPool* pool = &ctx_.pool();
    sv::Simulator<T> sim(so);
    if (cached.sampled_mode) {
      std::optional<sv::StateVector<T>> state;
      {
        Scope s(log_, "sv.state.alloc");
        state.emplace(n, pool);
      }
      {
        Scope s(log_, "sv.engine.run_plan");
        sim.run_plan(*state, *cached.plan);
      }
      Scope s(log_, "sv.sample");
      const auto samples = state->sample(req.shots, sim.rng());
      const bool readout = req.noise.has_readout_error();
      for (std::uint64_t basis : samples) {
        std::uint64_t key = 0;
        for (const auto& [q, c] : cached.measures) {
          bool bit = test_bit(basis, q);
          if (readout) bit = req.noise.flip_readout(bit, sim.rng());
          if (bit) key = set_bit(key, c);
        }
        ++result.counts[bit_label(key, width)];
      }
      facts_->shots_sampled += req.shots;
      return;
    }
    const std::uint64_t state_bytes = pow2(n) * std::uint64_t{2 * sizeof(T)};
    const std::size_t batch = static_cast<std::size_t>(std::clamp<
        std::uint64_t>(svc::ServiceOptions{}.batch_bytes /
                           std::max<std::uint64_t>(state_bytes, 1),
                       1, req.shots));
    std::size_t done = 0;
    while (done < req.shots) {
      const std::size_t this_batch = std::min(batch, req.shots - done);
      std::vector<sv::StateVector<T>> states;
      std::vector<sv::StateVector<T>*> ptrs;
      {
        Scope s(log_, "sv.state.alloc");
        states.reserve(this_batch);
        for (std::size_t i = 0; i < this_batch; ++i) {
          states.emplace_back(n, pool);
          ptrs.push_back(&states.back());
        }
      }
      std::vector<std::vector<bool>> bits;
      {
        Scope s(log_, "sv.engine.run_plan_batch");
        bits = sim.run_plan_batch(ptrs, *cached.plan, done);
      }
      for (const auto& tb : bits) {
        std::uint64_t key = 0;
        for (std::size_t b = 0; b < tb.size(); ++b)
          if (tb[b]) key = set_bit(key, unsigned(b));
        ++result.counts[bit_label(key, width)];
      }
      done += this_batch;
    }
    facts_->trajectories += req.shots;
  }

  SpanLog& log_;
  ReplayFacts* facts_ = nullptr;
  unsigned model_threads_;
  const ExecutionContext& ctx_;
  machine::MachineSpec machine_ = machine::MachineSpec::a64fx();
  obs::MetricsRegistry registry_;
  svc::PlanCache cache_{64ull << 20, &registry_};
};

/// Replays `svsim run` — QASM parse, then Simulator::sample_counts' fast
/// path split into its calls — with a span around each. Returns the counts.
std::map<std::string, std::size_t> replay_run(SpanLog& log, ReplayFacts& facts,
                                              const std::string& qasm_path,
                                              const sv::SimulatorOptions& so,
                                              std::size_t shots) {
  Scope job(log, "job");
  qc::Circuit circuit;
  {
    Scope s(log, "qc.parse");
    circuit = qc::parse_qasm_file(qasm_path);
  }
  Scope run(log, "sv.sample_counts");
  qc::Circuit unitary;
  std::vector<std::pair<unsigned, unsigned>> measures;
  sv::PlanOptions po;
  {
    Scope s(log, "svc.normalize");
    if (circuit.is_unitary()) circuit.measure_all();
    unitary = qc::Circuit(circuit.num_qubits(), circuit.num_clbits());
    for (const auto& g : circuit.gates()) {
      if (g.kind == qc::GateKind::MEASURE)
        measures.emplace_back(g.qubits[0], g.cbit);
      else if (g.kind != qc::GateKind::BARRIER)
        unitary.append(g);
    }
    po.fusion = so.fusion;
    po.fusion_width = so.fusion_width;
    po.blocking = so.blocking;
    po.block_qubits = so.block_qubits;
    po.amp_bytes = 16;
  }
  sv::ExecutionPlan plan;
  {
    Scope s(log, "sv.plan.compile");
    plan = sv::compile_plan(unitary, po);
  }
  facts.gates_per_traversal.push_back(plan.gates_per_traversal());
  sv::Simulator<double> sim(so);
  std::optional<sv::StateVector<double>> state;
  {
    Scope s(log, "sv.state.alloc");
    state.emplace(circuit.num_qubits(), so.pool);
  }
  {
    Scope s(log, "sv.engine.run_plan");
    sim.run_plan(*state, plan);
  }
  std::map<std::string, std::size_t> counts;
  {
    Scope s(log, "sv.sample");
    for (std::uint64_t basis : state->sample(shots, sim.rng())) {
      std::uint64_t key = 0;
      for (const auto& [q, c] : measures)
        if (test_bit(basis, q)) key = set_bit(key, c);
      ++counts[bit_label(key, circuit.num_clbits())];
    }
  }
  facts.shots_sampled += shots;
  {
    Scope s(log, "sv.state.free");
    state.reset();
  }
  return counts;
}

/// Kernel, pool and registry probes on a 27-qubit f64 state.
struct LayerProbe {
  double dense_gbps = 0, sweep_gbps = 0, scaling = 0;
  double fork_join_us[3] = {0, 0, 0};
  double counter_ns = 0;
  unsigned block_qubits = 0;
};

template <typename F>
double time_median(int reps, F&& f) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    f();
    t.push_back(seconds_between(t0, Clock::now()));
  }
  return median(t);
}

LayerProbe probe_layers(unsigned qubits) {
  LayerProbe p;
  const double traversal_bytes =
      2.0 * double(pow2(qubits)) * double(sizeof(std::complex<double>));

  // The plan `svsim run --blocked` would compile (no machine: 512 KiB
  // default budget) fixes the sweep block size.
  qc::Circuit one(qubits);
  one.h(0);
  sv::PlanOptions bpo;
  bpo.blocking = true;
  p.block_qubits = sv::compile_plan(one, bpo).block_qubits;

  qc::Circuit two(qubits);
  two.h(qubits - 1).cx(0, qubits - 1);
  const sv::ExecutionPlan small = sv::compile_plan(two, sv::PlanOptions{});

  const qc::Gate h = qc::Gate::h(0);
  const qc::Circuit qv = qc::random_quantum_volume(qubits, 1, 7);
  const qc::Gate u2 = qv.gates().front();  // a Haar-random 2-qubit unitary
  double t4 = 0;
  {
    sv::StateVector<double> s(qubits, &ThreadPool::global());
    const double th = time_median(3, [&] { sv::apply_gate(s, h); });
    const double tu = time_median(3, [&] { sv::apply_gate(s, u2); });
    p.dense_gbps = 2.0 * traversal_bytes / (th + tu) / 1e9;
    const double ts = time_median(3, [&] {
      sv::run_sweep(s, &h, 1, p.block_qubits);
    });
    p.sweep_gbps = traversal_bytes / ts / 1e9;
    t4 = time_median(3, [&] { sv::run_plan(s, small); });
  }
  {
    ThreadPool one_thread(1);
    sv::StateVector<double> s(qubits, &one_thread);
    const double t1 = time_median(1, [&] { sv::run_plan(s, small); });
    p.scaling = t1 / t4;
  }

  const unsigned sizes[3] = {1, 2, 4};
  for (int i = 0; i < 3; ++i) {
    ThreadPool pool(sizes[i]);
    auto body = [](unsigned, std::uint64_t, std::uint64_t) {};
    for (int w = 0; w < 200; ++w) pool.parallel_for(64, body, 0);
    std::vector<double> per_call;
    for (int b = 0; b < 15; ++b) {
      const auto t0 = Clock::now();
      for (int k = 0; k < 200; ++k) pool.parallel_for(64, body, 0);
      per_call.push_back(seconds_between(t0, Clock::now()) / 200 * 1e6);
    }
    p.fork_join_us[i] = median(per_call);
  }

  obs::MetricsRegistry reg;
  for (int i = 0; i < 48; ++i)
    reg.counter("svc.filler." + std::to_string(i)).increment();
  std::vector<double> ns;
  const std::string name = "svc.jobs";
  for (int b = 0; b < 7; ++b) {
    const auto t0 = Clock::now();
    for (int k = 0; k < 200000; ++k) reg.counter(name).increment();
    ns.push_back(seconds_between(t0, Clock::now()) / 200000 * 1e9);
  }
  p.counter_ns = median(ns);
  return p;
}

struct ClassTotals {
  double stages = 0;  // sum of stage self times inside the job's run span
  double whole = 0;   // the public call timed on the same request
};

int cmd_trace(const Flags& f) {
  const auto lines = f.has("jobs") ? read_lines(f.get("jobs"))
                                   : std::vector<std::string>{};
  const auto workers =
      static_cast<unsigned>(std::stoul(f.get("workers", "1")));
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned slice = std::max(1u, hw / workers);
  // A serve worker's view: its own pool slice (the service's global pool
  // when there is one worker), the admission model at `workers` threads.
  ThreadPool slice_pool(slice);
  ThreadPool& pool = workers == 1 ? ThreadPool::global() : slice_pool;
  ExecutionContext ctx;
  ctx.with_pool(pool);

  svc::ServiceOptions sopts;
  sopts.threads = workers;
  sopts.workers = workers;
  svc::Service service(sopts);

  SpanLog traced, untraced;
  untraced.enabled = false;
  // The last `companions` job lines route the replay through layers the
  // workload bypasses; a layer's figures come from the workload's own jobs
  // when it has any, else from the companions.
  const std::size_t companions = std::stoul(f.get("companions", "0"));
  const std::size_t first_companion =
      lines.size() - std::min(companions, lines.size());
  auto side = [&](int job) {
    return job >= 0 && std::size_t(job) >= first_companion &&
                   std::size_t(job) < lines.size()
               ? 1
               : 0;
  };
  ReplayFacts facts[2], scratch_facts;
  ServiceReplay replay(traced, workers, ctx);
  ServiceReplay bare(untraced, workers, ctx);
  std::map<std::string, ClassTotals> classes;
  std::vector<double> compile_ms;
  std::vector<int> job_class;  // per job: 0 sampled, 1 trajectory
  double traced_wall = 0, untraced_wall = 0;
  bool faithful = true;

  for (std::size_t i = 0; i < lines.size(); ++i) {
    svc::JobRequest req = svc::parse_job_line(lines[i]);
    const std::string cls = is_sampled(req) ? "sampled" : "trajectory";
    job_class.push_back(is_sampled(req) ? 0 : 1);
    svc::JobResult ref;
    std::string line;
    traced.job = static_cast<int>(i);
    // The three executions of a job take turns going first, so warm-up
    // effects do not bias coverage or overhead.
    for (std::size_t k = 0; k < 3; ++k) {
      const auto t0 = Clock::now();
      switch ((i + k) % 3) {
        case 0:
          ref = service.run_job(req, ctx);
          classes[cls].whole += seconds_between(t0, Clock::now());
          if (!ref.cache_hit) compile_ms.push_back(ref.compile_seconds * 1e3);
          break;
        case 1:
          line = replay.run(lines[i], facts[side(static_cast<int>(i))]);
          traced_wall += seconds_between(t0, Clock::now());
          break;
        default:
          bare.run(lines[i], scratch_facts);
          untraced_wall += seconds_between(t0, Clock::now());
      }
    }

    const svc::json::Value v = svc::json::parse(line);
    std::map<std::string, std::size_t> got;
    if (const auto* c = v.find("counts"))
      for (const auto& [k, val] : c->object)
        got[k] = static_cast<std::size_t>(val.as_number("count"));
    if (got != ref.counts) faithful = false;
  }

  // The `svsim run` path, when this workload has one.
  std::optional<std::map<std::string, std::size_t>> run_counts;
  double run_call_s = 0;
  const bool has_run = f.has("run-qasm");
  if (has_run) {
    sv::SimulatorOptions so;
    so.seed = std::stoull(f.get("run-seed", "1"));
    so.blocking = f.get("run-blocked", "0") == "1";
    const std::size_t shots = std::stoull(f.get("run-shots", "1024"));
    const std::string path = f.get("run-qasm");
    // The public call, timed before and after the two replays (its mean
    // is the coverage denominator), on the circuit `svsim run` sees.
    auto whole = [&] {
      qc::Circuit c = qc::parse_qasm_file(path);
      if (c.is_unitary()) c.measure_all();
      sv::Simulator<double> sim(so);
      const auto t0 = Clock::now();
      const auto counts = sim.sample_counts(c, shots);
      run_call_s += 0.5 * seconds_between(t0, Clock::now());
      run_counts = labelled(counts, c.num_clbits());
    };
    whole();
    traced.job = static_cast<int>(lines.size());
    auto t0 = Clock::now();
    const auto mine = replay_run(traced, facts[0], path, so, shots);
    traced_wall += seconds_between(t0, Clock::now());
    t0 = Clock::now();
    replay_run(untraced, scratch_facts, path, so, shots);
    untraced_wall += seconds_between(t0, Clock::now());
    whole();
    classes["sampled"].whole += run_call_s;
    if (mine != *run_counts) faithful = false;
    job_class.push_back(0);
  }

  // Stage self times, grouped by layer (own jobs / companions) and by job
  // class. A stage is any span below a job's run span ("svc.run_job" /
  // "sv.sample_counts").
  const auto self = traced.self_times();
  std::map<std::string, std::vector<double>> by_name[2];
  std::vector<int> run_span_of(traced.spans.size(), -1);
  for (std::size_t i = 0; i < traced.spans.size(); ++i) {
    const auto& s = traced.spans[i];
    by_name[side(s.job)][s.name].push_back(s.end - s.start);
    const bool is_run = !std::strcmp(s.name, "svc.run_job") ||
                        !std::strcmp(s.name, "sv.sample_counts");
    if (is_run) {
      run_span_of[i] = static_cast<int>(i);
    } else if (s.parent >= 0) {
      run_span_of[i] = run_span_of[static_cast<std::size_t>(s.parent)];
    }
    if (run_span_of[i] >= 0 && !is_run) {
      const std::string cls =
          job_class[static_cast<std::size_t>(s.job)] == 0 ? "sampled"
                                                          : "trajectory";
      classes[cls].stages += self[i];
    }
  }
  auto spans_of = [&](const char* name) -> const std::vector<double>& {
    static const std::vector<double> none;
    for (auto& m : by_name) {
      auto it = m.find(name);
      if (it != m.end() && !it->second.empty()) return it->second;
    }
    return none;
  };
  auto med_us = [&](const char* name) { return median(spans_of(name)) * 1e6; };
  auto sum_s = [&](const char* name) {
    double t = 0;
    for (double d : spans_of(name)) t += d;
    return t;
  };
  auto mean = [](const std::vector<double>& v) {
    double t = 0;
    for (double x : v) t += x;
    return v.empty() ? 0.0 : t / double(v.size());
  };
  auto pick = [&](auto member) -> const auto& {
    return !(facts[0].*member).empty() ? facts[0].*member : facts[1].*member;
  };
  const ReplayFacts& sampled_facts = facts[facts[0].shots_sampled ? 0 : 1];
  const ReplayFacts& traj_facts = facts[facts[0].trajectories ? 0 : 1];

  if (f.has("spans")) traced.write(f.get("spans"));

  const LayerProbe lp = probe_layers(
      static_cast<unsigned>(std::stoul(f.get("kernel-qubits", "27"))));

  std::ostringstream o;
  o << "{\"faithful\":" << (faithful ? "true" : "false")
    << ",\"jobs\":" << lines.size() + (has_run ? 1 : 0)
    << ",\"spans\":" << traced.spans.size() << ",\"metrics\":{";
  auto put = [&o, first = true](const char* name, double v,
                                const char* unit) mutable {
    o << (first ? "" : ",") << "\"" << name << "\":{\"value\":" << num(v)
      << ",\"unit\":\"" << unit << "\"}";
    first = false;
  };
  put("svc.parse_us", med_us("svc.parse"), "us");
  put("svc.serialize_us", med_us("svc.serialize"), "us");
  put("svc.plan_cache.lookup_us", med_us("svc.plan_cache.lookup"), "us");
  put("svc.compile_ms", median(compile_ms), "ms");
  put("sv.plan.compile_us", med_us("sv.plan.compile"), "us");
  put("sv.plan.gates_per_traversal",
      mean(pick(&ReplayFacts::gates_per_traversal)),
      "count");
  put("sv.state.alloc_ms", med_us("sv.state.alloc") / 1e3, "ms");
  put("sv.engine.run_plan_ms", med_us("sv.engine.run_plan") / 1e3, "ms");
  put("sv.engine.batch_ms_per_shot",
      traj_facts.trajectories
          ? sum_s("sv.engine.run_plan_batch") * 1e3 /
                double(traj_facts.trajectories)
          : 0.0,
      "ms");
  put("sv.sample_us_per_kshot",
      sampled_facts.shots_sampled
          ? sum_s("sv.sample") * 1e6 /
                (double(sampled_facts.shots_sampled) / 1e3)
          : 0.0,
      "us");
  put("perf.cost_plan_us", med_us("perf.cost_plan"), "us");
  put("dist.compile_us", med_us("dist.compile"), "us");
  put("dist.exchange_hops", mean(pick(&ReplayFacts::exchange_hops)), "count");
  put("sv.kernel.dense_gbps", lp.dense_gbps, "GB/s");
  put("sv.kernel.sweep_gbps", lp.sweep_gbps, "GB/s");
  put("common.pool.fork_join_us.t1", lp.fork_join_us[0], "us");
  put("common.pool.fork_join_us.t2", lp.fork_join_us[1], "us");
  put("common.pool.fork_join_us.t4", lp.fork_join_us[2], "us");
  put("common.pool.scaling", lp.scaling, "ratio");
  put("obs.counter_lookup_ns", lp.counter_ns, "ns");
  for (const char* cls : {"sampled", "trajectory"}) {
    const auto it = classes.find(cls);
    const double cov = it == classes.end() || it->second.whole <= 0
                           ? 0.0
                           : it->second.stages / it->second.whole;
    put(cls[0] == 's' ? "trace.coverage.sampled" : "trace.coverage.trajectory",
        cov, "ratio");
  }
  put("trace.overhead", untraced_wall > 0 ? traced_wall / untraced_wall : 0.0,
      "ratio");
  const auto& cache = service.cache();
  const double lookups = double(cache.hits() + cache.misses());
  o << "},\"sweep_block_qubits\":" << lp.block_qubits
    << ",\"run_call_s\":" << num(run_call_s) << ",\"cache\":{\"hit_ratio\":"
    << num(lookups > 0 ? double(cache.hits()) / lookups : 0.0)
    << ",\"evictions\":" << cache.evictions() << "}}\n";
  std::cout << o.str();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: e2e_probe host|qasm|refs|trace "
                 "[--flag value]...\n";
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    const Flags flags(argc, argv, 2);
    if (cmd == "host") return cmd_host(flags);
    if (cmd == "qasm") return cmd_qasm(flags);
    if (cmd == "refs") return cmd_refs(flags);
    if (cmd == "trace") return cmd_trace(flags);
    std::cerr << "unknown subcommand " << cmd << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "e2e_probe: " << e.what() << "\n";
    return 1;
  }
}
