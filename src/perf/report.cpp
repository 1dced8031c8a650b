#include "perf/report.hpp"

#include <algorithm>
#include <map>

#include "perf/profile_report.hpp"

namespace svsim::perf {

Table summary_table(const PlanCost& cost) {
  Table t("Performance summary — " + cost.machine_name,
          {"qubits", "threads", "gates", "seconds", "GFLOP/s", "GB/s"});
  t.add_row({static_cast<std::int64_t>(cost.local_qubits),
             static_cast<std::int64_t>(cost.threads),
             static_cast<std::int64_t>(cost.num_gates), cost.compute_seconds,
             cost.achieved_gflops(), cost.achieved_bandwidth_gbps()});
  return t;
}

Table kernel_breakdown_table(const PlanCost& cost) {
  Table t("Time by kernel class — " + cost.machine_name,
          {"kernel", "seconds", "share"});
  std::map<std::string_view, double> by_kernel;
  for (const PhaseCost& p : cost.phases) by_kernel[p.kernel] += p.seconds;
  std::vector<std::pair<std::string_view, double>> rows(by_kernel.begin(),
                                                        by_kernel.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (const auto& [kernel, seconds] : rows) {
    t.add_row({std::string(kernel), seconds,
               cost.compute_seconds > 0.0 ? seconds / cost.compute_seconds
                                          : 0.0});
  }
  return t;
}

Table trace_table(const PlanCost& cost, std::size_t max_rows) {
  Table t("Gate trace — " + cost.machine_name,
          {"gate", "kernel", "us", "GB/s", "simd_eff", "bound"});
  const std::size_t rows = std::min(cost.phases.size(), max_rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const PhaseCost& p = cost.phases[i];
    t.add_row({std::string(p.gate), std::string(p.kernel), p.seconds * 1e6,
               p.seconds > 0.0 ? p.bytes / p.seconds * 1e-9 : 0.0,
               p.simd_efficiency,
               std::string(p.kind == sv::PhaseKind::Exchange ? "wire"
                           : p.memory_bound()                ? "mem"
                                                             : "fp")});
  }
  return t;
}

Table power_table(
    const std::vector<std::pair<std::string, PowerReport>>& runs) {
  Table t("Power comparison",
          {"configuration", "seconds", "watts", "joules", "EDP_Js"});
  for (const auto& [label, p] : runs) {
    t.add_row({label, p.seconds, p.average_watts, p.joules,
               p.energy_delay_product()});
  }
  return t;
}

Table drift_phase_table(const ProfileReport& report) {
  struct Row {
    std::size_t phases = 0;
    std::size_t gates = 0;
    double measured = 0.0;
    double modeled = 0.0;
    double bytes = 0.0;
  };
  std::map<std::string, Row> by_label;
  std::size_t total_gates = 0;
  for (const PhaseProfile& p : report.phases) {
    std::string label(sv::phase_kind_name(p.kind));
    if (p.kind == sv::PhaseKind::DenseGate)
      label.append(":").append(p.kernel);
    Row& r = by_label[label];
    ++r.phases;
    r.gates += p.gates;
    r.measured += p.measured_seconds;
    r.modeled += p.modeled_seconds;
    r.bytes += p.measured_bytes;
    total_gates += p.gates;
  }
  std::vector<std::pair<std::string, Row>> rows(by_label.begin(),
                                                by_label.end());
  std::stable_sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.measured > b.second.measured;
  });

  std::string title = "Drift by plan phase";
  if (report.partial) title += " (PARTIAL: tracer rings overflowed)";
  Table t(title, {"phase", "count", "gates", "measured_ms", "modeled_ms",
                  "ratio", "measured_GBs"});
  for (const auto& [label, r] : rows) {
    t.add_row({label, static_cast<std::int64_t>(r.phases),
               static_cast<std::int64_t>(r.gates), r.measured * 1e3,
               r.modeled * 1e3, r.modeled > 0.0 ? r.measured / r.modeled : 0.0,
               r.measured > 0.0 ? r.bytes / r.measured * 1e-9 : 0.0});
  }
  t.add_row({std::string("TOTAL"),
             static_cast<std::int64_t>(report.phases.size()),
             static_cast<std::int64_t>(total_gates),
             report.measured_seconds * 1e3, report.modeled_seconds * 1e3,
             report.drift_ratio(),
             report.measured_seconds > 0.0
                 ? report.measured_bytes / report.measured_seconds * 1e-9
                 : 0.0});
  return t;
}

}  // namespace svsim::perf
