#include "perf/power_model.hpp"

#include <algorithm>

namespace svsim::perf {

PowerReport estimate_power(const PlanCost& cost,
                           const machine::MachineSpec& m) {
  PowerReport report;
  for (const PhaseCost& p : cost.phases) {
    if (p.seconds <= 0.0) continue;
    // Utilization: fraction of the phase the cores spend computing (vs.
    // stalled on memory), floored at the stall draw.
    const double util =
        std::max(kStallPowerFloor, p.compute_seconds / p.seconds);
    const double phase_bw_gbps = p.bytes / p.seconds * 1e-9;
    const double watts = m.idle_watts + cost.threads * m.core_max_watts * util +
                         m.mem_watts_per_gbps * phase_bw_gbps;
    report.joules += watts * p.seconds;
    report.seconds += p.seconds;
  }
  report.average_watts =
      report.seconds > 0.0 ? report.joules / report.seconds : m.idle_watts;
  return report;
}

}  // namespace svsim::perf
