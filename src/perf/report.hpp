// Rendering of performance-analysis results as tables.
//
// Thin formatting layer so examples and benches print consistent output:
// a PlanCost becomes a summary line, a per-kernel breakdown and a
// per-phase trace (one row per gate for an unblocked plan); a
// ProfileReport becomes the per-phase drift section.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "perf/perf_simulator.hpp"
#include "perf/power_model.hpp"

namespace svsim::perf {

/// Summary line table: totals, achieved GFLOP/s and GB/s.
Table summary_table(const PlanCost& cost);

/// Per-kernel-class time breakdown (sorted by share, descending).
Table kernel_breakdown_table(const PlanCost& cost);

/// Per-phase trace listing, at most `max_rows` rows.
Table trace_table(const PlanCost& cost, std::size_t max_rows = 32);

/// Power summary for labeled runs.
Table power_table(
    const std::vector<std::pair<std::string, PowerReport>>& runs);

struct ProfileReport;  // perf/profile_report.hpp

/// Model-vs-measured drift of a profiled run, one row per plan phase kind
/// (DenseGate phases split by kernel class), sorted by measured time, plus
/// a totals row. The title carries a PARTIAL marker when the profiled run
/// lost tracer spans.
Table drift_phase_table(const ProfileReport& report);

}  // namespace svsim::perf
