// report.hpp — sweep aggregation for the validation experiments: per-app
// min/max absolute error across problem and system sizes (the paper's
// Table 2 rows) and estimated/measured series for the figures.
#pragma once

#include <string>
#include <vector>

#include "api/run_report.hpp"

namespace hpf90d::driver {

/// One (problem size, processor count) comparison within a sweep.
struct SweepPoint {
  long long problem_size = 0;
  int nprocs = 0;
  api::Comparison comparison;
};

/// Table 2 row: accuracy envelope of one application over its sweep.
struct AccuracyRow {
  std::string name;
  std::string sizes;   // e.g. "128 - 4096"
  std::string procs;   // e.g. "1 - 8"
  double min_abs_error_pct = 0;
  double max_abs_error_pct = 0;
  int points = 0;
  int within_variance = 0;  // §5.1 claim support

  [[nodiscard]] static AccuracyRow from_sweep(std::string name,
                                              const std::vector<SweepPoint>& sweep);
};

/// Renders a series of (x, estimated, measured) rows, one per line, for the
/// figure benches (gnuplot-ready columns).
[[nodiscard]] std::string render_series(
    const std::string& title,
    const std::vector<std::pair<long long, api::Comparison>>& series);

}  // namespace hpf90d::driver
