#include "driver/report.hpp"

#include <algorithm>
#include <sstream>

#include "support/text.hpp"

namespace hpf90d::driver {

AccuracyRow AccuracyRow::from_sweep(std::string name,
                                    const std::vector<SweepPoint>& sweep) {
  AccuracyRow row;
  row.name = std::move(name);
  row.min_abs_error_pct = 1e300;
  row.max_abs_error_pct = 0;
  long long min_size = 0, max_size = 0;
  int min_procs = 0, max_procs = 0;
  for (const auto& pt : sweep) {
    const double err = pt.comparison.abs_error_pct();
    row.min_abs_error_pct = std::min(row.min_abs_error_pct, err);
    row.max_abs_error_pct = std::max(row.max_abs_error_pct, err);
    if (row.points == 0) {
      min_size = max_size = pt.problem_size;
      min_procs = max_procs = pt.nprocs;
    } else {
      min_size = std::min(min_size, pt.problem_size);
      max_size = std::max(max_size, pt.problem_size);
      min_procs = std::min(min_procs, pt.nprocs);
      max_procs = std::max(max_procs, pt.nprocs);
    }
    if (pt.comparison.within_variance()) ++row.within_variance;
    ++row.points;
  }
  if (row.points == 0) row.min_abs_error_pct = 0;
  row.sizes = std::to_string(min_size) + " - " + std::to_string(max_size);
  row.procs = std::to_string(min_procs) + " - " + std::to_string(max_procs);
  return row;
}

std::string render_series(
    const std::string& title,
    const std::vector<std::pair<long long, api::Comparison>>& series) {
  std::ostringstream os;
  os << "# " << title << '\n';
  os << "# size  estimated(s)  measured(s)  err(%)\n";
  for (const auto& [size, cmp] : series) {
    os << support::strfmt("%8lld  %12.6f  %12.6f  %6.2f\n", size, cmp.estimated,
                          cmp.measured_mean, cmp.abs_error_pct());
  }
  return os.str();
}

}  // namespace hpf90d::driver
