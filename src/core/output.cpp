#include "core/output.hpp"

#include <algorithm>
#include <sstream>

#include "support/table.hpp"
#include "support/text.hpp"

namespace hpf90d::core {

AAUMetric OutputModule::whole_program() const {
  AAUMetric total;
  for (const auto& m : result_.per_aau) total.add(m);
  return total;
}

AAUMetric OutputModule::sub_aag(int id) const {
  AAUMetric total;
  for (int a : saag_.subtree(id)) total.add(result_.per_aau.at(static_cast<std::size_t>(a)));
  return total;
}

AAUMetric OutputModule::line(std::uint32_t line_no) const {
  AAUMetric total;
  for (int a : saag_.aaus_on_line(line_no)) {
    // include nested work (a forall's comm nodes share its source line
    // already; loops accumulate their subtree)
    total.add(sub_aag(a));
  }
  return total;
}

std::string OutputModule::profile(int top) const {
  using support::format_seconds;
  const AAUMetric total = whole_program();
  std::ostringstream os;
  os << "predicted execution time: " << format_seconds(result_.total) << '\n';
  os << "  computation:   " << format_seconds(total.comp) << '\n';
  os << "  communication: " << format_seconds(total.comm) << '\n';
  os << "  overheads:     " << format_seconds(total.overhead) << '\n';
  os << "  wait:          " << format_seconds(total.wait) << '\n';

  std::vector<int> ids;
  for (const auto& a : saag_.aaus()) {
    if (a.node == nullptr || a.kind == AAUKind::Seq) continue;
    ids.push_back(a.id);
  }
  std::sort(ids.begin(), ids.end(), [&](int a, int b) {
    return result_.per_aau[static_cast<std::size_t>(a)].total() >
           result_.per_aau[static_cast<std::size_t>(b)].total();
  });
  if (static_cast<int>(ids.size()) > top) ids.resize(static_cast<std::size_t>(top));

  support::TextTable table({"AAU", "kind", "line", "comp", "comm", "ovhd", "wait"});
  for (int id : ids) {
    const AAU& a = saag_.at(id);
    const AAUMetric& m = result_.per_aau[static_cast<std::size_t>(id)];
    table.add_row({std::to_string(id) + " " + a.label,
                   std::string(aau_kind_name(a.kind)),
                   a.loc.valid() ? std::to_string(a.loc.line) : "-",
                   format_seconds(m.comp), format_seconds(m.comm),
                   format_seconds(m.overhead), format_seconds(m.wait)});
  }
  os << table.str();
  return os.str();
}

std::string OutputModule::paragraph_trace() const {
  std::ostringstream os;
  os << "# ParaGraph-style interpretation trace\n";
  os << "# <type> <proc> <time-us> <aau> <category>\n";
  for (const auto& ev : result_.trace) {
    int begin_type = -3, end_type = -4;  // compute block
    if (ev.category == 'M' || ev.category == 'I') {
      begin_type = -21;  // send/comm begin
      end_type = -22;
    } else if (ev.category == 'W') {
      begin_type = -11;  // idle
      end_type = -12;
    }
    os << begin_type << ' ' << ev.proc << ' '
       << static_cast<long long>(ev.t_begin * 1e6) << ' ' << ev.aau << ' '
       << ev.category << '\n';
    os << end_type << ' ' << ev.proc << ' '
       << static_cast<long long>(ev.t_end * 1e6) << ' ' << ev.aau << ' '
       << ev.category << '\n';
  }
  return os.str();
}

}  // namespace hpf90d::core
