#include "study/study_result.hpp"

#include <cmath>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <tuple>

#include "support/codec.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

namespace hpf90d::study {

namespace {

using support::csv_field;

constexpr const char* kCsvHeader =
    "machine,variant,problem,nprocs,measured,estimated,measured_mean,"
    "measured_min,measured_max,measured_stddev,comp,comm,overhead,wait";

/// First-appearance orders of the sweep axes plus a point lookup — the
/// shared scaffolding of every analysis pass.
struct SweepIndex {
  std::vector<std::string> machines, variants, problems;
  std::vector<int> nprocs;  // ascending
  std::map<std::tuple<std::string_view, std::string_view, std::string_view, int>,
           const api::RunRecord*>
      by_key;

  explicit SweepIndex(const api::RunReport& report) {
    std::set<std::string_view> seen_m, seen_v, seen_p;
    std::set<int> seen_np;
    for (const auto& r : report.records) {
      if (seen_m.insert(r.machine).second) machines.push_back(r.machine);
      if (seen_v.insert(r.variant).second) variants.push_back(r.variant);
      if (seen_p.insert(r.problem).second) problems.push_back(r.problem);
      seen_np.insert(r.nprocs);
      by_key.emplace(std::make_tuple(std::string_view(r.machine),
                                     std::string_view(r.variant),
                                     std::string_view(r.problem), r.nprocs),
                     &r);
    }
    nprocs.assign(seen_np.begin(), seen_np.end());
  }

  [[nodiscard]] const api::RunRecord* find(std::string_view m, std::string_view v,
                                           std::string_view p, int np) const {
    const auto it = by_key.find(std::make_tuple(m, v, p, np));
    return it == by_key.end() ? nullptr : it->second;
  }
};

/// Scans one competitor pair along the ascending nprocs axis and appends a
/// Crossover wherever the estimated-time ordering strictly flips.
void scan_pair(const SweepIndex& ix, std::string_view axis, std::string_view a_name,
               std::string_view b_name, std::string_view context,
               std::string_view problem,
               const std::function<const api::RunRecord*(std::string_view, int)>& get,
               std::vector<Crossover>& out) {
  int prev_sign = 0;
  int prev_np = 0;
  double prev_a = 0, prev_b = 0;
  for (const int np : ix.nprocs) {
    const api::RunRecord* ra = get(a_name, np);
    const api::RunRecord* rb = get(b_name, np);
    if (ra == nullptr || rb == nullptr) continue;
    const double ta = ra->comparison.estimated;
    const double tb = rb->comparison.estimated;
    const int sign = ta < tb ? -1 : (ta > tb ? 1 : 0);
    // Ties are not crossings, and they do not move the anchor either: a
    // flip spanning a tie is reported between the two *decisive* points,
    // so the "before" side always names a real winner.
    if (sign == 0) continue;
    if (prev_sign != 0 && sign != prev_sign) {
      Crossover x;
      x.axis = std::string(axis);
      x.a = std::string(a_name);
      x.b = std::string(b_name);
      x.context = std::string(context);
      x.problem = std::string(problem);
      x.nprocs_before = prev_np;
      x.nprocs_after = np;
      x.a_before = prev_a;
      x.b_before = prev_b;
      x.a_after = ta;
      x.b_after = tb;
      out.push_back(std::move(x));
    }
    prev_sign = sign;
    prev_np = np;
    prev_a = ta;
    prev_b = tb;
  }
}

}  // namespace

std::string Crossover::str() const {
  // Which side is ahead on each side of the flip reads better than raw
  // sign bookkeeping: "X wins below, Y wins at/after".
  const std::string& before_winner = a_before < b_before ? a : b;
  const std::string& after_winner = a_after < b_after ? a : b;
  return support::strfmt(
      "%s crossover on %s, %s: %s wins at P=%d (%s vs %s), %s wins at P=%d (%s vs %s)",
      axis.c_str(), context.c_str(), problem.c_str(), before_winner.c_str(),
      nprocs_before, support::format_seconds(a_before).c_str(),
      support::format_seconds(b_before).c_str(), after_winner.c_str(), nprocs_after,
      support::format_seconds(a_after).c_str(),
      support::format_seconds(b_after).c_str());
}

const machine::WhatIfParams* StudyResult::params_for(std::string_view machine) const {
  for (const auto& pt : machine_points) {
    if (pt.name == machine) return &pt.params;
  }
  return nullptr;
}

std::vector<Crossover> StudyResult::crossovers() const {
  const SweepIndex ix(report);
  std::vector<Crossover> out;
  // variant-vs-variant flips, machine and problem held fixed
  for (const auto& m : ix.machines) {
    for (const auto& p : ix.problems) {
      for (std::size_t i = 0; i < ix.variants.size(); ++i) {
        for (std::size_t j = i + 1; j < ix.variants.size(); ++j) {
          scan_pair(ix, "variant", ix.variants[i], ix.variants[j], m, p,
                    [&](std::string_view v, int np) { return ix.find(m, v, p, np); },
                    out);
        }
      }
    }
  }
  // machine-vs-machine flips, variant and problem held fixed
  for (const auto& v : ix.variants) {
    for (const auto& p : ix.problems) {
      for (std::size_t i = 0; i < ix.machines.size(); ++i) {
        for (std::size_t j = i + 1; j < ix.machines.size(); ++j) {
          scan_pair(ix, "machine", ix.machines[i], ix.machines[j], v, p,
                    [&](std::string_view m, int np) { return ix.find(m, v, p, np); },
                    out);
        }
      }
    }
  }
  return out;
}

std::vector<ScalabilityCurve> StudyResult::scalability() const {
  const SweepIndex ix(report);
  std::vector<ScalabilityCurve> out;
  for (const auto& m : ix.machines) {
    for (const auto& v : ix.variants) {
      for (const auto& p : ix.problems) {
        ScalabilityCurve curve;
        curve.machine = m;
        curve.variant = v;
        curve.problem = p;
        for (const int np : ix.nprocs) {
          if (const api::RunRecord* r = ix.find(m, v, p, np)) {
            curve.points.push_back(
                ScalabilityPoint{np, r->comparison.estimated, 1.0, 1.0});
          }
        }
        if (curve.points.empty()) continue;
        const ScalabilityPoint base = curve.points.front();
        for (auto& pt : curve.points) {
          pt.speedup = pt.estimated > 0 ? base.estimated / pt.estimated : 0.0;
          pt.efficiency =
              pt.nprocs > 0 ? pt.speedup * base.nprocs / pt.nprocs : 0.0;
        }
        out.push_back(std::move(curve));
      }
    }
  }
  return out;
}

std::string PointDelta::str() const {
  return support::strfmt("%s %s %s P=%d: %s -> %s (%+.1f%%)", machine.c_str(),
                         variant.c_str(), problem.c_str(), nprocs,
                         support::format_seconds(estimated_before).c_str(),
                         support::format_seconds(estimated_after).c_str(),
                         100.0 * rel_change);
}

namespace {

/// Identity of a crossover conclusion — two studies "agree" on a flip when
/// the same competitors flip at the same place, whatever the exact times.
std::string crossover_key(const Crossover& x) {
  return x.axis + '\x1f' + x.a + '\x1f' + x.b + '\x1f' + x.context + '\x1f' +
         x.problem + '\x1f' + std::to_string(x.nprocs_before) + '\x1f' +
         std::to_string(x.nprocs_after);
}

}  // namespace

StudyDiff StudyResult::diff(const StudyResult& candidate, double threshold) const {
  StudyDiff out;
  out.title_before = title;
  out.title_after = candidate.title;
  out.threshold = threshold;

  // --- crossover conclusions gained/lost --------------------------------------
  const std::vector<Crossover> before = crossovers();
  const std::vector<Crossover> after = candidate.crossovers();
  std::set<std::string> before_keys, after_keys;
  for (const auto& x : before) before_keys.insert(crossover_key(x));
  for (const auto& x : after) after_keys.insert(crossover_key(x));
  for (const auto& x : after) {
    if (before_keys.count(crossover_key(x)) == 0) out.gained.push_back(x);
  }
  for (const auto& x : before) {
    if (after_keys.count(crossover_key(x)) == 0) out.lost.push_back(x);
  }

  // --- per-point estimated-time deltas ----------------------------------------
  const SweepIndex after_ix(candidate.report);
  std::size_t matched = 0;
  for (const auto& r : report.records) {
    const api::RunRecord* c = after_ix.find(r.machine, r.variant, r.problem, r.nprocs);
    if (c == nullptr) {
      ++out.only_in_before;
      continue;
    }
    ++matched;
    const double a = r.comparison.estimated;
    const double b = c->comparison.estimated;
    const double rel = a != 0.0 ? (b - a) / a : 0.0;
    const bool significant = a != 0.0 ? std::abs(rel) >= threshold : b != 0.0;
    if (significant) {
      out.deltas.push_back(
          PointDelta{r.machine, r.variant, r.problem, r.nprocs, a, b, rel});
    }
  }
  out.only_in_after = candidate.report.records.size() - matched;
  return out;
}

std::string StudyDiff::ascii() const {
  std::string out = support::strfmt("# study diff: %s -> %s (threshold %.0f%%)\n",
                                    title_before.c_str(), title_after.c_str(),
                                    100.0 * threshold);
  if (identical_conclusions()) {
    out += "identical conclusions: no crossover flips, no significant deltas\n";
    return out;
  }
  if (only_in_before > 0 || only_in_after > 0) {
    out += support::strfmt("point sets differ: %zu only in before, %zu only in after\n",
                           only_in_before, only_in_after);
  }
  out += support::strfmt("crossovers gained: %zu\n", gained.size());
  for (const auto& x : gained) out += "  + " + x.str() + "\n";
  out += support::strfmt("crossovers lost: %zu\n", lost.size());
  for (const auto& x : lost) out += "  - " + x.str() + "\n";
  out += support::strfmt("significant deltas: %zu\n", deltas.size());
  for (const auto& d : deltas) out += "  ~ " + d.str() + "\n";
  return out;
}

std::string StudyDiff::csv() const {
  // kind-discriminated rows so one file carries all three change classes:
  //   crossover,<gained|lost>,axis,a,b,context,problem,np_before,np_after
  //   delta,machine,variant,problem,nprocs,before,after,rel_change
  std::string out = "kind,f1,f2,f3,f4,f5,f6,f7,f8\n";
  const auto crossover_row = [&](const char* tag, const Crossover& x) {
    out += support::strfmt("crossover,%s,%s,%s,%s,%s,%s,%d,%d\n", tag,
                           csv_field(x.axis).c_str(), csv_field(x.a).c_str(),
                           csv_field(x.b).c_str(), csv_field(x.context).c_str(),
                           csv_field(x.problem).c_str(), x.nprocs_before,
                           x.nprocs_after);
  };
  for (const auto& x : gained) crossover_row("gained", x);
  for (const auto& x : lost) crossover_row("lost", x);
  for (const auto& d : deltas) {
    out += support::strfmt("delta,%s,%s,%s,%d,%.17g,%.17g,%.17g,\n",
                           csv_field(d.machine).c_str(), csv_field(d.variant).c_str(),
                           csv_field(d.problem).c_str(), d.nprocs, d.estimated_before,
                           d.estimated_after, d.rel_change);
  }
  return out;
}

std::vector<BottleneckRecord> StudyResult::bottlenecks() const {
  std::vector<BottleneckRecord> out;
  out.reserve(report.records.size());
  for (const auto& r : report.records) {
    out.push_back(BottleneckRecord{r.machine, r.variant, r.problem, r.nprocs, r.phases});
  }
  return out;
}

std::string StudyResult::ascii() const {
  std::string out;
  if (!title.empty()) out += "# " + title + "\n";
  if (!machine_points.empty()) {
    out += support::strfmt("base machine: %s | %zu knob-grid machine points\n",
                           base_machine.c_str(), machine_points.size());
  }

  support::TextTable table({"machine", "variant", "problem", "P", "estimated",
                            "measured", "error", "bottleneck"});
  for (const auto& r : report.records) {
    table.add_row(
        {r.machine, r.variant, r.problem, std::to_string(r.nprocs),
         support::format_seconds(r.comparison.estimated),
         r.measured ? support::format_seconds(r.comparison.measured_mean)
                    : std::string("-"),
         r.measured ? support::strfmt("%.2f%%", r.comparison.abs_error_pct())
                    : std::string("-"),
         support::strfmt("%s %.0f%%", r.phases.dominant(),
                         100.0 * r.phases.dominant_fraction())});
  }
  out += table.str();

  const std::vector<Crossover> flips = crossovers();
  out += support::strfmt("\ncrossovers: %zu\n", flips.size());
  for (const auto& x : flips) out += "  " + x.str() + "\n";

  const std::vector<ScalabilityCurve> curves = scalability();
  if (!curves.empty()) {
    out += "\nscalability (vs smallest P):\n";
    support::TextTable sc({"machine", "variant", "problem", "P*", "speedup", "eff"});
    for (const auto& c : curves) {
      const ScalabilityPoint& last = c.points.back();
      sc.add_row({c.machine, c.variant, c.problem, std::to_string(last.nprocs),
                  support::strfmt("%.2fx", last.speedup),
                  support::strfmt("%.0f%%", 100.0 * last.efficiency)});
    }
    out += sc.str();
  }

  out += support::strfmt(
      "\n%zu points | compile cache %zu hit / %zu miss | layout cache %zu hit "
      "/ %zu miss",
      report.records.size(), report.cache.compile_hits, report.cache.compile_misses,
      report.cache.layout_hits, report.cache.layout_misses);
  if (report.cache.layout_evictions > 0) {
    out += support::strfmt(" / %zu evicted", report.cache.layout_evictions);
  }
  if (report.cache.layout_capacity > 0) {
    out += support::strfmt(" (cap %zu)", report.cache.layout_capacity);
  }
  out += '\n';
  return out;
}

std::string StudyResult::csv() const {
  std::string out;
  out += "# study," + csv_field(title) + "," + csv_field(base_machine) + "\n";
  for (const auto& pt : machine_points) {
    out += support::strfmt("# machine_point,%s,%.17g,%.17g,%.17g\n",
                           csv_field(pt.name).c_str(), pt.params.latency_scale,
                           pt.params.bandwidth_scale, pt.params.cpu_scale);
  }
  out += kCsvHeader;
  out += '\n';
  for (const auto& r : report.records) {
    out += support::strfmt(
        "%s,%s,%s,%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n",
        csv_field(r.machine).c_str(), csv_field(r.variant).c_str(),
        csv_field(r.problem).c_str(), r.nprocs, r.measured ? 1 : 0,
        r.comparison.estimated, r.comparison.measured_mean, r.comparison.measured_min,
        r.comparison.measured_max, r.comparison.measured_stddev, r.phases.comp,
        r.phases.comm, r.phases.overhead, r.phases.wait);
  }
  return out;
}

StudyResult StudyResult::from_csv(std::string_view text) {
  support::LineReader in(text, "StudyResult::from_csv",
                         support::raise<std::invalid_argument>);
  StudyResult result;
  bool saw_header = false;
  bool saw_study_line = false;
  while (!in.at_end()) {
    const std::string_view line = support::trim(in.next_line());
    if (line.empty()) continue;
    if (line.front() == '#') {
      const auto cells = support::split(support::trim(line.substr(1)), ',');
      if (cells.empty()) continue;
      if (cells[0] == "study") {
        if (cells.size() != 3) in.fail("malformed study line");
        result.title = cells[1];
        result.base_machine = cells[2];
        saw_study_line = true;
      } else if (cells[0] == "machine_point") {
        if (cells.size() != 5) in.fail("malformed machine_point line");
        MachinePoint pt;
        pt.name = cells[1];
        pt.params.latency_scale = in.double_field(cells[2]);
        pt.params.bandwidth_scale = in.double_field(cells[3]);
        pt.params.cpu_scale = in.double_field(cells[4]);
        result.machine_points.push_back(std::move(pt));
      }
      continue;
    }
    if (!saw_header) {
      if (line != kCsvHeader) in.fail("unrecognized header: " + std::string(line));
      saw_header = true;
      continue;
    }
    const auto cells = support::split(line, ',');
    if (cells.size() != 14) {
      in.fail("expected 14 fields, got " + std::to_string(cells.size()) + " in: " +
              std::string(line));
    }
    api::RunRecord r;
    r.machine = cells[0];
    r.variant = cells[1];
    r.problem = cells[2];
    r.nprocs = static_cast<int>(in.int_field(cells[3], INT_MIN, INT_MAX));
    r.measured = in.int_field(cells[4], INT_MIN, INT_MAX) != 0;
    r.comparison.estimated = in.double_field(cells[5]);
    r.comparison.measured_mean = in.double_field(cells[6]);
    r.comparison.measured_min = in.double_field(cells[7]);
    r.comparison.measured_max = in.double_field(cells[8]);
    r.comparison.measured_stddev = in.double_field(cells[9]);
    r.phases.comp = in.double_field(cells[10]);
    r.phases.comm = in.double_field(cells[11]);
    r.phases.overhead = in.double_field(cells[12]);
    r.phases.wait = in.double_field(cells[13]);
    result.report.records.push_back(std::move(r));
  }
  if (!saw_study_line || !saw_header) {
    throw std::invalid_argument("StudyResult::from_csv: missing study line or header");
  }
  result.report.title = result.title;
  return result;
}

std::string StudyResult::json() const {
  std::string out = "{\n";
  out += "  \"title\": \"";
  out += support::json_escape(title);
  out += "\",\n  \"base_machine\": \"";
  out += support::json_escape(base_machine);
  out += "\",\n  \"machine_points\": [";
  for (std::size_t i = 0; i < machine_points.size(); ++i) {
    const MachinePoint& pt = machine_points[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"";
    out += support::json_escape(pt.name);
    out += "\", \"latency_scale\": " + support::format_g17(pt.params.latency_scale) +
           ", \"bandwidth_scale\": " + support::format_g17(pt.params.bandwidth_scale) +
           ", \"cpu_scale\": " + support::format_g17(pt.params.cpu_scale) + "}";
  }
  out += machine_points.empty() ? "],\n" : "\n  ],\n";
  out += "  \"records\": [";
  for (std::size_t i = 0; i < report.records.size(); ++i) {
    const api::RunRecord& r = report.records[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"machine\": \"";
    out += support::json_escape(r.machine);
    out += "\", \"variant\": \"";
    out += support::json_escape(r.variant);
    out += "\", \"problem\": \"";
    out += support::json_escape(r.problem);
    out += "\", \"nprocs\": " + std::to_string(r.nprocs) +
           ", \"measured\": " + (r.measured ? "true" : "false") +
           ", \"estimated\": " + support::format_g17(r.comparison.estimated) +
           ", \"measured_mean\": " + support::format_g17(r.comparison.measured_mean) +
           ", \"measured_min\": " + support::format_g17(r.comparison.measured_min) +
           ", \"measured_max\": " + support::format_g17(r.comparison.measured_max) +
           ", \"measured_stddev\": " + support::format_g17(r.comparison.measured_stddev) +
           ", \"comp\": " + support::format_g17(r.phases.comp) +
           ", \"comm\": " + support::format_g17(r.phases.comm) +
           ", \"overhead\": " + support::format_g17(r.phases.overhead) +
           ", \"wait\": " + support::format_g17(r.phases.wait) + "}";
  }
  out += report.records.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

StudyResult StudyResult::from_json(std::string_view text) {
  StudyResult result;
  support::JsonReader in(text, "StudyResult::from_json");
  in.expect('{');
  bool first_key = true;
  while (!in.consume('}')) {
    if (!first_key) in.expect(',');
    first_key = false;
    const std::string key = in.string();
    in.expect(':');
    if (key == "title") {
      result.title = in.string();
    } else if (key == "base_machine") {
      result.base_machine = in.string();
    } else if (key == "machine_points") {
      in.expect('[');
      while (!in.consume(']')) {
        if (!result.machine_points.empty()) in.expect(',');
        in.expect('{');
        MachinePoint pt;
        bool first = true;
        while (!in.consume('}')) {
          if (!first) in.expect(',');
          first = false;
          const std::string field = in.string();
          in.expect(':');
          if (field == "name") pt.name = in.string();
          else if (field == "latency_scale") pt.params.latency_scale = in.number();
          else if (field == "bandwidth_scale") pt.params.bandwidth_scale = in.number();
          else if (field == "cpu_scale") pt.params.cpu_scale = in.number();
          else in.fail("unknown machine_point field \"" + field + "\"");
        }
        result.machine_points.push_back(std::move(pt));
      }
    } else if (key == "records") {
      in.expect('[');
      while (!in.consume(']')) {
        if (!result.report.records.empty()) in.expect(',');
        in.expect('{');
        api::RunRecord r;
        bool first = true;
        while (!in.consume('}')) {
          if (!first) in.expect(',');
          first = false;
          const std::string field = in.string();
          in.expect(':');
          if (field == "machine") r.machine = in.string();
          else if (field == "variant") r.variant = in.string();
          else if (field == "problem") r.problem = in.string();
          else if (field == "nprocs") r.nprocs = in.int_number();
          else if (field == "measured") r.measured = in.boolean();
          else if (field == "estimated") r.comparison.estimated = in.number();
          else if (field == "measured_mean") r.comparison.measured_mean = in.number();
          else if (field == "measured_min") r.comparison.measured_min = in.number();
          else if (field == "measured_max") r.comparison.measured_max = in.number();
          else if (field == "measured_stddev") r.comparison.measured_stddev = in.number();
          else if (field == "comp") r.phases.comp = in.number();
          else if (field == "comm") r.phases.comm = in.number();
          else if (field == "overhead") r.phases.overhead = in.number();
          else if (field == "wait") r.phases.wait = in.number();
          else in.fail("unknown record field \"" + field + "\"");
        }
        result.report.records.push_back(std::move(r));
      }
    } else {
      in.fail("unknown field \"" + key + "\"");
    }
  }
  in.end();
  result.report.title = result.title;
  return result;
}

}  // namespace hpf90d::study
