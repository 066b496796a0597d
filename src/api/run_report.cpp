#include "api/run_report.hpp"

#include <algorithm>
#include <stdexcept>

#include "support/codec.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

namespace hpf90d::api {

namespace {

using support::csv_field;

constexpr const char* kCsvHeader =
    "machine,variant,problem,nprocs,measured,estimated,measured_mean,"
    "measured_min,measured_max,measured_stddev";

}  // namespace

const RunRecord* RunReport::best_estimated() const {
  const auto it = std::min_element(
      records.begin(), records.end(), [](const RunRecord& a, const RunRecord& b) {
        return a.comparison.estimated < b.comparison.estimated;
      });
  return it == records.end() ? nullptr : &*it;
}

std::string RunReport::ascii() const {
  support::TextTable table(
      {"machine", "variant", "problem", "P", "estimated", "measured", "error"});
  for (const auto& r : records) {
    table.add_row({r.machine, r.variant, r.problem, std::to_string(r.nprocs),
                   support::format_seconds(r.comparison.estimated),
                   r.measured ? support::format_seconds(r.comparison.measured_mean)
                              : std::string("-"),
                   r.measured ? support::strfmt("%.2f%%", r.comparison.abs_error_pct())
                              : std::string("-")});
  }
  std::string out;
  if (!title.empty()) out += "# " + title + "\n";
  out += table.str();
  out += support::strfmt(
      "%zu points in %.3f s | compile cache %zu hit / %zu miss | "
      "layout cache %zu hit / %zu miss",
      records.size(), wall_seconds, cache.compile_hits, cache.compile_misses,
      cache.layout_hits, cache.layout_misses);
  if (cache.layout_evictions > 0) {
    out += support::strfmt(" / %zu evicted", cache.layout_evictions);
  }
  if (cache.layout_spill_hits > 0) {
    out += support::strfmt(" / %zu from spill", cache.layout_spill_hits);
  }
  if (cache.layout_capacity > 0) {
    out += support::strfmt(" (cap %zu)", cache.layout_capacity);
  }
  if (cache.value_tape_hits + cache.value_tape_misses > 0) {
    out += support::strfmt(" | value tapes %zu hit / %zu miss", cache.value_tape_hits,
                           cache.value_tape_misses);
    if (cache.value_tape_evictions > 0) {
      out += support::strfmt(" / %zu evicted", cache.value_tape_evictions);
    }
    out += support::strfmt(" (%zu B resident)", cache.value_tape_bytes);
  }
  out += '\n';
  return out;
}

std::string RunReport::csv() const {
  std::string out = kCsvHeader;
  out += '\n';
  for (const auto& r : records) {
    out += support::strfmt(
        "%s,%s,%s,%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g\n",
        csv_field(r.machine).c_str(), csv_field(r.variant).c_str(),
        csv_field(r.problem).c_str(), r.nprocs, r.measured ? 1 : 0,
        r.comparison.estimated, r.comparison.measured_mean, r.comparison.measured_min,
        r.comparison.measured_max, r.comparison.measured_stddev);
  }
  return out;
}

std::string RunReport::json() const {
  std::string out = "{\"title\":\"" + support::json_escape(title) + "\",";
  out += "\"wall_seconds\":" + support::format_g17(wall_seconds) + ",";
  out += "\"cache\":{";
  out += "\"compile_hits\":" + std::to_string(cache.compile_hits) + ",";
  out += "\"compile_misses\":" + std::to_string(cache.compile_misses) + ",";
  out += "\"layout_hits\":" + std::to_string(cache.layout_hits) + ",";
  out += "\"layout_misses\":" + std::to_string(cache.layout_misses) + ",";
  out += "\"layout_evictions\":" + std::to_string(cache.layout_evictions) + ",";
  out += "\"layout_spill_hits\":" + std::to_string(cache.layout_spill_hits) + ",";
  out += "\"layout_capacity\":" + std::to_string(cache.layout_capacity) + ",";
  out += "\"value_tape_hits\":" + std::to_string(cache.value_tape_hits) + ",";
  out += "\"value_tape_misses\":" + std::to_string(cache.value_tape_misses) + ",";
  out += "\"value_tape_evictions\":" + std::to_string(cache.value_tape_evictions) + ",";
  out += "\"value_tape_bytes\":" + std::to_string(cache.value_tape_bytes) + "},";
  out += "\"batch\":{";
  out += "\"batched_points\":" + std::to_string(batch.batched_points) + ",";
  out += "\"scalar_points\":" + std::to_string(batch.scalar_points) + ",";
  out += "\"replayed_points\":" + std::to_string(batch.replayed_points) + ",";
  out += "\"ir_visits\":" + std::to_string(batch.ir_visits) + ",";
  out += "\"lane_visits\":" + std::to_string(batch.lane_visits) + ",";
  out += "\"evicted_lanes\":" + std::to_string(batch.evicted_lanes) + ",";
  out += "\"simd_stripes\":" + std::to_string(batch.simd_stripes) + "},";
  out += "\"records\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RunRecord& r = records[i];
    if (i > 0) out += ',';
    out += "\n{\"machine\":\"" + support::json_escape(r.machine) + "\",";
    out += "\"variant\":\"" + support::json_escape(r.variant) + "\",";
    out += "\"problem\":\"" + support::json_escape(r.problem) + "\",";
    out += "\"nprocs\":" + std::to_string(r.nprocs) + ",";
    out += std::string("\"measured\":") + (r.measured ? "true" : "false") + ",";
    out += "\"estimated\":" + support::format_g17(r.comparison.estimated) + ",";
    out += "\"measured_mean\":" + support::format_g17(r.comparison.measured_mean) + ",";
    out += "\"measured_min\":" + support::format_g17(r.comparison.measured_min) + ",";
    out += "\"measured_max\":" + support::format_g17(r.comparison.measured_max) + ",";
    out += "\"measured_stddev\":" + support::format_g17(r.comparison.measured_stddev) + ",";
    out += "\"phases\":{";
    out += "\"comp\":" + support::format_g17(r.phases.comp) + ",";
    out += "\"comm\":" + support::format_g17(r.phases.comm) + ",";
    out += "\"overhead\":" + support::format_g17(r.phases.overhead) + ",";
    out += "\"wait\":" + support::format_g17(r.phases.wait) + "}}";
  }
  out += "]}\n";
  return out;
}

RunReport RunReport::from_json(std::string_view text) {
  support::JsonReader in(text, "RunReport::from_json");
  RunReport report;
  in.expect('{');
  in.key("title");
  report.title = in.string();
  in.expect(',');
  in.key("wall_seconds");
  report.wall_seconds = in.number();
  in.expect(',');
  in.key("cache");
  in.expect('{');
  const auto size_field = [&in](const char* name) {
    in.key(name);
    return static_cast<std::size_t>(in.unsigned_number());
  };
  report.cache.compile_hits = size_field("compile_hits");
  in.expect(',');
  report.cache.compile_misses = size_field("compile_misses");
  in.expect(',');
  report.cache.layout_hits = size_field("layout_hits");
  in.expect(',');
  report.cache.layout_misses = size_field("layout_misses");
  in.expect(',');
  report.cache.layout_evictions = size_field("layout_evictions");
  in.expect(',');
  report.cache.layout_spill_hits = size_field("layout_spill_hits");
  in.expect(',');
  report.cache.layout_capacity = size_field("layout_capacity");
  in.expect(',');
  report.cache.value_tape_hits = size_field("value_tape_hits");
  in.expect(',');
  report.cache.value_tape_misses = size_field("value_tape_misses");
  in.expect(',');
  report.cache.value_tape_evictions = size_field("value_tape_evictions");
  in.expect(',');
  report.cache.value_tape_bytes = size_field("value_tape_bytes");
  in.expect('}');
  in.expect(',');
  in.key("batch");
  in.expect('{');
  const auto u64_field = [&in](const char* name) {
    in.key(name);
    return in.unsigned_number();
  };
  report.batch.batched_points = size_field("batched_points");
  in.expect(',');
  report.batch.scalar_points = size_field("scalar_points");
  in.expect(',');
  report.batch.replayed_points = size_field("replayed_points");
  in.expect(',');
  report.batch.ir_visits = u64_field("ir_visits");
  in.expect(',');
  report.batch.lane_visits = u64_field("lane_visits");
  in.expect(',');
  report.batch.evicted_lanes = u64_field("evicted_lanes");
  in.expect(',');
  report.batch.simd_stripes = u64_field("simd_stripes");
  in.expect('}');
  in.expect(',');
  in.key("records");
  in.expect('[');
  if (!in.consume(']')) {
    do {
      in.expect('{');
      RunRecord r;
      in.key("machine");
      r.machine = in.string();
      in.expect(',');
      in.key("variant");
      r.variant = in.string();
      in.expect(',');
      in.key("problem");
      r.problem = in.string();
      in.expect(',');
      in.key("nprocs");
      r.nprocs = in.int_number();
      in.expect(',');
      in.key("measured");
      r.measured = in.boolean();
      in.expect(',');
      const auto num_field = [&in](const char* name) {
        in.key(name);
        return in.number();
      };
      r.comparison.estimated = num_field("estimated");
      in.expect(',');
      r.comparison.measured_mean = num_field("measured_mean");
      in.expect(',');
      r.comparison.measured_min = num_field("measured_min");
      in.expect(',');
      r.comparison.measured_max = num_field("measured_max");
      in.expect(',');
      r.comparison.measured_stddev = num_field("measured_stddev");
      in.expect(',');
      in.key("phases");
      in.expect('{');
      r.phases.comp = num_field("comp");
      in.expect(',');
      r.phases.comm = num_field("comm");
      in.expect(',');
      r.phases.overhead = num_field("overhead");
      in.expect(',');
      r.phases.wait = num_field("wait");
      in.expect('}');
      in.expect('}');
      report.records.push_back(std::move(r));
    } while (in.consume(','));
    in.expect(']');
  }
  in.expect('}');
  in.end();
  return report;
}

RunReport RunReport::from_csv(std::string_view text) {
  support::LineReader in(text, "RunReport::from_csv",
                         support::raise<std::invalid_argument>);
  RunReport report;
  bool saw_header = false;
  while (!in.at_end()) {
    const std::string_view line = support::trim(in.next_line());
    if (line.empty()) continue;
    if (!saw_header) {
      if (line != kCsvHeader) in.fail("unrecognized header: " + std::string(line));
      saw_header = true;
      continue;
    }
    const auto cells = support::split(line, ',');
    if (cells.size() != 10) {
      in.fail("expected 10 fields, got " + std::to_string(cells.size()) + " in: " +
              std::string(line));
    }
    RunRecord r;
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
    report.records.push_back(std::move(r));
  }
  if (!saw_header) throw std::invalid_argument("RunReport::from_csv: empty input");
  return report;
}

}  // namespace hpf90d::api
