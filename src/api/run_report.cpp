#include "api/run_report.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <stdexcept>
#include <tuple>

#include "support/table.hpp"
#include "support/text.hpp"

namespace hpf90d::api {

namespace {

constexpr const char* kCsvHeader =
    "machine,variant,problem,nprocs,measured,estimated,measured_mean,"
    "measured_min,measured_max,measured_stddev";

/// CSV fields never contain commas by construction (names come from
/// registry keys and plan labels); escape defensively anyway.
std::string csv_field(const std::string& s) {
  std::string out = s;
  std::replace(out.begin(), out.end(), ',', ';');
  return out;
}

}  // namespace

const RunRecord* RunReport::best_estimated() const {
  const auto it = std::min_element(
      records.begin(), records.end(), [](const RunRecord& a, const RunRecord& b) {
        return a.comparison.estimated < b.comparison.estimated;
      });
  return it == records.end() ? nullptr : &*it;
}

double RunReport::worst_error_pct() const {
  double worst = 0;
  for (const auto& r : records) {
    if (r.measured) worst = std::max(worst, r.comparison.abs_error_pct());
  }
  return worst;
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

double ReportDiff::worst_delta_pct() const {
  double worst = 0;
  for (const auto& r : records) worst = std::max(worst, std::abs(r.delta_pct()));
  return worst;
}

std::string ReportDiff::ascii() const {
  support::TextTable table({"machine", "variant", "problem", "P", "before", "after",
                            "delta", "delta%", "measured%", "sig"});
  for (const auto& r : records) {
    table.add_row({r.machine, r.variant, r.problem, std::to_string(r.nprocs),
                   support::format_seconds(r.estimated_before),
                   support::format_seconds(r.estimated_after),
                   support::strfmt("%+.3g s", r.delta()),
                   support::strfmt("%+.2f%%", r.delta_pct()),
                   r.measured ? support::strfmt("%+.2f%%", r.measured_delta_pct())
                              : std::string("-"),
                   r.measured ? (r.significant() ? std::string("*") : std::string(""))
                              : std::string("-")});
  }
  std::string out = table.str();
  out += support::strfmt("%zu points diffed | worst delta %.2f%%", records.size(),
                         worst_delta_pct());
  std::size_t significant = 0;
  for (const auto& r : records) significant += r.significant() ? 1 : 0;
  if (significant > 0) {
    out += support::strfmt(" | %zu significant measured shift%s (*)", significant,
                           significant == 1 ? "" : "s");
  }
  if (only_before + only_after > 0) {
    out += support::strfmt(" | unmatched: %zu before-only, %zu after-only",
                           only_before, only_after);
  }
  out += '\n';
  return out;
}

std::string ReportDiff::csv() const {
  std::string out =
      "machine,variant,problem,nprocs,estimated_before,estimated_after,delta,"
      "delta_pct,measured,measured_before,measured_after,measured_delta,"
      "measured_delta_pct,stddev_before,stddev_after,significant\n";
  for (const auto& r : records) {
    out += support::strfmt(
        "%s,%s,%s,%d,%.17g,%.17g,%.17g,%.17g,%d,%.17g,%.17g,%.17g,%.17g,%.17g,"
        "%.17g,%d\n",
        csv_field(r.machine).c_str(), csv_field(r.variant).c_str(),
        csv_field(r.problem).c_str(), r.nprocs, r.estimated_before, r.estimated_after,
        r.delta(), r.delta_pct(), r.measured ? 1 : 0, r.measured_before,
        r.measured_after, r.measured_delta(), r.measured_delta_pct(), r.stddev_before,
        r.stddev_after, r.significant() ? 1 : 0);
  }
  return out;
}

ReportDiff RunReport::diff(const RunReport& before, const RunReport& after) {
  using Key = std::tuple<std::string, std::string, std::string, int>;
  const auto key_of = [](const RunRecord& r) {
    return Key{r.machine, r.variant, r.problem, r.nprocs};
  };
  // Plan-produced reports have unique keys, but from_csv accepts arbitrary
  // files: records are consumed pairwise per key, so duplicates diff
  // one-to-one and any surplus is counted as unmatched, never dropped.
  std::map<Key, std::deque<const RunRecord*>> after_by_key;
  for (const auto& r : after.records) after_by_key[key_of(r)].push_back(&r);

  ReportDiff out;
  for (const auto& a : before.records) {
    const auto it = after_by_key.find(key_of(a));
    if (it == after_by_key.end() || it->second.empty()) {
      ++out.only_before;
      continue;
    }
    const RunRecord* b = it->second.front();
    it->second.pop_front();
    DiffRecord d;
    d.machine = a.machine;
    d.variant = a.variant;
    d.problem = a.problem;
    d.nprocs = a.nprocs;
    d.estimated_before = a.comparison.estimated;
    d.estimated_after = b->comparison.estimated;
    if (a.measured && b->measured) {
      d.measured = true;
      d.measured_before = a.comparison.measured_mean;
      d.measured_after = b->comparison.measured_mean;
      d.stddev_before = a.comparison.measured_stddev;
      d.stddev_after = b->comparison.measured_stddev;
    }
    out.records.push_back(std::move(d));
  }
  for (const auto& [key, remaining] : after_by_key) out.only_after += remaining.size();
  return out;
}

namespace {

// --- JSON helpers (same conventions as study_result.cpp: %.17g numbers,
// minimal escaping, a tiny recursive-descent reader that fails loudly).

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += support::strfmt("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string jnum(double v) { return support::strfmt("%.17g", v); }
std::string jnum(std::uint64_t v) {
  return support::strfmt("%llu", static_cast<unsigned long long>(v));
}

/// Strict reader for the output of RunReport::json(): fixed key order, so
/// any schema drift (renamed, missing, or reordered keys) throws instead
/// of silently zero-filling.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  void expect(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void key(const char* name) {
    const std::string got = string();
    if (got != name) fail("expected key \"" + std::string(name) + "\", got \"" + got + '"');
    expect(':');
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("dangling escape");
        const char e = text_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
            unsigned v = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              v <<= 4;
              if (h >= '0' && h <= '9') v += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') v += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') v += static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape digit");
            }
            if (v > 0x7f) fail("non-ASCII \\u escape unsupported");
            c = static_cast<char>(v);
            break;
          }
          default: fail("unsupported escape");
        }
      }
      out += c;
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  double number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' ||
          c == 'E' || c == 'i' || c == 'n' || c == 'f' || c == 'a') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected number");
    try {
      return std::stod(std::string(text_.substr(start, pos_ - start)));
    } catch (const std::exception&) {
      fail("malformed number");
    }
    return 0;  // unreachable
  }

  std::uint64_t unsigned_number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    if (pos_ == start) fail("expected unsigned integer");
    try {
      return std::stoull(std::string(text_.substr(start, pos_ - start)));
    } catch (const std::exception&) {
      fail("malformed unsigned integer");
    }
    return 0;  // unreachable
  }

  bool boolean() {
    skip_ws();
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    fail("expected boolean");
    return false;  // unreachable
  }

  void end() {
    skip_ws();
    if (pos_ != text_.size()) fail("trailing bytes after document");
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw std::invalid_argument("RunReport::from_json: " + why + " at offset " +
                                std::to_string(pos_));
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string RunReport::json() const {
  std::string out = "{\"title\":\"" + json_escape(title) + "\",";
  out += "\"wall_seconds\":" + jnum(wall_seconds) + ",";
  out += "\"cache\":{";
  out += "\"compile_hits\":" + jnum(static_cast<std::uint64_t>(cache.compile_hits)) + ",";
  out += "\"compile_misses\":" + jnum(static_cast<std::uint64_t>(cache.compile_misses)) + ",";
  out += "\"layout_hits\":" + jnum(static_cast<std::uint64_t>(cache.layout_hits)) + ",";
  out += "\"layout_misses\":" + jnum(static_cast<std::uint64_t>(cache.layout_misses)) + ",";
  out += "\"layout_evictions\":" + jnum(static_cast<std::uint64_t>(cache.layout_evictions)) + ",";
  out += "\"layout_spill_hits\":" + jnum(static_cast<std::uint64_t>(cache.layout_spill_hits)) + ",";
  out += "\"layout_capacity\":" + jnum(static_cast<std::uint64_t>(cache.layout_capacity)) + "},";
  out += "\"batch\":{";
  out += "\"batched_points\":" + jnum(static_cast<std::uint64_t>(batch.batched_points)) + ",";
  out += "\"scalar_points\":" + jnum(static_cast<std::uint64_t>(batch.scalar_points)) + ",";
  out += "\"replayed_points\":" + jnum(static_cast<std::uint64_t>(batch.replayed_points)) + ",";
  out += "\"ir_visits\":" + jnum(batch.ir_visits) + ",";
  out += "\"lane_visits\":" + jnum(batch.lane_visits) + ",";
  out += "\"evicted_lanes\":" + jnum(batch.evicted_lanes) + ",";
  out += "\"refilled_lanes\":" + jnum(batch.refilled_lanes) + ",";
  out += "\"simd_stripes\":" + jnum(batch.simd_stripes) + "},";
  out += "\"records\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RunRecord& r = records[i];
    if (i > 0) out += ',';
    out += "\n{\"machine\":\"" + json_escape(r.machine) + "\",";
    out += "\"variant\":\"" + json_escape(r.variant) + "\",";
    out += "\"problem\":\"" + json_escape(r.problem) + "\",";
    out += "\"nprocs\":" + std::to_string(r.nprocs) + ",";
    out += std::string("\"measured\":") + (r.measured ? "true" : "false") + ",";
    out += "\"estimated\":" + jnum(r.comparison.estimated) + ",";
    out += "\"measured_mean\":" + jnum(r.comparison.measured_mean) + ",";
    out += "\"measured_min\":" + jnum(r.comparison.measured_min) + ",";
    out += "\"measured_max\":" + jnum(r.comparison.measured_max) + ",";
    out += "\"measured_stddev\":" + jnum(r.comparison.measured_stddev) + ",";
    out += "\"phases\":{";
    out += "\"comp\":" + jnum(r.phases.comp) + ",";
    out += "\"comm\":" + jnum(r.phases.comm) + ",";
    out += "\"overhead\":" + jnum(r.phases.overhead) + ",";
    out += "\"wait\":" + jnum(r.phases.wait) + "}}";
  }
  out += "]}\n";
  return out;
}

RunReport RunReport::from_json(std::string_view text) {
  JsonReader in(text);
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
  report.batch.refilled_lanes = u64_field("refilled_lanes");
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
      r.nprocs = static_cast<int>(in.number());
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
  RunReport report;
  bool saw_header = false;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = support::trim(text.substr(pos, eol - pos));
    pos = eol + 1;
    if (line.empty()) continue;
    if (!saw_header) {
      if (line != kCsvHeader) {
        throw std::invalid_argument("RunReport::from_csv: unrecognized header: " +
                                    std::string(line));
      }
      saw_header = true;
      continue;
    }
    const auto cells = support::split(line, ',');
    if (cells.size() != 10) {
      throw std::invalid_argument("RunReport::from_csv: expected 10 fields, got " +
                                  std::to_string(cells.size()) + " in: " +
                                  std::string(line));
    }
    RunRecord r;
    r.machine = cells[0];
    r.variant = cells[1];
    r.problem = cells[2];
    r.nprocs = std::stoi(cells[3]);
    r.measured = std::stoi(cells[4]) != 0;
    r.comparison.estimated = std::stod(cells[5]);
    r.comparison.measured_mean = std::stod(cells[6]);
    r.comparison.measured_min = std::stod(cells[7]);
    r.comparison.measured_max = std::stod(cells[8]);
    r.comparison.measured_stddev = std::stod(cells[9]);
    report.records.push_back(std::move(r));
  }
  if (!saw_header) throw std::invalid_argument("RunReport::from_csv: empty input");
  return report;
}

}  // namespace hpf90d::api
