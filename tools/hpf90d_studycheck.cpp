// hpf90d_studycheck — the golden-study regression gate.
//
// Runs a fixed canonical design study (the paper's §7 Laplace latency x
// bandwidth what-if) and compares it against a committed golden artifact
// with StudyResult::diff: the gate fails when any crossover conclusion
// flips, any point moves by more than the threshold, or the point sets
// disagree. Small platform-dependent float drift below the threshold
// passes — the artifact pins the study's *conclusions*, not its bytes.
//
//   hpf90d_studycheck --check golden.csv [--threshold 0.05]
//   hpf90d_studycheck --write golden.csv     (regenerate the artifact)
//
//   hpf90d_studycheck --table2 --check table2_golden.csv
//   hpf90d_studycheck --table2 --write table2_golden.csv
//
// --table2 gates the *measured* side instead: the trimmed paper Table 2
// (every suite app x its sizes up to 2048, 256 for nbody, x nprocs
// {1,2,4,8}) measured with runs(3) and the default SimOptions, exported
// with RunReport::csv. Key columns must match exactly and every numeric
// column within a relative 1e-9 — loose enough for another libm, tight
// enough that a missed or reordered noise draw (a ~1e-3 shift) fails.
//
//   hpf90d_studycheck --predict --check predict_golden.csv
//   hpf90d_studycheck --predict --write predict_golden.csv
//
// --predict pins the detailed prediction the report CSVs leave out: every
// suite app at its smallest size and its largest size <= 256, on ipsc860
// and paragon, nprocs {1,2,4,8}, through Session::predict with tracing on.
// Per point it records the total and the four phases, every AAU's visits
// and phase times, every processor's clock, and per (processor, category)
// the trace event count and summed duration. Compared like --table2.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "api/api.hpp"
#include "study/study.hpp"
#include "suite/suite.hpp"
#include "support/codec.hpp"
#include "support/text.hpp"

namespace {

using namespace hpf90d;

/// The canonical study. Any change here must ship with a regenerated
/// golden artifact (run with --write).
study::StudyResult run_canonical_study() {
  const auto& app = suite::app("laplace_bb");
  api::Session session;
  study::StudyPlan plan("golden: laplace latency/bandwidth what-if");
  plan.source(app.source)
      .add_reference_machine("ipsc860")
      .knob_axis(study::Knob::Latency, {0.25, 1, 4})
      .knob_axis(study::Knob::Bandwidth, {1, 4})
      .add_variant("block-block", suite::app("laplace_bb").directive_overrides, 2)
      .add_variant("block-star", suite::app("laplace_bx").directive_overrides)
      .problems_from({32, 64}, app.bindings)
      .nprocs({2, 4, 8})
      .runs(0);
  return study::run_study(session, plan);
}

/// The trimmed measured Table 2, one record per (app, size, nprocs) in
/// suite order. Any change here must ship with a regenerated artifact.
api::RunReport run_table2() {
  api::Session session;
  api::RunReport table;
  for (const auto& app : suite::validation_suite()) {
    std::vector<long long> sizes;
    for (long long size : app.problem_sizes) {
      if (app.id == "nbody" ? size > 256 : size > 2048) continue;
      sizes.push_back(size);
    }
    api::ExperimentPlan plan(app.name);
    plan.source(app.source)
        .nprocs(suite::paper_system_sizes())
        .add_variant({app.name, app.directive_overrides,
                      app.id == "laplace_bb" ? std::optional<int>(2) : std::nullopt})
        .problems_from(sizes, app.bindings)
        .runs(3);
    api::RunReport report = session.run(plan);
    for (auto& rec : report.records) table.records.push_back(std::move(rec));
  }
  return table;
}

bool close_enough(double golden, double current) {
  return std::abs(golden - current) <= 1e-9 * std::max(std::abs(golden), std::abs(current));
}

/// Compares `current` against the golden CSV: returns the number of
/// mismatching rows (a row-count mismatch counts every unmatched row).
std::size_t check_table2(const api::RunReport& golden, const api::RunReport& current) {
  std::size_t bad = 0;
  const std::size_t n = std::min(golden.records.size(), current.records.size());
  for (std::size_t i = 0; i < n; ++i) {
    const api::RunRecord& g = golden.records[i];
    const api::RunRecord& c = current.records[i];
    const bool keys = g.machine == c.machine && g.variant == c.variant &&
                      g.problem == c.problem && g.nprocs == c.nprocs &&
                      g.measured == c.measured;
    const api::Comparison& gc = g.comparison;
    const api::Comparison& cc = c.comparison;
    const bool values = close_enough(gc.estimated, cc.estimated) &&
                        close_enough(gc.measured_mean, cc.measured_mean) &&
                        close_enough(gc.measured_min, cc.measured_min) &&
                        close_enough(gc.measured_max, cc.measured_max) &&
                        close_enough(gc.measured_stddev, cc.measured_stddev);
    if (keys && values) continue;
    ++bad;
    std::fprintf(stderr,
                 "row %zu: golden %s/%s/%s P=%d mean %.17g | current %s/%s/%s P=%d "
                 "mean %.17g\n",
                 i + 1, g.machine.c_str(), g.variant.c_str(), g.problem.c_str(), g.nprocs,
                 gc.measured_mean, c.machine.c_str(), c.variant.c_str(),
                 c.problem.c_str(), c.nprocs, cc.measured_mean);
  }
  return bad + std::max(golden.records.size(), current.records.size()) - n;
}

/// One --predict row: a key (point + kind + index + sub) and up to five
/// numbers.
struct PredictRow {
  std::string key;
  std::vector<double> values;
};

/// The detailed predictions of the --predict gate, in a fixed order. Any
/// change here must ship with a regenerated artifact.
std::vector<PredictRow> run_predict_rows() {
  api::Session session;
  std::vector<PredictRow> rows;
  for (const auto& app : suite::validation_suite()) {
    const auto prog = session.compile_with_directives(app.source, app.directive_overrides);
    std::vector<long long> sizes{app.problem_sizes.front()};
    for (auto it = app.problem_sizes.rbegin(); it != app.problem_sizes.rend(); ++it) {
      if (*it <= 256 && *it != sizes.front()) {
        sizes.push_back(*it);
        break;
      }
    }
    for (const long long size : sizes) {
      for (const char* machine : {"ipsc860", "paragon"}) {
        for (const int np : suite::paper_system_sizes()) {
          api::RunConfig config;
          config.machine = machine;
          config.nprocs = np;
          if (app.id == "laplace_bb") {
            config.grid_shape = compiler::ProcGrid::factorized(np, 2).shape;
          }
          config.bindings = app.bindings(size);
          config.predict.trace = true;
          config.predict.detailed = true;
          const core::PredictionResult r = session.predict(prog, config);
          const std::string point = app.id + "," + std::to_string(size) + "," + machine +
                                    "," + std::to_string(np) + ",";
          rows.push_back({point + "total,0,", {r.total, r.comp, r.comm, r.overhead, r.wait}});
          for (std::size_t a = 0; a < r.per_aau.size(); ++a) {
            const core::AAUMetric& m = r.per_aau[a];
            rows.push_back({point + "aau," + std::to_string(a) + ",",
                            {static_cast<double>(m.visits), m.comp, m.comm, m.overhead,
                             m.wait}});
          }
          for (std::size_t p = 0; p < r.proc_clock.size(); ++p) {
            rows.push_back({point + "clock," + std::to_string(p) + ",", {r.proc_clock[p]}});
          }
          // per (proc, category): event count and summed duration, in
          // (proc, category) order
          std::map<std::pair<int, char>, std::pair<double, double>> events;
          for (const core::TraceEvent& ev : r.trace) {
            auto& [count, sum] = events[{ev.proc, ev.category}];
            count += 1;
            sum += ev.t_end - ev.t_begin;
          }
          for (const auto& [k, v] : events) {
            rows.push_back({point + "trace," + std::to_string(k.first) + "," + k.second,
                            {v.first, v.second}});
          }
        }
      }
    }
  }
  return rows;
}

constexpr const char* kPredictHeader = "app,size,machine,nprocs,kind,index,sub,v1,v2,v3,v4,v5";
constexpr std::size_t kPredictKeyFields = 7;

std::string predict_csv(const std::vector<PredictRow>& rows) {
  std::string out = std::string(kPredictHeader) + "\n";
  for (const PredictRow& r : rows) {
    out += r.key;
    for (std::size_t i = 0; i < 5; ++i) {
      out += ',';
      if (i < r.values.size()) out += support::format_g17(r.values[i]);
    }
    out += '\n';
  }
  return out;
}

/// Parses a --predict artifact back into rows; std::nullopt on a malformed
/// file.
std::optional<std::vector<PredictRow>> parse_predict_csv(const std::string& text) {
  std::vector<std::string> lines = support::split(text, '\n');
  if (!lines.empty() && lines.back().empty()) lines.pop_back();  // final newline
  if (lines.empty() || lines.front() != kPredictHeader) return std::nullopt;
  std::vector<PredictRow> rows;
  for (std::size_t l = 1; l < lines.size(); ++l) {
    const std::vector<std::string> fields = support::split(lines[l], ',');
    if (fields.size() != kPredictKeyFields + 5) return std::nullopt;
    PredictRow row;
    for (std::size_t i = 0; i < kPredictKeyFields; ++i) {
      row.key += (i == 0 ? "" : ",") + fields[i];
    }
    for (std::size_t i = kPredictKeyFields; i < fields.size(); ++i) {
      if (fields[i].empty()) continue;
      const auto v = support::parse_double(fields[i]);
      if (!v) return std::nullopt;
      row.values.push_back(*v);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Keys exact, numbers within a relative 1e-9; returns the mismatch count
/// (a row-count mismatch counts every unmatched row).
std::size_t check_predict(const std::vector<PredictRow>& golden,
                          const std::vector<PredictRow>& current) {
  std::size_t bad = 0;
  const std::size_t n = std::min(golden.size(), current.size());
  for (std::size_t i = 0; i < n; ++i) {
    const PredictRow& g = golden[i];
    const PredictRow& c = current[i];
    bool same = g.key == c.key && g.values.size() == c.values.size();
    for (std::size_t v = 0; same && v < g.values.size(); ++v) {
      same = close_enough(g.values[v], c.values[v]);
    }
    if (same) continue;
    if (++bad <= 20) {
      std::fprintf(stderr, "row %zu: golden %s%s | current %s%s\n", i + 2, g.key.c_str(),
                   g.values.empty() ? "" : support::format_g17(g.values[0]).c_str(), c.key.c_str(),
                   c.values.empty() ? "" : support::format_g17(c.values[0]).c_str());
    }
  }
  return bad + std::max(golden.size(), current.size()) - n;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  bool write = false;
  bool table2 = false;
  bool predict = false;
  double threshold = 0.05;
  const auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s [--table2|--predict] --check golden.csv [--threshold 0.05] "
                 "| [--table2|--predict] --write golden.csv\n",
                 argv[0]);
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--write") == 0 && i + 1 < argc) {
      write = true;
      path = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      path = argv[++i];
    } else if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      const auto v = support::parse_double(argv[++i]);
      if (!v) return usage();
      threshold = *v;
    } else if (std::strcmp(argv[i], "--table2") == 0) {
      table2 = true;
    } else if (std::strcmp(argv[i], "--predict") == 0) {
      predict = true;
    } else {
      return usage();
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr, "missing --check/--write <path>\n");
    return 2;
  }

  if (predict) {
    const std::vector<PredictRow> current = run_predict_rows();
    if (write) {
      std::ofstream out(path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return 2;
      }
      out << predict_csv(current);
      std::printf("wrote golden prediction artifact: %s (%zu rows)\n", path, current.size());
      return 0;
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read golden artifact %s\n", path);
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const auto golden = parse_predict_csv(buf.str());
    if (!golden) {
      std::fprintf(stderr, "malformed golden prediction artifact %s\n", path);
      return 2;
    }
    const std::size_t bad = check_predict(*golden, current);
    if (bad != 0) {
      std::fprintf(stderr, "golden prediction gate FAILED: %zu of %zu rows differ\n", bad,
                   std::max(golden->size(), current.size()));
      return 1;
    }
    std::printf("golden prediction gate passed: %zu rows within 1e-9\n", current.size());
    return 0;
  }

  if (table2) {
    const api::RunReport current = run_table2();
    if (write) {
      std::ofstream out(path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return 2;
      }
      out << current.csv();
      std::printf("wrote golden Table 2 artifact: %s (%zu records)\n", path,
                  current.records.size());
      return 0;
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read golden artifact %s\n", path);
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const api::RunReport golden = api::RunReport::from_csv(buf.str());
    const std::size_t bad = check_table2(golden, current);
    if (bad != 0) {
      std::fprintf(stderr, "golden Table 2 gate FAILED: %zu of %zu rows differ\n", bad,
                   std::max(golden.records.size(), current.records.size()));
      return 1;
    }
    std::printf("golden Table 2 gate passed: %zu measured rows within 1e-9\n",
                current.records.size());
    return 0;
  }

  const study::StudyResult current = run_canonical_study();

  if (write) {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 2;
    }
    out << current.csv();
    std::printf("wrote golden study artifact: %s (%zu records)\n", path,
                current.report.records.size());
    return 0;
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read golden artifact %s\n", path);
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const study::StudyResult golden = study::StudyResult::from_csv(buf.str());

  const study::StudyDiff diff = golden.diff(current, threshold);
  std::printf("%s\n", diff.ascii().c_str());
  if (!diff.identical_conclusions()) {
    std::fprintf(stderr,
                 "golden study gate FAILED: conclusions changed "
                 "(gained=%zu lost=%zu deltas=%zu only_before=%zu only_after=%zu)\n",
                 diff.gained.size(), diff.lost.size(), diff.deltas.size(),
                 diff.only_in_before, diff.only_in_after);
    return 1;
  }
  std::printf("golden study gate passed: conclusions identical at threshold %g\n",
              threshold);
  return 0;
}
