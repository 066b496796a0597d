// hpf90d_studycheck — the golden-artifact regression gates.
//
//   hpf90d_studycheck [--table2|--predict|--exhibits] --check golden.csv
//   hpf90d_studycheck [--table2|--predict|--exhibits] --write golden.csv
//   hpf90d_studycheck --check study_golden.csv --threshold 0.05
//
// With no mode flag the gate runs a fixed canonical design study (the
// paper's §7 Laplace latency x bandwidth what-if) and compares it against
// the committed artifact with StudyResult::diff: the gate fails when any
// crossover conclusion flips, any point moves by more than the threshold
// (default 0.05), or the point sets disagree. Small platform-dependent
// float drift below the threshold passes — the artifact pins the study's
// *conclusions*, not its bytes.
//
// --table2 gates the *measured* side instead: the trimmed paper Table 2
// (every suite app x its sizes up to 2048, 256 for nbody, x nprocs
// {1,2,4,8}) measured with runs(3) and the default SimOptions, exported
// with RunReport::csv. Key columns must match exactly and every numeric
// column within a relative 1e-9 — loose enough for another libm, tight
// enough that a missed or reordered noise draw (a ~1e-3 shift) fails.
//
// --predict pins the detailed prediction the report CSVs leave out: every
// suite app at its smallest size and its largest size <= 256, on ipsc860
// and paragon, nprocs {1,2,4,8}, through Session::predict with tracing on.
// Per point it records the total and the four phases, every AAU's visits
// and phase times, every processor's clock, and per (processor, category)
// the trace event count and summed duration. Compared like --table2.
//
// --exhibits pins the paper's other exhibits, keyed by (exhibit, case,
// point) and compared like --table2:
//   fig3       owner (1-based) of each cell of a 4x4 sample of u, one row
//              per sample row, for the three Laplace distributions (n=64,
//              P=4);
//   fig4/fig5  estimated, measured mean and abs error (%) of each Laplace
//              distribution x size at P=4 / P=8, read from the --table2 run;
//   fig7       computation, communication and overhead of the financial
//              model's two phases (n=256, P=4, predicted);
//   table1     data elements at the smallest and largest size, and AAUs,
//              of each suite app;
//   table2     each app's min and max abs error (%), points within
//              variance, and points, from the --table2 run;
//   ablation1  estimated time, message vectorization on/off (Laplace
//              (BLOCK,*), n=128, P=4);
//   ablation2  measured mean, network contention on/off (LFK 14, n=1024,
//              P=8);
//   ablation3  estimated and measured mean, recursive-tree vs linear
//              collectives (PI, n=4096, P=8);
//   ablation4  estimated, measured mean and abs error (%) of LFK 9 at
//              n=128, 512, 2048 (P=1).
// Before writing or checking it asserts the paper's qualitative claims:
// Fig 7's phase 2 has no communication and its phase 1 communicates more
// than it computes, every Fig 4 and Fig 5 point is within 20%, and message
// vectorization predicts faster than without it. A broken claim fails the
// gate, naming the claim.
//
// Exit status: 0 pass, 1 mismatch or broken claim, 2 usage error or an
// unreadable or malformed artifact.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "api/api.hpp"
#include "compiler/pipeline.hpp"
#include "core/aag.hpp"
#include "core/output.hpp"
#include "study/study.hpp"
#include "suite/suite.hpp"
#include "support/codec.hpp"
#include "support/text.hpp"

namespace {

using namespace hpf90d;

/// The canonical study. Any change here must ship with a regenerated
/// golden artifact (run with --write).
study::StudyResult run_canonical_study() {
  const auto& bb = suite::app("laplace_bb");
  api::Session session;
  study::StudyPlan plan("golden: laplace latency/bandwidth what-if");
  plan.source(bb.source)
      .add_reference_machine("ipsc860")
      .knob_axis(study::Knob::Latency, {0.25, 1, 4})
      .knob_axis(study::Knob::Bandwidth, {1, 4})
      .add_variant("block-block", bb.directive_overrides, bb.grid_rank)
      .add_variant("block-star", suite::app("laplace_bx").directive_overrides)
      .problems_from({32, 64}, bb.bindings)
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
        .add_variant({app.name, app.directive_overrides, app.grid_rank})
        .problems_from(sizes, app.bindings)
        .runs(3);
    api::RunReport report = session.run(plan);
    for (auto& rec : report.records) table.records.push_back(std::move(rec));
  }
  return table;
}

/// The RunConfig of one suite point: the app's bindings at `size` on
/// `nprocs` processors of the default machine, on its forced grid.
api::RunConfig config_for(const suite::BenchmarkApp& app, long long size, int nprocs) {
  api::RunConfig config;
  config.nprocs = nprocs;
  config.bindings = app.bindings(size);
  if (app.grid_rank) {
    config.grid_shape = compiler::ProcGrid::factorized(nprocs, *app.grid_rank).shape;
  }
  return config;
}

// --- keyed-row artifacts ---------------------------------------------------------

/// One row: its key fields joined by commas, and up to kValues numbers.
struct KeyedRow {
  std::string key;
  std::vector<double> values;
};

/// A keyed-row artifact (--predict, --exhibits): a header naming the key
/// columns and then v1..v5, and one row per line, numbers in %.17g with
/// empty cells for the ones a row lacks. The key width comes from the
/// header.
struct KeyedRows {
  std::string key_header;  // e.g. "exhibit,case,point"
  std::vector<KeyedRow> rows;
};

constexpr std::size_t kValues = 5;
constexpr std::string_view kValueColumns = ",v1,v2,v3,v4,v5";

std::string keyed_csv(const KeyedRows& table) {
  std::string out = table.key_header + std::string(kValueColumns) + "\n";
  for (const KeyedRow& r : table.rows) {
    out += r.key;
    for (std::size_t i = 0; i < kValues; ++i) {
      out += ',';
      if (i < r.values.size()) out += support::format_g17(r.values[i]);
    }
    out += '\n';
  }
  return out;
}

/// Parses keyed_csv's output; throws std::invalid_argument naming the first
/// malformed line.
KeyedRows parse_keyed_csv(const std::string& text) {
  std::vector<std::string> lines = support::split(text, '\n');
  if (!lines.empty() && lines.back().empty()) lines.pop_back();  // final newline
  const auto malformed = [](std::size_t line) {
    return std::invalid_argument("line " + std::to_string(line));
  };
  if (lines.empty() || !lines.front().ends_with(kValueColumns)) throw malformed(1);
  KeyedRows table{lines.front().substr(0, lines.front().size() - kValueColumns.size()), {}};
  const std::size_t key_width = support::split(table.key_header, ',').size();
  for (std::size_t l = 1; l < lines.size(); ++l) {
    const std::vector<std::string> fields = support::split(lines[l], ',');
    if (fields.size() != key_width + kValues) throw malformed(l + 1);
    KeyedRow row;
    for (std::size_t i = 0; i < key_width; ++i) row.key += (i == 0 ? "" : ",") + fields[i];
    for (std::size_t i = key_width; i < fields.size(); ++i) {
      if (fields[i].empty()) continue;
      const auto v = support::parse_double(fields[i]);
      if (!v) throw malformed(l + 1);
      row.values.push_back(*v);
    }
    table.rows.push_back(std::move(row));
  }
  return table;
}

bool close_enough(double golden, double current) {
  return std::abs(golden - current) <= 1e-9 * std::max(std::abs(golden), std::abs(current));
}

/// Keys exact, numbers within a relative 1e-9; returns the mismatch count
/// (a header mismatch counts one, a row-count mismatch every unmatched row).
std::size_t count_mismatches(const KeyedRows& golden, const KeyedRows& current) {
  std::size_t bad = 0;
  if (golden.key_header != current.key_header) {
    ++bad;
    std::fprintf(stderr, "header: golden %s | current %s\n", golden.key_header.c_str(),
                 current.key_header.c_str());
  }
  const std::size_t n = std::min(golden.rows.size(), current.rows.size());
  for (std::size_t i = 0; i < n; ++i) {
    const KeyedRow& g = golden.rows[i];
    const KeyedRow& c = current.rows[i];
    bool same = g.key == c.key && g.values.size() == c.values.size();
    for (std::size_t v = 0; same && v < g.values.size(); ++v) {
      same = close_enough(g.values[v], c.values[v]);
    }
    if (same) continue;
    if (++bad <= 20) {
      const auto first = [](const KeyedRow& r) {
        return r.values.empty() ? std::string("-") : support::format_g17(r.values[0]);
      };
      std::fprintf(stderr, "row %zu: golden %s = %s | current %s = %s\n", i + 1,
                   g.key.c_str(), first(g).c_str(), c.key.c_str(), first(c).c_str());
    }
  }
  return bad + std::max(golden.rows.size(), current.rows.size()) - n;
}

/// The --table2 comparison's view of a report: each point's keys and its
/// five compared numbers.
KeyedRows table2_rows(const api::RunReport& report) {
  KeyedRows table{"machine,variant,problem,nprocs,measured", {}};
  for (const api::RunRecord& r : report.records) {
    const api::Comparison& c = r.comparison;
    table.rows.push_back({r.machine + "," + r.variant + "," + r.problem + "," +
                              std::to_string(r.nprocs) + "," + (r.measured ? "1" : "0"),
                          {c.estimated, c.measured_mean, c.measured_min, c.measured_max,
                           c.measured_stddev}});
  }
  return table;
}

/// The detailed predictions of the --predict gate, in a fixed order. Any
/// change here must ship with a regenerated artifact.
KeyedRows run_predict_rows() {
  api::Session session;
  KeyedRows table{"app,size,machine,nprocs,kind,index,sub", {}};
  std::vector<KeyedRow>& rows = table.rows;
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
          api::RunConfig config = config_for(app, size, np);
          config.machine = machine;
          config.predict.trace = true;
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
  return table;
}

/// The paper exhibits of the --exhibits gate (see the file comment), in a
/// fixed order. Appends each qualitative claim that does not hold to
/// `broken`. Any change here must ship with a regenerated artifact.
KeyedRows run_exhibits(std::vector<std::string>& broken) {
  api::Session session;
  KeyedRows table{"exhibit,case,point", {}};
  std::vector<KeyedRow>& rows = table.rows;
  const auto claim = [&broken](bool holds, std::string what) {
    if (!holds) broken.push_back(std::move(what));
  };
  const auto compile = [&session](const suite::BenchmarkApp& app,
                                  const compiler::CompilerOptions& options = {}) {
    return session.compile_with_directives(app.source, app.directive_overrides, options);
  };
  const char* laplace[3] = {"laplace_bb", "laplace_bx", "laplace_xb"};

  for (const char* id : laplace) {
    const auto& app = suite::app(id);
    const auto prog = compile(app);
    const api::RunConfig config = config_for(app, 64, 4);
    compiler::LayoutOptions lo;
    lo.nprocs = config.nprocs;
    lo.grid_shape = config.grid_shape;
    const std::string picture = compiler::make_layout(*prog, config.bindings, lo)
                                    .ownership_picture(prog->symbols.find("u"), 4, 4);
    // one line per sample row, " P<owner>" per cell
    std::size_t r = 0;
    for (const std::string& line : support::split(picture, '\n')) {
      if (line.empty()) continue;
      KeyedRow row{"fig3," + app.id + "," + std::to_string(r++), {}};
      for (const std::string& cell : support::split(line, ' ')) {
        if (cell.empty()) continue;
        row.values.push_back(support::parse_double(cell.substr(1)).value_or(0));
      }
      rows.push_back(std::move(row));
    }
  }

  const api::RunReport table2 = run_table2();
  for (const int nprocs : {4, 8}) {
    const std::string fig = nprocs == 4 ? "fig4" : "fig5";
    for (const char* id : laplace) {
      const auto& app = suite::app(id);
      for (const api::RunRecord& rec : table2.records) {
        if (rec.variant != app.name || rec.nprocs != nprocs) continue;
        const api::Comparison& c = rec.comparison;
        rows.push_back({fig + "," + app.id + "," + rec.problem,
                        {c.estimated, c.measured_mean, c.abs_error_pct()}});
        claim(c.abs_error_pct() <= 20,
              "Figs 4 and 5: every point is within 20% (" + app.id + " " + rec.problem +
                  " P=" + std::to_string(nprocs) +
                  support::strfmt(" reads %.2f%%)", c.abs_error_pct()));
      }
    }
  }

  {
    const auto& app = suite::app("finance");
    const auto prog = compile(app);
    const core::SynchronizedAAG saag(*prog);
    const core::PredictionResult pred = session.predict(prog, config_for(app, 256, 4));
    const core::OutputModule out(saag, pred);
    // phase 1 = the lattice do-loop subtree; phase 2 = the top-level payoff
    // foralls after it
    core::AAUMetric phase1, phase2;
    for (const auto& aau : saag.aaus()) {
      if (aau.kind == core::AAUKind::Iter) phase1 = out.sub_aag(aau.id);
    }
    bool after_loop = false;
    for (int child : saag.at(saag.root()).children) {
      const auto& aau = saag.at(child);
      if (aau.kind == core::AAUKind::Iter) {
        after_loop = true;
        continue;
      }
      if (after_loop && aau.kind != core::AAUKind::IO) phase2.add(out.sub_aag(child));
    }
    rows.push_back({"fig7,finance,phase1", {phase1.comp, phase1.comm, phase1.overhead}});
    rows.push_back({"fig7,finance,phase2", {phase2.comp, phase2.comm, phase2.overhead}});
    claim(phase2.comm == 0, "Fig 7: phase 2 has no communication");
    claim(phase1.comm > phase1.comp, "Fig 7: phase 1 communicates more than it computes");
  }

  for (const auto& app : suite::validation_suite()) {
    rows.push_back({"table1," + app.id + ",",
                    {static_cast<double>(app.data_elements(app.problem_sizes.front())),
                     static_cast<double>(app.data_elements(app.problem_sizes.back())),
                     static_cast<double>(compile(app)->node_count)}});
  }

  for (const auto& app : suite::validation_suite()) {
    double min_err = 0, max_err = 0, within = 0, points = 0;
    for (const api::RunRecord& rec : table2.records) {
      if (rec.variant != app.name) continue;
      const double err = rec.comparison.abs_error_pct();
      min_err = points == 0 ? err : std::min(min_err, err);
      max_err = std::max(max_err, err);
      within += rec.comparison.within_variance() ? 1 : 0;
      points += 1;
    }
    rows.push_back({"table2," + app.id + ",", {min_err, max_err, within, points}});
  }

  {
    const auto& app = suite::app("laplace_bx");
    double estimated[2];
    for (const bool on : {true, false}) {
      compiler::CompilerOptions options;
      options.message_vectorization = on;
      estimated[on] = session.predict(compile(app, options), config_for(app, 128, 4)).total;
      rows.push_back({std::string("ablation1,laplace_bx,") + (on ? "on" : "off"),
                      {estimated[on]}});
    }
    claim(estimated[true] < estimated[false],
          "Ablation 1: message vectorization predicts faster than without it");
  }
  {
    const auto& app = suite::app("lfk14");
    for (const bool on : {true, false}) {
      api::RunConfig config = config_for(app, 1024, 8);
      config.sim.contention = on;
      rows.push_back({std::string("ablation2,lfk14,") + (on ? "on" : "off"),
                      {session.measure(compile(app), config).stats.mean}});
    }
  }
  {
    const auto& app = suite::app("pi");
    for (const auto algo :
         {machine::CollectiveAlgo::RecursiveTree, machine::CollectiveAlgo::Linear}) {
      api::RunConfig config = config_for(app, 4096, 8);
      config.predict.collective = algo;
      config.sim.collective = algo;
      const api::Comparison c = session.compare(compile(app), config);
      rows.push_back({std::string("ablation3,pi,") +
                          (algo == machine::CollectiveAlgo::Linear ? "linear" : "tree"),
                      {c.estimated, c.measured_mean}});
    }
  }
  {
    const auto& app = suite::app("lfk9");
    for (const long long n : {128LL, 512LL, 2048LL}) {
      const api::Comparison c = session.compare(compile(app), config_for(app, n, 1));
      rows.push_back({"ablation4,lfk9,n=" + std::to_string(n),
                      {c.estimated, c.measured_mean, c.abs_error_pct()}});
    }
  }
  return table;
}

// --- the shared write/check path -------------------------------------------------

/// One gate's current artifact and how a golden artifact compares with it.
struct Gate {
  std::string what;  // names the gate in messages
  std::string text;  // the artifact --write stores
  std::size_t rows = 0;
  /// The mismatch count of a golden artifact's text against the current
  /// run; throws std::invalid_argument when the text is malformed.
  std::function<std::size_t(const std::string&)> mismatches;
};

Gate keyed_gate(std::string what, KeyedRows current) {
  std::string text = keyed_csv(current);
  const std::size_t rows = current.rows.size();
  return {std::move(what), std::move(text), rows,
          [current = std::move(current)](const std::string& golden) {
            return count_mismatches(parse_keyed_csv(golden), current);
          }};
}

int write_or_check(const Gate& gate, const char* path, bool write) {
  if (write) {
    std::ofstream out(path, std::ios::binary);
    if (!(out << gate.text)) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 2;
    }
    std::printf("wrote golden %s artifact: %s (%zu rows)\n", gate.what.c_str(), path,
                gate.rows);
    return 0;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read golden artifact %s\n", path);
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::size_t bad = 0;
  try {
    bad = gate.mismatches(buf.str());
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "malformed golden %s artifact %s: %s\n", gate.what.c_str(), path,
                 e.what());
    return 2;
  }
  if (bad != 0) {
    std::fprintf(stderr, "golden %s gate FAILED: %zu mismatches over %zu rows\n",
                 gate.what.c_str(), bad, gate.rows);
    return 1;
  }
  std::printf("golden %s gate passed: %zu rows\n", gate.what.c_str(), gate.rows);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  bool write = false;
  std::string_view mode;  // --table2, --predict or --exhibits; empty = the study
  std::optional<double> threshold;
  const auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s [--table2|--predict|--exhibits] --check|--write golden.csv\n"
                 "       %s --check study_golden.csv [--threshold 0.05]\n",
                 argv[0], argv[0]);
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if ((arg == "--write" || arg == "--check") && i + 1 < argc && path == nullptr) {
      write = arg == "--write";
      path = argv[++i];
    } else if (arg == "--threshold" && i + 1 < argc && !threshold) {
      threshold = support::parse_double(argv[++i]);
      if (!threshold) return usage();
    } else if ((arg == "--table2" || arg == "--predict" || arg == "--exhibits") &&
               mode.empty()) {
      mode = arg;
    } else {
      return usage();
    }
  }
  // one mode and one artifact; --threshold only where it is read
  if (path == nullptr || (threshold && (!mode.empty() || write))) return usage();

  if (mode == "--table2") {
    const api::RunReport current = run_table2();
    return write_or_check({"Table 2", current.csv(), current.records.size(),
                           [rows = table2_rows(current)](const std::string& golden) {
                             return count_mismatches(
                                 table2_rows(api::RunReport::from_csv(golden)), rows);
                           }},
                          path, write);
  }
  if (mode == "--predict") {
    return write_or_check(keyed_gate("prediction", run_predict_rows()), path, write);
  }
  if (mode == "--exhibits") {
    std::vector<std::string> broken;
    KeyedRows current = run_exhibits(broken);
    for (const std::string& what : broken) {
      std::fprintf(stderr, "paper claim FAILED: %s\n", what.c_str());
    }
    if (!broken.empty()) return 1;
    return write_or_check(keyed_gate("exhibit", std::move(current)), path, write);
  }

  const study::StudyResult current = run_canonical_study();
  return write_or_check(
      {"study", current.csv(), current.report.records.size(),
       [&current, t = threshold.value_or(0.05)](const std::string& golden) {
         const study::StudyDiff diff = study::StudyResult::from_csv(golden).diff(current, t);
         std::printf("%s\n", diff.ascii().c_str());
         return diff.gained.size() + diff.lost.size() + diff.deltas.size() +
                diff.only_in_before + diff.only_in_after;
       }},
      path, write);
}
