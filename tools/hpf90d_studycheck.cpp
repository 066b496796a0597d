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
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "api/api.hpp"
#include "study/study.hpp"
#include "suite/suite.hpp"

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

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  bool write = false;
  bool table2 = false;
  double threshold = 0.05;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--write") == 0 && i + 1 < argc) {
      write = true;
      path = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      path = argv[++i];
    } else if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      threshold = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--table2") == 0) {
      table2 = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--table2] --check golden.csv [--threshold 0.05] "
                   "| [--table2] --write golden.csv\n",
                   argv[0]);
      return 2;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr, "missing --check/--write <path>\n");
    return 2;
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
