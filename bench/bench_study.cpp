// bench_study — Google-benchmark harness for the design-study subsystem.
//
// A §7 study is a machine-knob grid x directive variants x problems x
// nprocs lowered into ONE batched Session::run; this harness pins down the
// study-side costs on top of the sweep core bench_sweep already tracks:
//
//   * lowering      — family grid generation + registry registration,
//   * cold vs warm  — a first study in a fresh session vs the steady state
//                     a long-lived study service sees (machine models,
//                     programs, and layouts all cached),
//   * analysis      — crossover/scalability/bottleneck passes plus the
//                     deterministic CSV/JSON exports over a warm result.
//
// Run:  bench_study --benchmark_out=BENCH_study.json --benchmark_out_format=json
// (the harness injects those flags itself when none are given; STUDY_POINTS
// in the environment scales the knob grid for smoke runs, default 384
// sweep points.)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "study/study.hpp"
#include "suite/suite.hpp"

namespace {

using namespace hpf90d;

long long study_points() {
  if (const char* v = std::getenv("STUDY_POINTS")) {
    const long long n = std::atoll(v);
    if (n >= 8) return n;
  }
  return 384;
}

/// Predict-only latency x bandwidth x cpu study over pi: `points` sweep
/// points total, spread over a knob grid x {1,2,4,8} processors.
study::StudyPlan study_plan(long long points) {
  const auto& app = suite::app("pi");
  // grid cells needed at 4 nprocs per machine point
  const long long cells = std::max<long long>(2, (points + 3) / 4);
  std::vector<double> latencies;
  for (long long i = 0; i < (cells + 3) / 4; ++i) {
    latencies.push_back(0.25 * static_cast<double>(i + 1));
  }
  study::StudyPlan plan("study throughput");
  plan.source(app.source)
      .knob_axis(study::Knob::Latency, latencies)
      .knob_axis(study::Knob::Bandwidth, {1, 2})
      .knob_axis(study::Knob::Cpu, {1, 2})
      .problems_from({256}, app.bindings)
      .nprocs({1, 2, 4, 8})
      .runs(0);
  return plan;
}

api::RunOptions workers4() {
  api::RunOptions opts;
  opts.workers = 4;
  return opts;
}

void BM_StudyLowering(benchmark::State& state) {
  const study::StudyPlan plan = study_plan(study_points());
  api::Session session;
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.lower(session));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(plan.machine_count()));
}
BENCHMARK(BM_StudyLowering)->Unit(benchmark::kMicrosecond);

void BM_ColdStudy_workers4(benchmark::State& state) {
  const study::StudyPlan plan = study_plan(study_points());
  for (auto _ : state) {
    api::Session session;  // cold: registers machines, compiles, builds layouts
    benchmark::DoNotOptimize(study::run_study(session, plan, workers4()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(plan.point_count()));
}
BENCHMARK(BM_ColdStudy_workers4)->Unit(benchmark::kMillisecond);

/// Shared warmed session for the steady-state benchmarks.
api::Session& warm_session(const study::StudyPlan& plan) {
  static api::Session session;
  static bool warmed = false;
  if (!warmed) {
    (void)study::run_study(session, plan, workers4());
    warmed = true;
  }
  return session;
}

void BM_WarmStudy_workers4(benchmark::State& state) {
  const study::StudyPlan plan = study_plan(study_points());
  api::Session& session = warm_session(plan);
  for (auto _ : state) {
    benchmark::DoNotOptimize(study::run_study(session, plan, workers4()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(plan.point_count()));
}
BENCHMARK(BM_WarmStudy_workers4)->Unit(benchmark::kMillisecond);

void BM_StudyAnalysisAndExports(benchmark::State& state) {
  const study::StudyPlan plan = study_plan(study_points());
  api::Session& session = warm_session(plan);
  const study::StudyResult result = study::run_study(session, plan, workers4());
  for (auto _ : state) {
    benchmark::DoNotOptimize(result.crossovers());
    benchmark::DoNotOptimize(result.scalability());
    benchmark::DoNotOptimize(result.csv());
    benchmark::DoNotOptimize(result.json());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(result.report.records.size()));
}
BENCHMARK(BM_StudyAnalysisAndExports)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Default to leaving BENCH_study.json behind so every invocation records
  // the perf trajectory; explicit --benchmark_out wins.
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_study.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
