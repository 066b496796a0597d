// bench_sweep — Google-benchmark harness for the sweep execution core.
//
// The paper's §7 design studies run thousands of what-if points through the
// interpretation engine; this harness pins down the tool-side throughput of
// exactly that loop (predict-only sweep points through Session::run) along
// the axes this repo has been optimizing:
//
//   * cold vs warm caches   — first-contact compile/layout cost vs the
//                             steady state a long-lived sweep service sees,
//   * serial vs worker pool — RunOptions::workers,
//   * lane width            — RunOptions::batch_size (1 = one-lane windows),
//   * divergence            — a binding-dependent loop bound that splits
//                             lockstep windows, evicted lanes finishing alone,
//   * bounded layout store  — Session::set_layout_cache_capacity under
//                             eviction pressure.
//
// Run:  bench_sweep --benchmark_out=BENCH_sweep.json --benchmark_out_format=json
// (the harness injects those flags itself when none are given, so a bare
// `bench_sweep` also leaves BENCH_sweep.json behind; SWEEP_POINTS in the
// environment scales the plan for smoke runs, default 1000).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "compiler/cost_program.hpp"
#include "compiler/pipeline.hpp"
#include "suite/suite.hpp"

namespace {

using namespace hpf90d;

long long sweep_points() {
  if (const char* v = std::getenv("SWEEP_POINTS")) {
    const long long n = std::atoll(v);
    if (n >= 4) return n;
  }
  return 1000;
}

/// Predict-only plan with `points` sweep points: pi (pure forall + global
/// sum, no data-dependent control flow — the interpretation itself is
/// analytic, so the per-point framework overhead is what dominates) across
/// distinct problem sizes x {1,2,4,8} processors. Every point is a distinct
/// layout-cache key.
api::ExperimentPlan sweep_plan(long long points) {
  const auto& app = suite::app("pi");
  const long long problems = (points + 3) / 4;
  std::vector<long long> sizes;
  sizes.reserve(static_cast<std::size_t>(problems));
  for (long long i = 0; i < problems; ++i) sizes.push_back(16 + 4 * i);
  api::ExperimentPlan plan("sweep throughput");
  plan.source(app.source).nprocs({1, 2, 4, 8}).problems_from(sizes, app.bindings).runs(0);
  return plan;
}

api::RunOptions options(int workers) {
  api::RunOptions opts;
  opts.workers = workers;
  return opts;
}

/// Shared warmed session: one full pass populates the compile cache and the
/// content-addressed layout store, so warm benchmarks measure pure sweep
/// execution.
api::Session& warm_session(const api::ExperimentPlan& plan) {
  static api::Session session;
  static bool warmed = false;
  if (!warmed) {
    (void)session.run(plan, options(1));
    warmed = true;
  }
  return session;
}

void BM_ColdSweep_serial(benchmark::State& state) {
  const api::ExperimentPlan plan = sweep_plan(sweep_points());
  for (auto _ : state) {
    api::Session session;  // cold: compiles + builds every layout
    benchmark::DoNotOptimize(session.run(plan, options(1)));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(plan.point_count()));
}
BENCHMARK(BM_ColdSweep_serial)->Unit(benchmark::kMillisecond);

void BM_WarmSweep(benchmark::State& state, int workers) {
  const api::ExperimentPlan plan = sweep_plan(sweep_points());
  api::Session& session = warm_session(plan);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run(plan, options(workers)));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(plan.point_count()));
}
BENCHMARK_CAPTURE(BM_WarmSweep, serial_arena, 1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_WarmSweep, workers4_arena, 4)->Unit(benchmark::kMillisecond);

void BM_WarmSweep_workers4_arena_lru256(benchmark::State& state) {
  // Eviction pressure: 1000 distinct layouts through a 256-entry bound —
  // every point rebuilds its layout, the worst case for the LRU path.
  const api::ExperimentPlan plan = sweep_plan(sweep_points());
  api::Session session;
  session.set_layout_cache_capacity(256);
  const api::RunOptions opts = options(4);
  (void)session.run(plan, opts);  // warm the compile cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run(plan, opts));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(plan.point_count()));
}
BENCHMARK(BM_WarmSweep_workers4_arena_lru256)->Unit(benchmark::kMillisecond);

// --- lockstep batching --------------------------------------------------------

/// Warm sweep at a fixed lane width: batch_size=1 walks every point in its
/// own one-lane window, 8 and 64 price points in lockstep through the cost
/// bytecode. The `lanes_per_visit` counter reports how many lanes each
/// SPMD node visit actually amortized.
void BM_WarmSweep_lanes(benchmark::State& state, int lanes, int workers) {
  const api::ExperimentPlan plan = sweep_plan(sweep_points());
  api::Session& session = warm_session(plan);
  api::RunOptions opts = options(workers);
  opts.batch_size = lanes;
  double lanes_per_visit = 0;
  for (auto _ : state) {
    const api::RunReport report = session.run(plan, opts);
    benchmark::DoNotOptimize(&report);
    lanes_per_visit = report.batch.mean_lanes_per_visit();
  }
  state.counters["lanes_per_visit"] = lanes_per_visit;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(plan.point_count()));
}
BENCHMARK_CAPTURE(BM_WarmSweep_lanes, lanes1_serial, 1, 1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_WarmSweep_lanes, lanes8_serial, 8, 1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_WarmSweep_lanes, lanes64_serial, 64, 1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_WarmSweep_lanes, lanes64_workers4, 64, 4)->Unit(benchmark::kMillisecond);

void BM_CompileToBytecode(benchmark::State& state) {
  // The cold cost of the flattening pass alone: compile() already pays it
  // once per program; this is the marginal price of the batched design.
  const auto& app = suite::app("pi");
  const compiler::CompiledProgram prog = compiler::compile(app.source);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiler::compile_cost_program(prog));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompileToBytecode)->Unit(benchmark::kMicrosecond);

void BM_DivergentSweep_lanes(benchmark::State& state, int lanes) {
  // Worst case for lockstep: the outer DO trip count is a per-problem
  // binding, so a 64-lane window splinters at the first size-dependent
  // loop, and every evicted lane finishes in its own one-lane window. The
  // `replayed` counter is the fraction of points finally priced alone.
  static const char* const source = R"f90(
program levels
  parameter (n = 256)
  real v(n)
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) v(i) = real(i)
  do it = 1, nlev
    forall (i = 1:n) v(i) = v(i)*0.5 + 1.0
  end do
end program levels
)f90";
  const long long problems = (sweep_points() + 3) / 4;
  api::ExperimentPlan plan("divergent sweep");
  plan.source(source).nprocs({1, 2, 4, 8}).runs(0);
  for (long long i = 0; i < problems; ++i) {
    front::Bindings b;
    b.set_int("nlev", 2 + (i % 13));
    plan.add_problem("nlev@" + std::to_string(i), b);
  }
  static api::Session session;  // warm across captures, like warm_session
  static bool warmed = false;
  api::RunOptions opts = options(1);
  if (!warmed) {
    (void)session.run(plan, opts);
    warmed = true;
  }
  opts.batch_size = lanes;
  double replayed_points = 0, total_points = 0;
  for (auto _ : state) {
    const api::RunReport report = session.run(plan, opts);
    benchmark::DoNotOptimize(&report);
    replayed_points += static_cast<double>(report.batch.replayed_points);
    total_points += static_cast<double>(plan.point_count());
  }
  // a proper counter summed over every iteration (not the last run's
  // snapshot), reported as a fraction of the points run
  state.counters["replayed"] = benchmark::Counter(
      total_points == 0 ? 0.0 : replayed_points / total_points);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(plan.point_count()));
}
BENCHMARK_CAPTURE(BM_DivergentSweep_lanes, lanes1, 1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DivergentSweep_lanes, lanes64, 64)->Unit(benchmark::kMillisecond);

void BM_MeasuredSweep_lanes(benchmark::State& state, int lanes) {
  // Measured points (runs > 0) dominate real Table-2 style sweeps; the
  // measurement loop (EngineArena::measure_batch_into) runs one functional
  // pass per (value digest, problem) in the session, not per lane, and
  // re-times that value tape for every run of every lane. The session is
  // warm, so the timed iterations re-time tapes only.
  // An eighth of the predict-only point count keeps the wall time
  // comparable to the other captures.
  const long long points = std::max(16LL, sweep_points() / 8);
  api::ExperimentPlan plan = sweep_plan(points);
  plan.runs(2);
  static api::Session session;  // warm across captures, like warm_session
  static bool warmed = false;
  api::RunOptions opts = options(1);
  if (!warmed) {
    (void)session.run(plan, opts);
    warmed = true;
  }
  opts.batch_size = lanes;
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run(plan, opts));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(plan.point_count()));
}
BENCHMARK_CAPTURE(BM_MeasuredSweep_lanes, lanes1, 1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MeasuredSweep_lanes, lanes64, 64)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Default to leaving BENCH_sweep.json behind so every invocation records
  // the perf trajectory; explicit --benchmark_out wins.
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_sweep.json";
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
