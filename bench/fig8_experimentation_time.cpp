// fig8_experimentation_time — regenerates paper Figure 8: experimentation
// time for the three Laplace implementations using the interpretive
// framework versus measurement on the iPSC/860.
//
// The interpreter column is *measured here* — each implementation is one
// predict-only ExperimentPlan (all problem sizes on one system size) and
// RunReport::wall_seconds is the tool time, plus the paper's ~10 minutes of
// interactive user time per implementation. The iPSC/860 column uses the
// paper's reported workflow constants: editing code, cross-compiling and
// linking, transferring the executable to the front end, loading it onto
// the cube, and running each instance — 27 to ~60 minutes per
// implementation. A final section re-runs the warmed sweeps serially and on
// the session's worker pool: plan points are independent, so the pool cuts
// the tool time by roughly the core count while producing an identical
// report.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

int main() {
  using namespace hpf90d;
  std::printf("Figure 8: Experimentation Time - Laplace Solver\n\n");

  // paper workflow constants (minutes) for the measurement path
  const double ipsc_minutes[3] = {38.0, 27.0, 58.0};  // (Blk,Blk), (Blk,*), (*,Blk)
  const double interactive_minutes = 10.0;  // menu-driven parameter entry

  support::TextTable table({"Implementation", "Interpreter (min)",
                            "interpreter tool time (s)", "iPSC/860 workflow (min)"});
  const char* ids[3] = {"laplace_bb", "laplace_bx", "laplace_xb"};
  for (int k = 0; k < 3; ++k) {
    const auto& app = suite::app(ids[k]);
    // the experiment of §5.2.1: all problem sizes on one system size
    api::ExperimentPlan plan(app.name);
    plan.source(app.source)
        .nprocs({4})
        .add_variant(bench::variant_for(app))
        .problems_from(app.problem_sizes, app.bindings)
        .runs(0);
    const api::RunReport report = bench::session().run(plan);
    table.add_row(
        {app.name,
         support::strfmt("%.1f", interactive_minutes + report.wall_seconds / 60.0),
         support::strfmt("%.3f", report.wall_seconds),
         support::strfmt("%.0f", ipsc_minutes[k])});
  }
  std::printf("%s", table.str().c_str());
  std::printf("(paper: ~10 min per implementation with the interpreter vs 27-60 min\n"
              " per implementation with edit/cross-compile/transfer/load/run cycles)\n");

  // Parallel sweep engine: the three implementations as one combined
  // measured sweep (3 variants x problem sizes x 4 system sizes), executed
  // serially and then on the worker pool. The reports are identical
  // (records, ordering, estimates, cache stats); only the tool time
  // changes, by up to the core count.
  const auto& base = suite::app("laplace_bb");
  api::ExperimentPlan combined("combined Laplace sweep");
  // FULL=1 in the environment measures three runs per point instead of one
  const char* full = std::getenv("FULL");
  combined.source(base.source)
      .nprocs({1, 2, 4, 8})
      .runs(full != nullptr && std::string(full) == "1" ? 3 : 1);
  for (const char* id : ids) {
    combined.add_variant(bench::variant_for(suite::app(id)));
  }
  combined.problems_from(base.problem_sizes, base.bindings);

  api::RunOptions serial_opts;
  serial_opts.workers = 1;
  (void)bench::session().run(combined, serial_opts);  // warm the caches
  const api::RunReport serial = bench::session().run(combined, serial_opts);
  const api::RunReport pool = bench::session().run(combined);  // hardware_concurrency
  std::printf("\nParallel sweep engine: %zu measured points, %u hardware threads\n",
              serial.records.size(), std::thread::hardware_concurrency());
  std::printf("  serial tool time: %.3f s | worker pool: %.3f s | speedup %.2fx\n",
              serial.wall_seconds, pool.wall_seconds,
              pool.wall_seconds > 0 ? serial.wall_seconds / pool.wall_seconds : 0.0);
  std::printf("  (reports are identical for any worker count: %s)\n",
              serial.csv() == pool.csv() ? "verified" : "MISMATCH");
  return 0;
}
