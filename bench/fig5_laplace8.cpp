// fig5_laplace8 — regenerates paper Figure 5: Laplace solver estimated and
// measured execution times on 8 processors (2x4 grid for (BLOCK,BLOCK)).
// Each distribution is one ExperimentPlan run batched through the shared
// session.
#include <cstdio>

#include "bench_util.hpp"
#include "driver/report.hpp"

int main() {
  using namespace hpf90d;
  std::printf("Figure 5: Laplace Solver (8 Procs) - Estimated/Measured Times\n\n");
  for (const char* id : {"laplace_bb", "laplace_bx", "laplace_xb"}) {
    const auto& app = suite::app(id);
    api::ExperimentPlan plan(app.name);
    plan.source(app.source)
        .nprocs({8})
        .add_variant(bench::variant_for(app))
        .problems_from(app.problem_sizes, app.bindings)
        .runs(3);
    const api::RunReport report = bench::session().run(plan);

    std::vector<std::pair<long long, api::Comparison>> series;
    for (std::size_t i = 0; i < report.records.size(); ++i) {
      series.emplace_back(app.problem_sizes[i], report.records[i].comparison);
    }
    const std::string title =
        app.name + (app.id == "laplace_bb" ? " - 2x4 Proc Grid" : " - 8 Procs");
    std::printf("%s", driver::render_series(title, series).c_str());
    std::printf("\n");
  }
  return 0;
}
