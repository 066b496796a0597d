// bench_util.hpp — shared helpers for the performance benches. All
// benches run through the experiment-session API (api::Session /
// ExperimentPlan).
#pragma once

#include "api/api.hpp"
#include "suite/suite.hpp"

namespace hpf90d::bench {

/// The shared experiment session: one machine registry plus compilation and
/// layout caches for every bench in a process.
inline api::Session& session() {
  static api::Session s;
  return s;
}

/// Session-cached compilation of a suite application.
inline api::Session::ProgramHandle compile_app_cached(const suite::BenchmarkApp& app) {
  return app.directive_overrides.empty()
             ? session().compile(app.source)
             : session().compile_with_directives(app.source, app.directive_overrides);
}

/// The plan variant for a suite application: its directive overrides plus
/// its forced grid rank.
inline api::DirectiveVariant variant_for(const suite::BenchmarkApp& app) {
  return {app.name, app.directive_overrides, app.grid_rank};
}

inline api::RunConfig config_for(const suite::BenchmarkApp& app, long long size,
                                 int nprocs, int runs = 3) {
  api::RunConfig cfg;
  cfg.nprocs = nprocs;
  cfg.bindings = app.bindings(size);
  cfg.runs = runs;
  if (app.grid_rank) {
    cfg.grid_shape = compiler::ProcGrid::factorized(nprocs, *app.grid_rank).shape;
  }
  return cfg;
}

}  // namespace hpf90d::bench
