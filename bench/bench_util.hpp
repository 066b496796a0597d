// bench_util.hpp — shared helpers for the paper-reproduction benches. All
// benches run through the experiment-session API (api::Session /
// ExperimentPlan).
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

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

/// FULL=1 in the environment runs the complete paper sweeps (the N-body
/// 4096-particle points take a few minutes of functional simulation);
/// the default trims the heaviest points so `for b in build/bench/*` stays
/// quick.
inline bool full_sweep() {
  const char* v = std::getenv("FULL");
  return v != nullptr && std::string(v) == "1";
}

/// The forced grid rank for an application's plan variant: the Laplace
/// (BLOCK,BLOCK) rows run on the paper's near-square 2-D grids.
inline std::optional<int> grid_rank_for(const suite::BenchmarkApp& app) {
  return app.id == "laplace_bb" ? std::optional<int>(2) : std::nullopt;
}

/// The plan variant for a suite application: its directive overrides plus
/// the forced grid rank.
inline api::DirectiveVariant variant_for(const suite::BenchmarkApp& app) {
  return {app.name, app.directive_overrides, grid_rank_for(app)};
}

inline api::RunConfig config_for(const suite::BenchmarkApp& app, long long size,
                                 int nprocs, int runs = 3) {
  api::RunConfig cfg;
  cfg.nprocs = nprocs;
  cfg.bindings = app.bindings(size);
  cfg.runs = runs;
  if (grid_rank_for(app)) {
    cfg.grid_shape = compiler::ProcGrid::factorized(nprocs, *grid_rank_for(app)).shape;
  }
  return cfg;
}

}  // namespace hpf90d::bench
