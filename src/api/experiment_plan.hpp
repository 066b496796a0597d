// experiment_plan.hpp — declarative description of a batched experiment.
//
// The paper's §5.2 workflow sweeps directives, problem sizes, and system
// sizes interactively ("select directives from the interface", "vary the
// problem size from the interface"). An ExperimentPlan captures one such
// sweep declaratively as a cross product
//
//     machines x directive variants x problem cases x processor counts
//
// and Session::run executes the whole batch through the compilation and
// layout caches, returning a RunReport.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "compiler/spmd_ir.hpp"
#include "core/engine.hpp"
#include "hpf/fold.hpp"
#include "sim/executor.hpp"

namespace hpf90d::api {

/// One directive choice to evaluate (§5.2.1). Empty overrides = use the
/// directives already in the source.
struct DirectiveVariant {
  std::string name;                     // display label, e.g. "(block,*)"
  std::vector<std::string> overrides;   // compile_with_directives payloads
  /// Processor-grid rank forced for this variant; the grid shape at P
  /// processors is the near-square factorization (2 -> 2x2 at P=4, 2x4 at
  /// P=8 — the paper's Laplace grids). nullopt = the compiler's default.
  std::optional<int> grid_rank;
};

/// One problem instance: a named set of scalar bindings.
struct ProblemCase {
  std::string name;  // display label, e.g. "n=256"
  front::Bindings bindings;
};

/// One point of a *scaled* problem axis: the problem is coupled to a
/// specific processor count instead of being crossed with the nprocs list
/// (scaled-speedup / weak-scaling studies, where the problem grows with
/// the machine).
struct ScaledCase {
  ProblemCase problem;
  int nprocs = 0;
};

class ExperimentPlan {
 public:
  explicit ExperimentPlan(std::string title = "experiment")
      : title_(std::move(title)) {}

  // --- builder --------------------------------------------------------------
  ExperimentPlan& source(std::string hpf_source);
  ExperimentPlan& machines(std::vector<std::string> names);
  ExperimentPlan& nprocs(std::vector<int> counts);
  ExperimentPlan& add_variant(DirectiveVariant v);
  ExperimentPlan& add_variant(std::string name, std::vector<std::string> overrides,
                              std::optional<int> grid_rank = std::nullopt);
  ExperimentPlan& add_problem(std::string name, front::Bindings bindings);
  /// Adds one problem case per size, labelled "<label_prefix><size>", with
  /// bindings produced by `make_bindings(size)`. Tailored to the suite's
  /// BenchmarkApp shape: problems_from(app.problem_sizes, app.bindings)
  /// replaces the add_problem loop every caller used to write.
  ExperimentPlan& problems_from(
      const std::vector<long long>& sizes,
      const std::function<front::Bindings(long long)>& make_bindings,
      std::string_view label_prefix = "n=");
  /// Couples the problem axis to the processor count: each (problem,
  /// nprocs) pair is ONE point, and the pairs replace the problems x nprocs
  /// cross product (weak scaling: per-processor work stays constant while
  /// the machine grows). The pairs are installed verbatim, so the plan
  /// stays a plain declarative value (and stays serializable for the
  /// experiment service). Mutually exclusive with add_problem/problems_from.
  ExperimentPlan& scaled_cases(std::vector<ScaledCase> cases);

  /// Simulated-measurement repetitions; 0 disables measurement entirely
  /// (predict-only sweep, the paper's interactive mode).
  ExperimentPlan& runs(int n);
  ExperimentPlan& compiler_options(compiler::CompilerOptions opts);
  ExperimentPlan& predict_options(core::PredictOptions opts);
  ExperimentPlan& sim_options(sim::SimOptions opts);

  // --- accessors (defaults applied) -----------------------------------------
  [[nodiscard]] const std::string& title() const noexcept { return title_; }
  [[nodiscard]] const std::string& program_source() const noexcept { return source_; }
  [[nodiscard]] const std::vector<std::string>& machine_names() const;
  [[nodiscard]] const std::vector<int>& nprocs_list() const;
  [[nodiscard]] const std::vector<DirectiveVariant>& variants() const;
  [[nodiscard]] const std::vector<ProblemCase>& problems() const;
  /// True when the problem axis is coupled to nprocs; Session::run then
  /// sweeps machines x variants x scaled_cases_list() instead of the
  /// four-way cross product.
  [[nodiscard]] bool scaled_by_nprocs() const noexcept { return !scaled_.empty(); }
  [[nodiscard]] const std::vector<ScaledCase>& scaled_cases_list() const noexcept {
    return scaled_;
  }
  [[nodiscard]] int measure_runs() const noexcept { return runs_; }
  [[nodiscard]] const compiler::CompilerOptions& compiler_opts() const noexcept {
    return compiler_opts_;
  }
  [[nodiscard]] const core::PredictOptions& predict_opts() const noexcept {
    return predict_opts_;
  }
  [[nodiscard]] const sim::SimOptions& sim_opts() const noexcept { return sim_opts_; }

  /// Number of sweep points Session::run will execute.
  [[nodiscard]] std::size_t point_count() const;

  /// Throws std::invalid_argument when the plan cannot run (no source,
  /// non-positive processor count, duplicate variant/problem names).
  void validate() const;

 private:
  std::string title_;
  std::string source_;
  std::vector<std::string> machines_;        // default: {"ipsc860"}
  std::vector<int> nprocs_;                  // default: {1}
  std::vector<DirectiveVariant> variants_;   // default: one pass-through variant
  std::vector<ProblemCase> problems_;        // default: one empty-bindings case
  std::vector<ScaledCase> scaled_;           // non-empty = scaled problem axis
  int runs_ = 3;
  compiler::CompilerOptions compiler_opts_;
  core::PredictOptions predict_opts_;
  sim::SimOptions sim_opts_;
};

}  // namespace hpf90d::api
