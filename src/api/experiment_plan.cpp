#include "api/experiment_plan.hpp"

#include <set>
#include <stdexcept>

namespace hpf90d::api {

namespace {
const std::vector<std::string> kDefaultMachines = {"ipsc860"};
const std::vector<int> kDefaultNprocs = {1};
const std::vector<DirectiveVariant> kDefaultVariants = {{"source", {}, std::nullopt}};
const std::vector<ProblemCase> kDefaultProblems = {{"default", {}}};
}  // namespace

ExperimentPlan& ExperimentPlan::source(std::string hpf_source) {
  source_ = std::move(hpf_source);
  return *this;
}

ExperimentPlan& ExperimentPlan::machines(std::vector<std::string> names) {
  machines_ = std::move(names);
  return *this;
}

ExperimentPlan& ExperimentPlan::nprocs(std::vector<int> counts) {
  nprocs_ = std::move(counts);
  return *this;
}

ExperimentPlan& ExperimentPlan::add_variant(DirectiveVariant v) {
  variants_.push_back(std::move(v));
  return *this;
}

ExperimentPlan& ExperimentPlan::add_variant(std::string name,
                                            std::vector<std::string> overrides,
                                            std::optional<int> grid_rank) {
  variants_.push_back({std::move(name), std::move(overrides), grid_rank});
  return *this;
}

ExperimentPlan& ExperimentPlan::add_problem(std::string name, front::Bindings bindings) {
  problems_.push_back({std::move(name), std::move(bindings)});
  return *this;
}

ExperimentPlan& ExperimentPlan::problems_from(
    const std::vector<long long>& sizes,
    const std::function<front::Bindings(long long)>& make_bindings,
    std::string_view label_prefix) {
  if (!make_bindings) {
    throw std::invalid_argument("ExperimentPlan \"" + title_ +
                                "\": problems_from requires a bindings factory");
  }
  for (const long long size : sizes) {
    add_problem(std::string(label_prefix) + std::to_string(size), make_bindings(size));
  }
  return *this;
}

ExperimentPlan& ExperimentPlan::scaled_cases(std::vector<ScaledCase> cases) {
  scaled_ = std::move(cases);
  return *this;
}

ExperimentPlan& ExperimentPlan::runs(int n) {
  runs_ = n;
  return *this;
}

ExperimentPlan& ExperimentPlan::compiler_options(compiler::CompilerOptions opts) {
  compiler_opts_ = opts;
  return *this;
}

ExperimentPlan& ExperimentPlan::predict_options(core::PredictOptions opts) {
  predict_opts_ = opts;
  return *this;
}

ExperimentPlan& ExperimentPlan::sim_options(sim::SimOptions opts) {
  sim_opts_ = opts;
  return *this;
}

const std::vector<std::string>& ExperimentPlan::machine_names() const {
  return machines_.empty() ? kDefaultMachines : machines_;
}

const std::vector<int>& ExperimentPlan::nprocs_list() const {
  return nprocs_.empty() ? kDefaultNprocs : nprocs_;
}

const std::vector<DirectiveVariant>& ExperimentPlan::variants() const {
  return variants_.empty() ? kDefaultVariants : variants_;
}

const std::vector<ProblemCase>& ExperimentPlan::problems() const {
  return problems_.empty() ? kDefaultProblems : problems_;
}

std::size_t ExperimentPlan::point_count() const {
  if (scaled_by_nprocs()) {
    return machine_names().size() * variants().size() * scaled_.size();
  }
  return machine_names().size() * variants().size() * problems().size() *
         nprocs_list().size();
}

void ExperimentPlan::validate() const {
  if (source_.empty()) {
    throw std::invalid_argument("ExperimentPlan \"" + title_ + "\": no source set");
  }
  if (runs_ < 0) {
    throw std::invalid_argument("ExperimentPlan \"" + title_ +
                                "\": runs must be >= 0");
  }
  for (int p : nprocs_list()) {
    if (p < 1) {
      throw std::invalid_argument("ExperimentPlan \"" + title_ +
                                  "\": processor counts must be >= 1");
    }
  }
  std::set<std::string> seen;
  for (const auto& v : variants()) {
    if (!seen.insert(v.name).second) {
      throw std::invalid_argument("ExperimentPlan \"" + title_ +
                                  "\": duplicate variant name \"" + v.name + "\"");
    }
    if (v.grid_rank && (*v.grid_rank < 1 || *v.grid_rank > 2)) {
      throw std::invalid_argument("ExperimentPlan \"" + title_ +
                                  "\": grid_rank must be 1 or 2");
    }
  }
  if (scaled_by_nprocs()) {
    if (!problems_.empty()) {
      throw std::invalid_argument(
          "ExperimentPlan \"" + title_ +
          "\": scaled problem axis is mutually exclusive with "
          "add_problem/problems_from");
    }
    std::set<std::string> scaled_seen;
    for (const auto& sc : scaled_) {
      if (sc.nprocs < 1) {
        throw std::invalid_argument("ExperimentPlan \"" + title_ +
                                    "\": scaled-case processor counts must be >= 1");
      }
      const std::string key = sc.problem.name + "@" + std::to_string(sc.nprocs);
      if (!scaled_seen.insert(key).second) {
        throw std::invalid_argument("ExperimentPlan \"" + title_ +
                                    "\": duplicate scaled case \"" + sc.problem.name +
                                    "\" at P=" + std::to_string(sc.nprocs));
      }
    }
    return;
  }
  seen.clear();
  for (const auto& p : problems()) {
    if (!seen.insert(p.name).second) {
      throw std::invalid_argument("ExperimentPlan \"" + title_ +
                                  "\": duplicate problem name \"" + p.name + "\"");
    }
  }
}

}  // namespace hpf90d::api
