#include "study/study_plan.hpp"

#include <stdexcept>

namespace hpf90d::study {

namespace {

/// Registry-friendly slug of a study title: lower-case alphanumerics with
/// single dashes, "study" when nothing survives. Deterministic, so the
/// generated machine names are stable across runs.
std::string slug_of(std::string_view title) {
  std::string out;
  bool dash = false;
  for (const char c : title) {
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      out += c;
      dash = false;
    } else if (c >= 'A' && c <= 'Z') {
      out += static_cast<char>(c - 'A' + 'a');
      dash = false;
    } else if (!out.empty() && !dash) {
      out += '-';
      dash = true;
    }
  }
  while (!out.empty() && out.back() == '-') out.pop_back();
  return out.empty() ? std::string("study") : out;
}

}  // namespace

StudyPlan::StudyPlan(std::string title)
    : title_(std::move(title)), family_(slug_of(title_)), inner_(title_) {}

StudyPlan& StudyPlan::source(std::string hpf_source) {
  inner_.source(std::move(hpf_source));
  return *this;
}

StudyPlan& StudyPlan::base_machine(std::string registry_name) {
  family_.set_base(std::move(registry_name));
  return *this;
}

StudyPlan& StudyPlan::knob_axis(Knob knob, std::vector<double> values) {
  family_.axis(knob, std::move(values));
  return *this;
}

StudyPlan& StudyPlan::add_reference_machine(std::string name) {
  references_.push_back(std::move(name));
  return *this;
}

StudyPlan& StudyPlan::add_variant(api::DirectiveVariant v) {
  inner_.add_variant(std::move(v));
  return *this;
}

StudyPlan& StudyPlan::add_variant(std::string name, std::vector<std::string> overrides,
                                  std::optional<int> grid_rank) {
  inner_.add_variant(std::move(name), std::move(overrides), grid_rank);
  return *this;
}

StudyPlan& StudyPlan::problems_from(
    const std::vector<long long>& sizes,
    const std::function<front::Bindings(long long)>& make_bindings,
    std::string_view label_prefix) {
  inner_.problems_from(sizes, make_bindings, label_prefix);
  return *this;
}

StudyPlan& StudyPlan::nprocs(std::vector<int> counts) {
  inner_.nprocs(std::move(counts));
  return *this;
}

StudyPlan& StudyPlan::runs(int n) {
  inner_.runs(n);
  return *this;
}

std::size_t StudyPlan::machine_count() const {
  return references_.size() + (has_knob_axes() ? family_.size() : 0);
}

std::size_t StudyPlan::point_count() const {
  const std::size_t machines = machine_count() > 0 ? machine_count() : 1;
  if (inner_.scaled_by_nprocs()) {
    return machines * inner_.variants().size() * inner_.scaled_cases_list().size();
  }
  return machines * inner_.variants().size() * inner_.problems().size() *
         inner_.nprocs_list().size();
}

void StudyPlan::validate() const {
  // A study without knob axes and without references still runs: the
  // lowered plan falls back to the base machine alone.
  if (has_knob_axes()) family_.validate();
  inner_.validate();
}

api::ExperimentPlan StudyPlan::lower(api::Session& session) const {
  validate();
  api::ExperimentPlan plan = inner_;
  std::vector<std::string> machines = references_;
  if (has_knob_axes()) {
    std::vector<std::string> generated = family_.register_into(session.machines());
    machines.insert(machines.end(), std::make_move_iterator(generated.begin()),
                    std::make_move_iterator(generated.end()));
  }
  if (machines.empty()) machines.push_back(base());  // knob-less study: the base alone
  plan.machines(std::move(machines));
  return plan;
}

StudyResult run_study(api::Session& session, const StudyPlan& plan,
                      const api::RunOptions& options) {
  const api::ExperimentPlan lowered = plan.lower(session);
  StudyResult out;
  out.title = plan.title();
  out.base_machine = plan.has_knob_axes() ? plan.base() : std::string{};
  if (plan.has_knob_axes()) out.machine_points = plan.family().points();
  out.report = session.run(lowered, options);
  return out;
}

}  // namespace hpf90d::study
