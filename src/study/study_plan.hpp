// study_plan.hpp — the declarative face of a §7 design study.
//
// A StudyPlan is an ExperimentPlan whose machine axis may be *generated*:
// next to explicitly named reference machines it sweeps WhatIfParams knob
// axes over a base machine (a MachineFamily grid). Lowering registers the
// family's points into the session's MachineRegistry and produces ONE
// batched ExperimentPlan, so a whole design study — machine knobs x
// directive variants x problem sizes x processor counts — runs through a
// single Session::run and inherits the worker pool, per-worker engine
// arenas, and the LRU layout store unchanged. No manual register_whatif
// calls, no ad-hoc bench code: the study is a declarative, reproducible
// artifact.
#pragma once

#include <string>
#include <vector>

#include "api/experiment_plan.hpp"
#include "api/run_report.hpp"
#include "api/session.hpp"
#include "study/machine_family.hpp"
#include "study/study_result.hpp"

namespace hpf90d::study {

class StudyPlan {
 public:
  /// The title labels the report; the family's generated machine names are
  /// prefixed with a slug of it, so two studies in one session do not
  /// collide unless their titles do.
  explicit StudyPlan(std::string title = "study");

  // --- builder (mirrors ExperimentPlan, plus the machine-knob axes) ----------
  StudyPlan& source(std::string hpf_source);
  /// Base machine the knob axes derive from (default "ipsc860"; any
  /// registered name, e.g. "fattree", works).
  StudyPlan& base_machine(std::string registry_name);
  /// Adds (or replaces) a machine-knob sweep axis, e.g.
  /// `knob_axis(Knob::Latency, {0.25, 1, 4})`.
  StudyPlan& knob_axis(Knob knob, std::vector<double> values);
  /// Reference machines swept alongside the generated family points (e.g.
  /// the stock testbed as a baseline). Swept first, in the given order.
  StudyPlan& add_reference_machine(std::string name);
  StudyPlan& add_variant(api::DirectiveVariant v);
  StudyPlan& add_variant(std::string name, std::vector<std::string> overrides,
                         std::optional<int> grid_rank = std::nullopt);
  StudyPlan& problems_from(const std::vector<long long>& sizes,
                           const std::function<front::Bindings(long long)>& make_bindings,
                           std::string_view label_prefix = "n=");
  StudyPlan& nprocs(std::vector<int> counts);
  StudyPlan& runs(int n);

  // --- accessors --------------------------------------------------------------
  [[nodiscard]] const std::string& title() const noexcept { return title_; }
  [[nodiscard]] const std::string& base() const noexcept { return family_.base(); }
  [[nodiscard]] const MachineFamily& family() const noexcept { return family_; }
  [[nodiscard]] const std::vector<std::string>& reference_machines() const noexcept {
    return references_;
  }
  [[nodiscard]] bool has_knob_axes() const noexcept { return !family_.axes().empty(); }
  /// Machines the lowered plan sweeps: references + family grid points.
  [[nodiscard]] std::size_t machine_count() const;
  /// Sweep points the lowered plan executes through Session::run.
  [[nodiscard]] std::size_t point_count() const;

  /// The variant/problem/nprocs/options plumbing the study delegates to
  /// (the lowered plan minus the machine axis). The study/service plan
  /// codec reads the swept axes through this.
  [[nodiscard]] const api::ExperimentPlan& inner() const noexcept { return inner_; }

  /// Installs an inner plan verbatim: the plan-transport decoder's entry
  /// (pairing with inner()), and the route to what the builder methods
  /// above do not forward (the weak-scaling pairs, the option blocks).
  /// Whatever machine axis the plan carries is overwritten by lower().
  StudyPlan& replace_inner(api::ExperimentPlan inner) {
    inner_ = std::move(inner);
    return *this;
  }

  /// Throws std::invalid_argument when the study cannot run (no source, no
  /// machine at all, invalid family axis, inner-plan violations).
  void validate() const;

  /// Lowers to the single batched ExperimentPlan: registers the family's
  /// machine points into session.machines() and returns the plan whose
  /// machine axis is [references..., family points...].
  [[nodiscard]] api::ExperimentPlan lower(api::Session& session) const;

 private:
  std::string title_;
  MachineFamily family_;
  std::vector<std::string> references_;
  /// Variant/problem/nprocs/options plumbing delegates to an inner
  /// ExperimentPlan; lower() copies it and fills in the machine axis.
  api::ExperimentPlan inner_;
};

/// Executes the study through one batched Session::run and wraps the
/// report with the analysis surface. The family's machine points are
/// registered on the way in — zero manual machine registration — and the
/// result's exports are byte-identical for any RunOptions::workers.
[[nodiscard]] StudyResult run_study(api::Session& session, const StudyPlan& plan,
                                    const api::RunOptions& options = {});

}  // namespace hpf90d::study
