// study_result.hpp — the analysis surface of a design study.
//
// The paper reads its §7 sweeps off as crossovers ("below n=512 the
// (block,*) mapping wins"), scalability trends (speedup/efficiency per
// machine), and bottleneck attribution (which cost category dominates
// where). StudyResult computes all three from the batched RunReport — the
// per-phase decomposition rides on every record — and exports the study as
// a committable artifact: deterministic ASCII for humans, CSV and JSON
// (with round-trip parsers) for tooling. Exports contain no wall-clock
// times, so a study re-run on any worker count reproduces them byte for
// byte.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "api/run_report.hpp"
#include "study/machine_family.hpp"

namespace hpf90d::study {

/// An ordering flip between two competitors along the nprocs axis: `a` is
/// estimated faster than `b` at nprocs_before, slower at nprocs_after.
struct Crossover {
  std::string axis;     // "variant" | "machine" — what kind of competitors flip
  std::string a, b;     // competitor names
  std::string context;  // the held-fixed machine (variant axis) or variant (machine axis)
  std::string problem;
  int nprocs_before = 0;
  int nprocs_after = 0;
  double a_before = 0, b_before = 0;  // estimated seconds at nprocs_before
  double a_after = 0, b_after = 0;    // estimated seconds at nprocs_after

  /// One-line rendering for reports.
  [[nodiscard]] std::string str() const;
};

/// One point of a scalability curve.
struct ScalabilityPoint {
  int nprocs = 0;
  double estimated = 0;
  double speedup = 1.0;     // t(P_min) / t(P)
  double efficiency = 1.0;  // speedup * P_min / P
};

/// Estimated scaling of one (machine, variant, problem) over the nprocs
/// axis, relative to the smallest swept processor count.
struct ScalabilityCurve {
  std::string machine, variant, problem;
  std::vector<ScalabilityPoint> points;  // nprocs ascending
};

/// Bottleneck attribution for one sweep point: the predicted per-phase
/// decomposition (phases.dominant() names the dominant category).
struct BottleneckRecord {
  std::string machine, variant, problem;
  int nprocs = 0;
  api::PhaseBreakdown phases;
};

/// One sweep point whose estimated time moved significantly between two
/// studies (baseline -> candidate).
struct PointDelta {
  std::string machine, variant, problem;
  int nprocs = 0;
  double estimated_before = 0, estimated_after = 0;
  /// (after - before) / before; +inf-free: before == 0 reports 0 and the
  /// point is still included when after != 0.
  double rel_change = 0;

  [[nodiscard]] std::string str() const;
};

/// The semantic difference between two studies: which crossover conclusions
/// appeared or disappeared, and which individual points moved by more than
/// the threshold. Produced by StudyResult::diff.
struct StudyDiff {
  std::string title_before, title_after;
  double threshold = 0;  // relative significance floor for deltas
  /// Crossovers present in the candidate but not the baseline, matched on
  /// (axis, a, b, context, problem, nprocs_before, nprocs_after).
  std::vector<Crossover> gained;
  /// Crossovers present in the baseline but not the candidate.
  std::vector<Crossover> lost;
  /// Common sweep points with |rel_change| >= threshold, in the baseline's
  /// record order.
  std::vector<PointDelta> deltas;
  /// Sweep points with no counterpart on the other side (axis mismatch).
  std::size_t only_in_before = 0, only_in_after = 0;

  /// True when the two studies agree: no flips changed, no significant
  /// deltas, identical point sets.
  [[nodiscard]] bool identical_conclusions() const noexcept {
    return gained.empty() && lost.empty() && deltas.empty() &&
           only_in_before == 0 && only_in_after == 0;
  }

  /// Human-readable summary (deterministic, no wall time).
  [[nodiscard]] std::string ascii() const;
};

struct StudyResult {
  std::string title;
  std::string base_machine;  // the family's base ("" when no knob axes)
  /// Knob settings per generated machine name (empty for studies without
  /// knob axes; reference machines are absent — their knobs are unity).
  std::vector<MachinePoint> machine_points;
  api::RunReport report;  // records carry the per-phase decomposition

  // --- analysis ---------------------------------------------------------------
  /// Variant-vs-variant flips (per machine and problem) followed by
  /// machine-vs-machine flips (per variant and problem), both along the
  /// nprocs axis, in deterministic sweep order. Ties are not crossings.
  [[nodiscard]] std::vector<Crossover> crossovers() const;

  /// One curve per (machine, variant, problem) in sweep order, points
  /// sorted by nprocs ascending.
  [[nodiscard]] std::vector<ScalabilityCurve> scalability() const;

  /// Per-record bottleneck attribution, in report order.
  [[nodiscard]] std::vector<BottleneckRecord> bottlenecks() const;

  /// Compares this study (the baseline) against `candidate`: crossover
  /// flips gained/lost plus per-point estimated-time deltas at least
  /// `threshold` (relative, default 5%). Points are matched on
  /// (machine, variant, problem, nprocs).
  [[nodiscard]] StudyDiff diff(const StudyResult& candidate,
                               double threshold = 0.05) const;

  // --- deterministic exports --------------------------------------------------
  /// Paper-style tables plus crossover and scalability summaries. No wall
  /// time; cache stats appear in the footer (deterministic across worker
  /// counts while the layout store is unbounded — see RunOptions).
  [[nodiscard]] std::string ascii() const;

  /// "#"-prefixed study/machine-point header lines, then one row per
  /// record including the per-phase decomposition. %.17g throughout, so
  /// from_csv round-trips byte-identically.
  [[nodiscard]] std::string csv() const;

  /// Single JSON object: title, base machine, machine points, records.
  /// Deterministic; from_json round-trips byte-identically.
  [[nodiscard]] std::string json() const;

  /// Parses the output of csv(). Cache statistics and wall time are not
  /// part of the payload and come back zero. Throws std::invalid_argument
  /// on malformed input.
  [[nodiscard]] static StudyResult from_csv(std::string_view text);

  /// Parses the output of json(). Throws std::invalid_argument on
  /// malformed input.
  [[nodiscard]] static StudyResult from_json(std::string_view text);
};

}  // namespace hpf90d::study
