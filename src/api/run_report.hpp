// run_report.hpp — structured results of an experiment-session sweep.
//
// The paper's workflow (§5.2) is comparative: many (machine, directive,
// problem size, system size) points are interpreted and/or "measured" and
// the developer reads them side by side. RunReport is that side-by-side
// object: one RunRecord per sweep point, the session cache statistics for
// the batch, and table/CSV renderings for reports and downstream tooling.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hpf90d::api {

/// Estimated-vs-measured comparison for one configuration (the Table 2
/// point metric).
struct Comparison {
  double estimated = 0;
  double measured_mean = 0;
  double measured_min = 0;
  double measured_max = 0;
  double measured_stddev = 0;

  /// Absolute error as a percentage of the measured time (Table 2 metric).
  [[nodiscard]] double abs_error_pct() const {
    if (measured_mean <= 0) return 0;
    return 100.0 * std::abs(estimated - measured_mean) / measured_mean;
  }
  /// Paper §5.1: interpreted performance typically lies within the
  /// measured variance band.
  [[nodiscard]] bool within_variance() const {
    const double slack = 1e-9 + 3.0 * measured_stddev +
                         0.25 * (measured_max - measured_min);
    return estimated >= measured_min - slack && estimated <= measured_max + slack;
  }
};

/// Session cache counters. Also used as a delta (per-run statistics).
struct CacheStats {
  std::size_t compile_hits = 0;
  std::size_t compile_misses = 0;
  std::size_t layout_hits = 0;
  std::size_t layout_misses = 0;
  /// Layout entries retired by the LRU bound (0 when the store is
  /// unbounded, the default).
  std::size_t layout_evictions = 0;
  /// Layout misses answered by the persistent spill tier instead of a
  /// build (0 without an attached ArtifactSpill). A warm-restarted daemon
  /// shows layout_spill_hits > 0 on the first re-run of a known plan.
  std::size_t layout_spill_hits = 0;
  /// The layout store's *effective* LRU capacity when the stats were
  /// captured (0 = unbounded). For a RunReport this is the capacity the
  /// run actually used (Session::set_layout_cache_capacity), so exported
  /// stats are self-describing. A state, not a counter:
  /// operator- carries the minuend's value instead of subtracting.
  std::size_t layout_capacity = 0;
  /// The simulator's value-tape store: a miss is one functional pass of a
  /// (value digest, bindings) — compiler::value_tape_key — a hit re-times a
  /// tape another processor count, machine or directive variant recorded,
  /// an eviction is a tape dropped for the byte budget.
  std::size_t value_tape_hits = 0;
  std::size_t value_tape_misses = 0;
  std::size_t value_tape_evictions = 0;
  /// Bytes of value tape resident when the stats were captured. A state,
  /// like layout_capacity: operator- carries the minuend's value.
  std::size_t value_tape_bytes = 0;

  [[nodiscard]] CacheStats operator-(const CacheStats& rhs) const {
    return {compile_hits - rhs.compile_hits,
            compile_misses - rhs.compile_misses,
            layout_hits - rhs.layout_hits,
            layout_misses - rhs.layout_misses,
            layout_evictions - rhs.layout_evictions,
            layout_spill_hits - rhs.layout_spill_hits,
            layout_capacity,
            value_tape_hits - rhs.value_tape_hits,
            value_tape_misses - rhs.value_tape_misses,
            value_tape_evictions - rhs.value_tape_evictions,
            value_tape_bytes};
  }
};

/// Predicted per-phase cost decomposition of one sweep point (the paper's
/// §3.3 interpretation categories: computation, communication, overhead,
/// wait). Filled from the interpretation for every point, measured or not;
/// study-level bottleneck attribution reads these.
struct PhaseBreakdown {
  double comp = 0;
  double comm = 0;
  double overhead = 0;
  double wait = 0;

  [[nodiscard]] double total() const noexcept { return comp + comm + overhead + wait; }
  /// The dominant phase's name ("comp" / "comm" / "overhead" / "wait");
  /// ties break in that order, and an all-zero breakdown reports "comp".
  [[nodiscard]] const char* dominant() const noexcept {
    const char* name = "comp";
    double best = comp;
    if (comm > best) { best = comm; name = "comm"; }
    if (overhead > best) { best = overhead; name = "overhead"; }
    if (wait > best) { name = "wait"; }
    return name;
  }
  /// Share of the dominant phase in the total (0 when the total is 0).
  [[nodiscard]] double dominant_fraction() const noexcept {
    const double t = total();
    if (t <= 0) return 0;
    const double m = std::max(std::max(comp, comm), std::max(overhead, wait));
    return m / t;
  }
};

/// One executed sweep point.
struct RunRecord {
  std::string machine;  // registry name, e.g. "ipsc860"
  std::string variant;  // directive-variant name, e.g. "(block,*)"
  std::string problem;  // problem-case name, e.g. "n=256"
  int nprocs = 0;
  Comparison comparison;
  PhaseBreakdown phases;  // predicted decomposition of comparison.estimated
  bool measured = false;  // false = predict-only point (measured_* are zero)
};

/// Batched-interpretation effectiveness counters for one run. Execution
/// telemetry, not results: the record payload is byte-identical for any
/// batch_size/worker combination, so these are deliberately excluded from
/// ascii()/csv()/from_csv() (they would break the oracle equality the
/// batched path guarantees).
/// Every point is counted once, by the window it finished in: a window of
/// two or more lanes makes it batched; a one-lane window makes it scalar
/// when the point is fresh, replayed when it was evicted first. Evicted
/// lanes re-batch, so evicted_lanes counts every eviction of every round
/// and is at least replayed_points.
struct BatchStats {
  std::size_t batched_points = 0;   // points finished in a window of >= 2 lanes
  std::size_t scalar_points = 0;    // points priced alone in a fresh 1-lane window
  std::size_t replayed_points = 0;  // evicted points finished later, alone
  std::uint64_t ir_visits = 0;      // SPMD nodes visited by lockstep walks
  std::uint64_t lane_visits = 0;    // sum of active lanes over those visits
  std::uint64_t evicted_lanes = 0;  // lanes that left a lockstep window
  std::uint64_t simd_stripes = 0;   // 8-lane stripes the cost bytecode evaluated

  /// Mean lanes priced per bytecode visit (1.0 would match scalar cost).
  [[nodiscard]] double mean_lanes_per_visit() const {
    return ir_visits == 0 ? 0.0
                          : static_cast<double>(lane_visits) /
                                static_cast<double>(ir_visits);
  }
};

/// The result of Session::run over one ExperimentPlan.
struct RunReport {
  std::string title;
  std::vector<RunRecord> records;
  CacheStats cache;        // cache activity attributable to this run
  BatchStats batch;        // lockstep-batching telemetry (not in ascii/csv)
  double wall_seconds = 0; // tool time for the whole batch (the Fig 8 metric)

  /// Record with the smallest estimated time; nullptr when empty.
  [[nodiscard]] const RunRecord* best_estimated() const;

  /// Paper-style fixed-width table (support::TextTable) plus a cache/time
  /// footer.
  [[nodiscard]] std::string ascii() const;

  /// Machine-readable export: a header row then one line per record.
  [[nodiscard]] std::string csv() const;

  /// Parses the output of csv() back into records (title/cache/wall are
  /// not part of the CSV payload). Throws std::invalid_argument on a
  /// malformed header or row.
  [[nodiscard]] static RunReport from_csv(std::string_view text);

  /// Full JSON export: unlike csv(), this carries everything — title,
  /// records (with the predicted phase breakdown), every CacheStats field
  /// (the value-tape counters included), batch telemetry, and wall time. Deterministic (%.17g doubles, fixed key
  /// order), so from_json(json()) reproduces the exact report and
  /// json(from_json(t)) == t for any t this emitted.
  [[nodiscard]] std::string json() const;

  /// Parses the output of json(). Throws std::invalid_argument on
  /// malformed input or schema drift.
  [[nodiscard]] static RunReport from_json(std::string_view text);
};

}  // namespace hpf90d::api
