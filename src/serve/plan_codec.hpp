// plan_codec.hpp — deterministic text encodings for the service protocol.
//
// The wire layer (wire.hpp) moves opaque payloads; this module defines
// them. Plans travel as line-oriented text: fixed fields are space/tab
// separated, every user-controlled string (titles, names, directive
// overrides, program source) is length-prefixed so arbitrary bytes
// round-trip, and doubles are rendered with %.17g so decode(encode(p))
// reproduces the exact IEEE values — which is what lets a served run
// produce a byte-identical report to a local run of the same plan.
//
// encode is a fixpoint over decode: encode(decode(encode(p))) ==
// encode(p), with axis defaults applied, so the encoding can double as a
// content address for job dedup.
//
// Decoders throw CodecError on malformed input (syntax only — plan
// semantics are checked by ExperimentPlan::validate at execution time).
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "api/experiment_plan.hpp"
#include "api/run_report.hpp"
#include "study/study_plan.hpp"

namespace hpf90d::serve {

class CodecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

[[nodiscard]] std::string encode_plan(const api::ExperimentPlan& plan);
[[nodiscard]] api::ExperimentPlan decode_plan(std::string_view text);

[[nodiscard]] std::string encode_study(const study::StudyPlan& plan);
[[nodiscard]] study::StudyPlan decode_study(std::string_view text);

/// Terminal result of a served job, as carried by a Result frame. For
/// "done" plan jobs `body_csv` is RunReport::csv(); for study jobs it is
/// StudyResult::csv() (which embeds title and machine points). Cache
/// stats and wall time ride alongside because the CSV bodies are
/// deliberately deterministic and exclude them.
struct JobOutcome {
  std::string state;  // "done" | "failed" | "cancelled"
  bool is_study = false;
  std::string title;
  std::string error;  // non-empty iff state == "failed"
  double wall_seconds = 0;
  api::CacheStats cache;
  std::string body_csv;
};

[[nodiscard]] std::string encode_outcome(const JobOutcome& outcome);
[[nodiscard]] JobOutcome decode_outcome(std::string_view text);

/// Daemon-level counters, served to any tenant on a Stats frame.
struct ServerStats {
  api::CacheStats cache;          // session-lifetime cache counters
  std::size_t cached_programs = 0;
  std::size_t cached_layouts = 0;
  std::size_t warmed_programs = 0;  // recipes recompiled at startup
  std::size_t jobs_submitted = 0;
  std::size_t jobs_done = 0;
  std::size_t jobs_failed = 0;
  std::size_t jobs_cancelled = 0;
  std::size_t spill_layouts_stored = 0;
  std::size_t spill_layouts_loaded = 0;
  std::size_t spill_programs_stored = 0;
  /// Batched-interpretation effectiveness across every job the daemon ran
  /// (sums of RunReport::batch), plus content-address coalescing: a job
  /// whose payload byte-matched one already executing is served the
  /// in-flight result instead of re-running the sweep.
  std::size_t jobs_coalesced = 0;
  std::size_t points_batched = 0;
  std::size_t points_scalar = 0;
  std::size_t points_replayed = 0;
  std::uint64_t batch_ir_visits = 0;
  std::uint64_t batch_lane_visits = 0;
  /// Eviction and SIMD telemetry (stats codec v3): evictions across every
  /// lockstep walk, and 8-lane stripes the vectorized cost evaluator priced.
  std::uint64_t lanes_evicted = 0;
  std::uint64_t simd_stripes = 0;
  /// Live queue occupancy and slow-job telemetry (stats codec v4): jobs
  /// waiting, jobs executing right now, and jobs whose sweep exceeded
  /// ServerOptions::slow_job_threshold_ms since the daemon started.
  std::size_t queue_depth = 0;
  std::size_t jobs_running = 0;
  std::size_t slow_jobs = 0;
  /// On-disk artifact spill usage (stats codec v4): bytes and files under
  /// the store root. Zero when no artifact_dir is attached.
  std::uint64_t spill_dir_bytes = 0;
  std::uint64_t spill_dir_files = 0;

  /// Mean lanes priced per bytecode visit across all jobs (0 before any
  /// batched run).
  [[nodiscard]] double mean_lanes_per_visit() const {
    return batch_ir_visits == 0 ? 0.0
                                : static_cast<double>(batch_lane_visits) /
                                      static_cast<double>(batch_ir_visits);
  }
};

[[nodiscard]] std::string encode_stats(const ServerStats& stats);
[[nodiscard]] ServerStats decode_stats(std::string_view text);

}  // namespace hpf90d::serve
