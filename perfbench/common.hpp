// common.hpp — shared pieces of the hpf90d end-to-end benchmark: options,
// result records, statistics, the seeded generator, benchmark-side spans and
// their analysis, the per-layer metric set, and the probes that re-time
// frontend passes and layout builds on a workload's own inputs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "obs/obs.hpp"
#include "suite/suite.hpp"

namespace perfbench {

namespace api = hpf90d::api;
namespace suite = hpf90d::suite;
namespace obs = hpf90d::obs;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <class F>
double time_ms(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0) * 1e3;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench/out";  // traces and sockets
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run of a workload reports: job counts for ok_frac, the
/// self-check verdicts, and either the end-to-end or the per-layer metrics.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> check_failures;  // count self-checks that did not hold
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void require(bool holds, const std::string& what) {
    if (!holds) check_failures.push_back(what);
  }
};

// --- statistics ---------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated percentile, p in [0, 1].
[[nodiscard]] double percentile(std::vector<double> v, double p);
/// Peak resident set size since the last reset_peak_rss() (VmHWM).
[[nodiscard]] double peak_rss_mb();
/// Returns freed heap to the system and restarts the peak RSS reading from
/// the current resident size, so reference work done before the workload's
/// set-up does not set peak_rss_mb. Prints whether the kernel allowed it.
void reset_peak_rss();

/// Jobs attempted vs jobs whose output passed its check.
struct Tally {
  std::size_t attempted = 0;
  std::size_t ok = 0;

  void record(bool passed) {
    ++attempted;
    if (passed) ++ok;
  }
  [[nodiscard]] double ok_frac() const {
    return attempted == 0 ? 0.0 : static_cast<double>(ok) / static_cast<double>(attempted);
  }
};

/// The end-to-end metric set every workload reports (tracing off).
///
/// Each timed pass gives a rate and its own job latency percentiles; the
/// reported figures are their medians over all passes of the run. A burst
/// of load from other tenants of a shared host moves a few passes and not
/// the median, while no pass is dropped for its speed, so slow jobs stay in
/// the tail and a slowdown over a session's or daemon's life still shows.
struct EndToEnd {
  struct PassSample {
    double rate = 0;              // sweep points per second of the timed pass
    std::vector<double> job_ms;   // latency of each of its jobs
  };

  std::vector<double> setups_s;   // one per set-up performed in the run
  std::vector<PassSample> passes;
  /// Peak RSS through the first set-up and its passes, counted from the
  /// last reset_peak_rss() before set-up. Later cycles only add allocator
  /// fragmentation from rebuilding sessions and daemons in one process,
  /// which would make the figure depend on how many fit in a run.
  double peak_rss_mb = 0;
  Tally tally;
  double worst_err_pct = 0;
  double within_var_frac = 0;

  void add_pass(std::size_t points, double wall_s, std::vector<double> job_ms) {
    passes.push_back({static_cast<double>(points) / wall_s, std::move(job_ms)});
  }
  /// Call after each set-up's passes; only the first call takes the reading.
  void cycle_done() {
    if (peak_rss_mb == 0) peak_rss_mb = perfbench::peak_rss_mb();
  }
  void emit(Outcome& out) const;
};

// --- seeded generator ------------------------------------------------------------

/// splitmix64: fully specified, so a seed yields the same inputs everywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }
  /// `k` distinct values of `pool`, kept in pool order.
  template <class T>
  std::vector<T> pick(const std::vector<T>& pool, std::size_t k) {
    std::vector<std::size_t> idx(pool.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    shuffle(idx);
    idx.resize(k);
    std::sort(idx.begin(), idx.end());
    std::vector<T> out;
    for (std::size_t i : idx) out.push_back(pool[i]);
    return out;
  }

 private:
  std::uint64_t state_;
};

/// FNV-1a 64 over the generated plan encodings: equal digests mean the
/// program received the same plans.
class Digest {
 public:
  void add(std::string_view bytes);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Prints the generated plan list's size and digest.
void announce_plans(const Options& opt, std::size_t count, const Digest& digest);

// --- suite helpers ---------------------------------------------------------------

/// The Table 2 plan variant of a suite app: its directive overrides, and the
/// paper's near-square 2-D grids for the (BLOCK,BLOCK) Laplace rows.
[[nodiscard]] api::DirectiveVariant variant_for(const suite::BenchmarkApp& app);
/// Layout options Session::run derives for `app` at `nprocs`.
[[nodiscard]] hpf90d::compiler::LayoutOptions layout_options_for(
    const suite::BenchmarkApp& app, int nprocs);
/// The trimmed Table 2 problem sizes of `app` (304 points over the suite).
[[nodiscard]] std::vector<long long> table2_sizes(const suite::BenchmarkApp& app);
[[nodiscard]] api::Session::ProgramHandle compile_app(api::Session& session,
                                                      const suite::BenchmarkApp& app,
                                                      const std::string& source);

/// One measured point on an app's smallest Table 2 size.
struct ProbePoint {
  std::size_t app = 0;  // index into suite::validation_suite()
  int nprocs = 0;
  api::Comparison comparison;
};

/// Point-by-point Session::compare of every app's smallest Table 2 size at
/// each paper system size (64 points, 3 runs each).
[[nodiscard]] std::vector<ProbePoint> smallest_size_probe(api::Session& session);

/// Table 2 accuracy over a set of measured comparisons.
struct Accuracy {
  double worst_err_pct = 0;
  std::size_t within = 0;
  std::size_t points = 0;

  void add(const api::Comparison& c);
  [[nodiscard]] double within_frac() const {
    return points == 0 ? 0.0 : static_cast<double>(within) / static_cast<double>(points);
  }
};

// --- output checks ------------------------------------------------------------------

/// Bit-for-bit equality (distinguishes -0.0 and NaN payloads).
[[nodiscard]] bool same_bits(double a, double b);

/// A table2 job's record passes when it was measured with finite, positive
/// times, its estimate equals the scalar predict-only reference bit for bit,
/// and — on the app's smallest size, where `measured_ref` is given — its
/// measured statistics equal the point-by-point Session::compare reference.
[[nodiscard]] bool table2_record_ok(const api::RunRecord& rec, double ref_estimate,
                                    const api::Comparison* measured_ref);

void add_cache(api::CacheStats& sum, const api::CacheStats& c);
void add_batch(api::BatchStats& sum, const api::BatchStats& b);

// --- benchmark-side spans ---------------------------------------------------------

/// Same tag obs::Span records, so benchmark spans and program spans of one
/// thread nest.
[[nodiscard]] std::uint32_t thread_tag() noexcept;

/// A span from either source: the program's obs::Tracer or the benchmark.
struct SpanView {
  std::string name;
  std::uint32_t thread = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t arg = 0;
  bool bench = false;
};

/// Thread-safe store of benchmark-side spans.
class SpanLog {
 public:
  void add(std::string name, std::uint64_t start_ns, std::uint64_t dur_ns,
           std::uint64_t arg = 0);
  [[nodiscard]] std::vector<SpanView> spans() const;

 private:
  mutable std::mutex mutex_;
  std::vector<SpanView> spans_;
};

/// RAII span around a public call; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t arg = 0)
      : log_(log), name_(name), arg_(arg), start_(log != nullptr ? obs::now_ns() : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->add(name_, start_, obs::now_ns() - start_, arg_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_arg(std::uint64_t arg) { arg_ = arg; }

 private:
  SpanLog* log_;
  const char* name_;
  std::uint64_t arg_;
  std::uint64_t start_;
};

/// Program spans recorded at or after `from_ns` merged with the benchmark's.
[[nodiscard]] std::vector<SpanView> merge_spans(const obs::Tracer& tracer,
                                                const SpanLog& log, std::uint64_t from_ns);
[[nodiscard]] double sum_ms(const std::vector<SpanView>& spans, std::string_view name);
[[nodiscard]] std::size_t count_spans(const std::vector<SpanView>& spans,
                                      std::string_view name);
/// Sum over spans named `name` of their duration minus the part of it that
/// spans nested inside them (same thread) cover.
[[nodiscard]] double self_ms(const std::vector<SpanView>& spans, std::string_view name);
/// Chrome trace_event JSON of the spans; returns false when it cannot write.
bool write_chrome_trace(const std::string& path, const std::vector<SpanView>& spans);
[[nodiscard]] std::string trace_path(const Options& opt);

// --- per-layer metrics -------------------------------------------------------------

/// Every per-layer metric; a layer a workload never enters reports 0.
struct Layers {
  double hpf_parse_us = 0, hpf_sema_us = 0, hpf_tokens = 0;
  double compiler_lower_us = 0, compiler_layout_us = 0;
  double api_compile_misses = 0, api_layout_misses = 0, api_layout_hit_frac = 0;
  double api_schedule_ms = 0, api_run_self_ms = 0, api_report_export_ms = 0;
  double core_lockstep_ms = 0, core_replay_ms = 0, core_predict_us_per_point = 0;
  double core_lanes_per_visit = 0, core_replayed_frac = 0;
  double sim_measure_ms = 0, sim_ms_per_point = 0, sim_pass_share = 0;
  double study_lower_ms = 0, study_analysis_ms = 0, study_export_ms = 0,
         study_import_ms = 0;
  double serve_codec_us = 0, serve_queue_wait_ms = 0, serve_execute_ms = 0,
         serve_transport_ms = 0, serve_coalesced_jobs = 0, serve_bytes_per_job = 0;
  double obs_trace_overhead_frac = 0, obs_spans_dropped = 0;

  /// Cache counters of the traced pass.
  void set_cache(const api::CacheStats& cache);
  /// Lockstep telemetry of the traced pass.
  void set_batch(const api::BatchStats& batch);
  /// Program-span totals of the traced pass (`points` predicted, `measured`
  /// simulated, `pass_ms` its wall time).
  void set_engine(const std::vector<SpanView>& spans, std::size_t points,
                  std::size_t measured, double pass_ms);
  void emit(Outcome& out) const;
};

/// A program a workload compiles: source plus directive overrides.
struct ProgramSpec {
  std::string source;
  std::vector<std::string> overrides;
};

/// Re-times parse, sema and the whole compile of each program (median of 3)
/// and fills the hpf.* and compiler.lower_us metrics with per-program means.
void probe_frontend(const std::vector<ProgramSpec>& programs, Layers& layers);

/// One layout a workload uses.
struct LayoutCase {
  api::Session::ProgramHandle program;
  hpf90d::front::Bindings bindings;
  hpf90d::compiler::LayoutOptions options;
};

/// Re-times compiler::make_layout on each case (median of 3); fills
/// compiler.layout_us with the per-layout mean.
void probe_layouts(const std::vector<LayoutCase>& cases, Layers& layers);

// --- host record and output ----------------------------------------------------------

/// nproc, the 1- vs nproc-thread ALU calibration, and the build record.
void print_host_record(std::FILE* out);
[[nodiscard]] bool release_build();
void print_result(const Outcome& out);

// --- workloads ----------------------------------------------------------------------

Outcome run_table2(const Options& opt);
Outcome run_serve_mix(const Options& opt);

}  // namespace perfbench
