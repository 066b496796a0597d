#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <thread>

#include "compiler/pipeline.hpp"
#include "hpf/lexer.hpp"
#include "hpf/parser.hpp"
#include "hpf/sema.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

namespace {

template <class F>
double median_us(int reps, F&& f) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(time_ms(f) * 1e3);
  return median(std::move(v));
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

// --- statistics ---------------------------------------------------------------

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // 5: reset the peak RSS to the current RSS
  clear.close();
  std::printf("rss: peak reset=%s current_mb=%.1f\n", clear ? "yes" : "no", peak_rss_mb());
}

void EndToEnd::emit(Outcome& out) const {
  std::vector<double> rates, p50s, p90s;
  std::size_t jobs = 0;
  for (const PassSample& p : passes) {
    rates.push_back(p.rate);
    p50s.push_back(percentile(p.job_ms, 0.5));
    p90s.push_back(percentile(p.job_ms, 0.9));
    jobs += p.job_ms.size();
  }
  out.attempted = tally.attempted;
  out.failed = tally.attempted - tally.ok;
  out.add("setup_s", median(setups_s), "s");
  out.add("points_per_s", median(rates), "1/s");
  out.add("job_p50_ms", median(p50s), "ms");
  out.add("job_p90_ms", median(p90s), "ms");
  out.add("ok_frac", tally.ok_frac(), "frac");
  out.add("peak_rss_mb", peak_rss_mb, "MB");
  out.add("worst_err_pct", worst_err_pct, "%");
  out.add("within_var_frac", within_var_frac, "frac");
  const auto range = [](const std::vector<double>& v) {
    return v.empty() ? std::pair<double, double>{0, 0}
                     : std::pair<double, double>{*std::min_element(v.begin(), v.end()),
                                                 *std::max_element(v.begin(), v.end())};
  };
  std::printf("samples: setups=%zu passes=%zu jobs=%zu jobs_per_pass=%zu "
              "pass_rate_min=%.6g pass_rate_max=%.6g pass_p90_min=%.6g pass_p90_max=%.6g\n",
              setups_s.size(), passes.size(), jobs,
              passes.empty() ? 0 : passes.front().job_ms.size(), range(rates).first,
              range(rates).second, range(p90s).first, range(p90s).second);
}

// --- seeded generator ------------------------------------------------------------

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Digest::add(std::string_view bytes) {
  for (unsigned char c : bytes) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  h_ ^= 0xff;  // record separator
  h_ *= 0x100000001b3ULL;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

void announce_plans(const Options& opt, std::size_t count, const Digest& digest) {
  std::printf("plans: workload=%s seed=%llu count=%zu digest=%s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), count, digest.hex().c_str());
}

// --- suite helpers ---------------------------------------------------------------

api::DirectiveVariant variant_for(const suite::BenchmarkApp& app) {
  return {app.name, app.directive_overrides,
          app.id == "laplace_bb" ? std::optional<int>(2) : std::nullopt};
}

hpf90d::compiler::LayoutOptions layout_options_for(const suite::BenchmarkApp& app,
                                                   int nprocs) {
  hpf90d::compiler::LayoutOptions lo;
  lo.nprocs = nprocs;
  if (const auto rank = variant_for(app).grid_rank) {
    lo.grid_shape = hpf90d::compiler::ProcGrid::factorized(nprocs, *rank).shape;
  }
  return lo;
}

std::vector<long long> table2_sizes(const suite::BenchmarkApp& app) {
  // the trimmed sweep of bench/table2_accuracy: the paper's sizes minus the
  // most expensive functional simulations
  std::vector<long long> sizes;
  for (long long size : app.problem_sizes) {
    if (app.id == "nbody" ? size > 256 : size > 2048) continue;
    sizes.push_back(size);
  }
  return sizes;
}

api::Session::ProgramHandle compile_app(api::Session& session,
                                        const suite::BenchmarkApp& app,
                                        const std::string& source) {
  return app.directive_overrides.empty()
             ? session.compile(source)
             : session.compile_with_directives(source, app.directive_overrides);
}

std::vector<ProbePoint> smallest_size_probe(api::Session& session) {
  std::vector<ProbePoint> points;
  const auto& apps = suite::validation_suite();
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const auto& app = apps[a];
    const auto prog = compile_app(session, app, app.source);
    const long long size = table2_sizes(app).front();
    for (int nprocs : suite::paper_system_sizes()) {
      api::RunConfig cfg;
      cfg.nprocs = nprocs;
      cfg.bindings = app.bindings(size);
      cfg.grid_shape = layout_options_for(app, nprocs).grid_shape;
      cfg.runs = 3;
      points.push_back({a, nprocs, session.compare(prog, cfg)});
    }
  }
  return points;
}

void Accuracy::add(const api::Comparison& c) {
  worst_err_pct = std::max(worst_err_pct, c.abs_error_pct());
  if (c.within_variance()) ++within;
  ++points;
}

// --- output checks ------------------------------------------------------------------

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool table2_record_ok(const api::RunRecord& rec, double ref_estimate,
                      const api::Comparison* measured_ref) {
  const api::Comparison& c = rec.comparison;
  const auto positive = [](double v) { return std::isfinite(v) && v > 0; };
  if (!rec.measured || !positive(c.measured_mean) || !positive(c.measured_min) ||
      !positive(c.measured_max) || !std::isfinite(c.measured_stddev) ||
      c.measured_stddev < 0) {
    return false;
  }
  if (!same_bits(c.estimated, ref_estimate)) return false;
  return measured_ref == nullptr ||
         (same_bits(c.measured_mean, measured_ref->measured_mean) &&
          same_bits(c.measured_min, measured_ref->measured_min) &&
          same_bits(c.measured_max, measured_ref->measured_max) &&
          same_bits(c.measured_stddev, measured_ref->measured_stddev));
}

void add_cache(api::CacheStats& sum, const api::CacheStats& c) {
  sum.compile_hits += c.compile_hits;
  sum.compile_misses += c.compile_misses;
  sum.layout_hits += c.layout_hits;
  sum.layout_misses += c.layout_misses;
}

void add_batch(api::BatchStats& sum, const api::BatchStats& b) {
  sum.batched_points += b.batched_points;
  sum.scalar_points += b.scalar_points;
  sum.replayed_points += b.replayed_points;
  sum.ir_visits += b.ir_visits;
  sum.lane_visits += b.lane_visits;
}

// --- benchmark-side spans ---------------------------------------------------------

std::uint32_t thread_tag() noexcept {
  const std::size_t h = std::hash<std::thread::id>{}(std::this_thread::get_id());
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

void SpanLog::add(std::string name, std::uint64_t start_ns, std::uint64_t dur_ns,
                  std::uint64_t arg) {
  SpanView s{std::move(name), thread_tag(), start_ns, dur_ns, arg, true};
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(s));
}

std::vector<SpanView> SpanLog::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<SpanView> merge_spans(const obs::Tracer& tracer, const SpanLog& log,
                                  std::uint64_t from_ns) {
  std::vector<SpanView> out;
  for (const obs::SpanRecord& r : tracer.snapshot()) {
    if (r.start_ns < from_ns) continue;
    out.push_back({obs::phase_name(r.phase), r.thread, r.start_ns, r.dur_ns, r.arg, false});
  }
  for (SpanView& s : log.spans()) {
    if (s.start_ns >= from_ns) out.push_back(std::move(s));
  }
  // by thread, then start, enclosing spans before the spans they contain
  std::sort(out.begin(), out.end(), [](const SpanView& a, const SpanView& b) {
    if (a.thread != b.thread) return a.thread < b.thread;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.dur_ns > b.dur_ns;
  });
  return out;
}

double sum_ms(const std::vector<SpanView>& spans, std::string_view name) {
  double ns = 0;
  for (const SpanView& s : spans) {
    if (s.name == name) ns += static_cast<double>(s.dur_ns);
  }
  return ns / 1e6;
}

std::size_t count_spans(const std::vector<SpanView>& spans, std::string_view name) {
  return static_cast<std::size_t>(std::count_if(
      spans.begin(), spans.end(), [&](const SpanView& s) { return s.name == name; }));
}

double self_ms(const std::vector<SpanView>& spans, std::string_view name) {
  // spans are sorted by (thread, start, enclosing first) — see merge_spans
  double ns = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanView& parent = spans[i];
    if (parent.name != name) continue;
    const std::uint64_t end = parent.start_ns + parent.dur_ns;
    std::uint64_t covered = parent.start_ns;  // children are disjoint or nested
    std::uint64_t child_ns = 0;
    for (std::size_t j = i + 1; j < spans.size(); ++j) {
      const SpanView& c = spans[j];
      if (c.thread != parent.thread || c.start_ns >= end) break;
      const std::uint64_t c_end = std::min(c.start_ns + c.dur_ns, end);
      if (c_end <= covered) continue;  // nested in an earlier child
      child_ns += c_end - std::max(c.start_ns, covered);
      covered = c_end;
    }
    ns += static_cast<double>(parent.dur_ns - std::min(child_ns, parent.dur_ns));
  }
  return ns / 1e6;
}

bool write_chrome_trace(const std::string& path, const std::vector<SpanView>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const SpanView& s : spans) {
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"arg\":%llu}}",
                  first ? "" : ",", json_escape(s.name).c_str(),
                  s.bench ? "bench" : "hpf90d", static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.dur_ns) / 1e3, s.thread,
                  static_cast<unsigned long long>(s.arg));
    out << buf;
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::string trace_path(const Options& opt) {
  return opt.out_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) +
         ".trace.json";
}

// --- per-layer metrics -------------------------------------------------------------

void Layers::set_cache(const api::CacheStats& cache) {
  api_compile_misses = static_cast<double>(cache.compile_misses);
  api_layout_misses = static_cast<double>(cache.layout_misses);
  const double lookups = static_cast<double>(cache.layout_hits + cache.layout_misses);
  api_layout_hit_frac = lookups == 0 ? 0 : static_cast<double>(cache.layout_hits) / lookups;
}

void Layers::set_batch(const api::BatchStats& batch) {
  core_lanes_per_visit = batch.mean_lanes_per_visit();
  const double points = static_cast<double>(batch.batched_points + batch.scalar_points);
  core_replayed_frac = points == 0 ? 0 : static_cast<double>(batch.replayed_points) / points;
}

void Layers::set_engine(const std::vector<SpanView>& spans, std::size_t points,
                        std::size_t measured, double pass_ms) {
  api_schedule_ms = sum_ms(spans, "chunk_schedule");
  core_lockstep_ms = sum_ms(spans, "lockstep_window");
  core_replay_ms = sum_ms(spans, "scalar_replay");
  if (points > 0) {
    core_predict_us_per_point =
        (core_lockstep_ms + core_replay_ms) * 1e3 / static_cast<double>(points);
  }
  sim_measure_ms = sum_ms(spans, "measure_batch");
  if (measured > 0) sim_ms_per_point = sim_measure_ms / static_cast<double>(measured);
  if (pass_ms > 0) sim_pass_share = sim_measure_ms / pass_ms;
}

void Layers::emit(Outcome& out) const {
  out.add("hpf.parse_us", hpf_parse_us, "us");
  out.add("hpf.sema_us", hpf_sema_us, "us");
  out.add("hpf.tokens", hpf_tokens, "count");
  out.add("compiler.lower_us", compiler_lower_us, "us");
  out.add("compiler.layout_us", compiler_layout_us, "us");
  out.add("api.compile_misses", api_compile_misses, "count");
  out.add("api.layout_misses", api_layout_misses, "count");
  out.add("api.layout_hit_frac", api_layout_hit_frac, "frac");
  out.add("api.schedule_ms", api_schedule_ms, "ms");
  out.add("api.run_self_ms", api_run_self_ms, "ms");
  out.add("api.report_export_ms", api_report_export_ms, "ms");
  out.add("core.lockstep_ms", core_lockstep_ms, "ms");
  out.add("core.replay_ms", core_replay_ms, "ms");
  out.add("core.predict_us_per_point", core_predict_us_per_point, "us");
  out.add("core.lanes_per_visit", core_lanes_per_visit, "count");
  out.add("core.replayed_frac", core_replayed_frac, "frac");
  out.add("sim.measure_ms", sim_measure_ms, "ms");
  out.add("sim.ms_per_point", sim_ms_per_point, "ms");
  out.add("sim.pass_share", sim_pass_share, "frac");
  out.add("study.lower_ms", study_lower_ms, "ms");
  out.add("study.analysis_ms", study_analysis_ms, "ms");
  out.add("study.export_ms", study_export_ms, "ms");
  out.add("study.import_ms", study_import_ms, "ms");
  out.add("serve.codec_us", serve_codec_us, "us");
  out.add("serve.queue_wait_ms", serve_queue_wait_ms, "ms");
  out.add("serve.execute_ms", serve_execute_ms, "ms");
  out.add("serve.transport_ms", serve_transport_ms, "ms");
  out.add("serve.coalesced_jobs", serve_coalesced_jobs, "count");
  out.add("serve.bytes_per_job", serve_bytes_per_job, "B");
  out.add("obs.trace_overhead_frac", obs_trace_overhead_frac, "frac");
  out.add("obs.spans_dropped", obs_spans_dropped, "count");
}

void probe_frontend(const std::vector<ProgramSpec>& programs, Layers& layers) {
  namespace front = hpf90d::front;
  namespace compiler = hpf90d::compiler;
  if (programs.empty()) return;
  double tokens = 0, parse = 0, sema = 0, lower = 0;
  for (const ProgramSpec& p : programs) {
    tokens += static_cast<double>(front::lex_source(p.source).tokens.size());
    const double parse_us = median_us(3, [&] { (void)front::parse_program(p.source); });
    std::vector<double> sema_runs;
    for (int i = 0; i < 3; ++i) {
      front::Program ast = front::parse_program(p.source);
      sema_runs.push_back(time_ms([&] { (void)front::analyze(ast); }) * 1e3);
    }
    const double sema_us = median(std::move(sema_runs));
    const double compile_us = median_us(3, [&] {
      if (p.overrides.empty()) {
        (void)compiler::compile(p.source);
      } else {
        (void)compiler::compile_with_directives(p.source, p.overrides);
      }
    });
    parse += parse_us;
    sema += sema_us;
    lower += std::max(0.0, compile_us - parse_us - sema_us);
  }
  const auto n = static_cast<double>(programs.size());
  layers.hpf_tokens = tokens / n;
  layers.hpf_parse_us = parse / n;
  layers.hpf_sema_us = sema / n;
  layers.compiler_lower_us = lower / n;
}

void probe_layouts(const std::vector<LayoutCase>& cases, Layers& layers) {
  if (cases.empty()) return;
  double total = 0;
  for (const LayoutCase& c : cases) {
    total += median_us(3, [&] {
      (void)hpf90d::compiler::make_layout(*c.program, c.bindings, c.options);
    });
  }
  layers.compiler_layout_us = total / static_cast<double>(cases.size());
}

// --- host record and output ----------------------------------------------------------

namespace {

std::uint64_t alu_kernel(std::uint64_t iters, std::uint64_t x) {
  x |= 1;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Best of three: `threads` threads each running the same fixed ALU loop.
double alu_ms(unsigned threads) {
  constexpr std::uint64_t kIters = 20'000'000;
  std::vector<double> runs;
  for (int rep = 0; rep < 3; ++rep) {
    std::atomic<std::uint64_t> sink{0};
    const auto t0 = Clock::now();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&sink, t] { sink += alu_kernel(kIters, t + 1); });
    }
    for (auto& th : pool) th.join();
    runs.push_back(seconds_since(t0) * 1e3);
  }
  return *std::min_element(runs.begin(), runs.end());
}

}  // namespace

bool release_build() {
#ifdef NDEBUG
  return std::string_view(PERFBENCH_BUILD_TYPE) == "Release";
#else
  return false;
#endif
}

void print_host_record(std::FILE* out) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const double one = alu_ms(1);
  const double all = alu_ms(nproc);
  std::fprintf(out,
               "host: {\"nproc\": %u, \"alu_1thread_ms\": %.3f, \"alu_nthread_ms\": %.3f, "
               "\"thread_speedup\": %.3f, \"build_type\": \"%s\", \"cxx_flags\": \"%s\", "
               "\"compiler\": \"%s\"}\n",
               nproc, one, all, all > 0 ? nproc * one / all : 0.0, PERFBENCH_BUILD_TYPE,
               json_escape(PERFBENCH_CXX_FLAGS).c_str(), PERFBENCH_COMPILER);
}

void print_result(const Outcome& out) {
  for (const std::string& f : out.check_failures) {
    std::printf("self-check failed: %s\n", f.c_str());
  }
  bool finite = true;
  std::string metrics;
  char buf[256];
  for (const Metric& m : out.metrics) {
    finite = finite && std::isfinite(m.value);
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    metrics += buf;
  }
  const bool correct = out.failed == 0 && out.check_failures.empty() && finite;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", out.attempted, out.failed, metrics.c_str());
}

}  // namespace perfbench
