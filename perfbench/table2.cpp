// table2.cpp — the simulator-heavy workload: regenerate the trimmed paper
// Table 2 (16 suite apps x their problem sizes x nprocs {1,2,4,8}, 3
// simulated runs per point: 304 measured points) serially on a session
// whose layouts start cold. One job is one point's Session::run, so the
// latency percentiles rest on 304 samples per pass. The seed only permutes
// the job order: every seed does exactly the same work.
#include <map>
#include <memory>
#include <tuple>

#include "common.hpp"
#include "serve/plan_codec.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kTable2Points = 304;
constexpr int kSetups = 21;  // per burst: a set-up takes about a millisecond
constexpr std::size_t kMinPasses = 2;

struct Job {
  std::size_t app = 0;  // index into suite::validation_suite()
  long long size = 0;
  int nprocs = 0;
  bool smallest = false;  // the app's smallest Table 2 size
  api::ExperimentPlan plan;
};

std::vector<Job> generate(std::uint64_t seed) {
  std::vector<Job> jobs;
  const auto& apps = suite::validation_suite();
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const auto& app = apps[a];
    const std::vector<long long> sizes = table2_sizes(app);
    for (long long size : sizes) {
      for (int nprocs : suite::paper_system_sizes()) {
        api::ExperimentPlan plan(app.name);
        plan.source(app.source)
            .nprocs({nprocs})
            .add_variant(variant_for(app))
            .problems_from({size}, app.bindings)
            .runs(3);
        jobs.push_back({a, size, nprocs, size == sizes.front(), std::move(plan)});
      }
    }
  }
  Rng(seed).shuffle(jobs);
  return jobs;
}

/// What the timed jobs are checked against, computed on its own session.
struct Reference {
  std::map<std::tuple<std::size_t, long long, int>, double> estimate;  // scalar predict-only
  std::map<std::pair<std::size_t, int>, api::Comparison> smallest;     // point by point
};

Reference make_reference() {
  api::Session session;
  Reference ref;
  api::RunOptions scalar;
  scalar.workers = 1;
  scalar.batch_size = 1;
  const auto& apps = suite::validation_suite();
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const auto& app = apps[a];
    const std::vector<long long> sizes = table2_sizes(app);
    api::ExperimentPlan plan(app.name);
    plan.source(app.source)
        .nprocs(suite::paper_system_sizes())
        .add_variant(variant_for(app))
        .problems_from(sizes, app.bindings)
        .runs(0);
    const api::RunReport report = session.run(plan, scalar);
    for (const api::RunRecord& rec : report.records) {
      const long long size = std::stoll(rec.problem.substr(2));  // "n=<size>"
      ref.estimate[{a, size, rec.nprocs}] = rec.comparison.estimated;
    }
  }
  for (const ProbePoint& p : smallest_size_probe(session)) {
    ref.smallest[{p.app, p.nprocs}] = p.comparison;
  }
  return ref;
}

std::unique_ptr<api::Session> set_up(std::vector<double>& setups_s) {
  const auto t0 = Clock::now();
  auto session = std::make_unique<api::Session>();
  for (const auto& app : suite::validation_suite()) {
    (void)compile_app(*session, app, app.source);
  }
  setups_s.push_back(seconds_since(t0));
  return session;
}

struct Pass {
  double wall_s = 0;
  std::vector<double> job_ms;
  Tally tally;
  Accuracy accuracy;
  api::CacheStats cache;
  api::BatchStats batch;
  std::size_t points = 0;
  std::size_t measured = 0;
};

Pass run_pass(api::Session& session, const std::vector<Job>& jobs, const Reference& ref,
              SpanLog* log) {
  Pass pass;
  api::RunOptions opts;
  opts.workers = 1;
  const auto t0 = Clock::now();
  for (const Job& job : jobs) {
    const auto j0 = Clock::now();
    api::RunReport report;
    {
      const ScopedSpan span(log, "api.run");
      report = session.run(job.plan, opts);
    }
    pass.job_ms.push_back(seconds_since(j0) * 1e3);

    bool ok = report.records.size() == 1;
    if (ok) {
      const api::RunRecord& rec = report.records.front();
      const auto est = ref.estimate.find({job.app, job.size, job.nprocs});
      const auto meas = ref.smallest.find({job.app, job.nprocs});
      ok = est != ref.estimate.end() &&
           (!job.smallest || meas != ref.smallest.end()) &&
           table2_record_ok(rec, est->second, job.smallest ? &meas->second : nullptr);
      pass.accuracy.add(rec.comparison);
      if (rec.measured) ++pass.measured;
    }
    pass.tally.record(ok);
    pass.points += report.records.size();
    add_cache(pass.cache, report.cache);
    add_batch(pass.batch, report.batch);
  }
  pass.wall_s = seconds_since(t0);
  return pass;
}

void check_counts(Outcome& out, const Pass& pass) {
  out.require(pass.measured == kTable2Points,
              "table2 measured " + std::to_string(pass.measured) + " points, expected 304");
}

}  // namespace

Outcome run_table2(const Options& opt) {
  const std::vector<Job> jobs = generate(opt.seed);
  Digest digest;
  for (const Job& job : jobs) digest.add(hpf90d::serve::encode_plan(job.plan));
  announce_plans(opt, jobs.size(), digest);

  const Reference ref = make_reference();
  reset_peak_rss();
  Outcome out;
  EndToEnd e2e;
  // a burst of set-ups sees one moment of a shared host, whose speed drifts
  // over tens of seconds: take a burst before every pass and after the last
  const auto set_up_burst = [&] {
    std::unique_ptr<api::Session> session;
    for (int i = 0; i < kSetups; ++i) session = set_up(e2e.setups_s);
    return session;
  };

  // whole passes, each on a fresh session so every pass builds its layouts
  std::vector<Pass> passes;
  const auto t_start = Clock::now();
  do {
    passes.push_back(run_pass(*set_up_burst(), jobs, ref, nullptr));
    e2e.cycle_done();
  } while (!opt.trace && (passes.size() < kMinPasses || seconds_since(t_start) < opt.seconds));
  (void)set_up_burst();

  // too few passes for a median: take each job's fastest run over the passes
  std::vector<double> fastest = passes.front().job_ms;
  std::printf("table2: passes=%zu pass_wall_s=", passes.size());
  for (const Pass& pass : passes) std::printf("%.3f ", pass.wall_s);
  std::printf("\n");
  for (const Pass& pass : passes) {
    check_counts(out, pass);
    for (std::size_t j = 0; j < fastest.size(); ++j) {
      fastest[j] = std::min(fastest[j], pass.job_ms[j]);
    }
    e2e.tally.attempted += pass.tally.attempted;
    e2e.tally.ok += pass.tally.ok;
  }
  double fastest_ms = 0;
  for (double ms : fastest) fastest_ms += ms;
  e2e.add_pass(kTable2Points, fastest_ms / 1e3, std::move(fastest));
  e2e.worst_err_pct = passes.front().accuracy.worst_err_pct;
  e2e.within_var_frac = passes.front().accuracy.within_frac();
  if (!opt.trace) {
    e2e.emit(out);
    return out;
  }

  // traced pass: the program's spans plus ours around every Session::run
  obs::Tracer tracer(1 << 17);
  SpanLog log;
  std::vector<double> unused;
  const std::unique_ptr<api::Session> session = set_up(unused);
  session->set_trace_sink(&tracer);
  const std::uint64_t from_ns = obs::now_ns();
  const Pass traced = run_pass(*session, jobs, ref, &log);
  session->set_trace_sink(nullptr);
  check_counts(out, traced);
  out.attempted = e2e.tally.attempted + traced.tally.attempted;
  out.failed = out.attempted - e2e.tally.ok - traced.tally.ok;

  const std::vector<SpanView> spans = merge_spans(tracer, log, from_ns);
  Layers layers;
  layers.set_cache(traced.cache);
  layers.set_batch(traced.batch);
  layers.set_engine(spans, traced.points, traced.measured, traced.wall_s * 1e3);
  layers.api_run_self_ms = self_ms(spans, "api.run");
  layers.obs_trace_overhead_frac = traced.wall_s / passes.front().wall_s - 1;
  layers.obs_spans_dropped = static_cast<double>(tracer.dropped());

  std::vector<ProgramSpec> programs;
  std::vector<LayoutCase> layouts;
  const auto& apps = suite::validation_suite();
  for (const auto& app : apps) programs.push_back({app.source, app.directive_overrides});
  // a one-point plan is predicted on the scalar path, which records no span:
  // re-time Session::predict on the pass's points instead
  double predict_ms = 0;
  for (const Job& job : jobs) {
    const auto& app = apps[job.app];
    const auto prog = compile_app(*session, app, app.source);
    const hpf90d::compiler::LayoutOptions lo = layout_options_for(app, job.nprocs);
    layouts.push_back({prog, app.bindings(job.size), lo});
    api::RunConfig cfg;
    cfg.nprocs = job.nprocs;
    cfg.grid_shape = lo.grid_shape;
    cfg.bindings = app.bindings(job.size);
    predict_ms += time_ms([&] { (void)session->predict(prog, cfg); });
  }
  layers.core_predict_us_per_point = predict_ms * 1e3 / static_cast<double>(jobs.size());
  probe_frontend(programs, layers);
  probe_layouts(layouts, layers);
  layers.emit(out);
  out.require(tracer.dropped() == 0, "tracer dropped spans");
  out.require(write_chrome_trace(trace_path(opt), spans), "cannot write " + trace_path(opt));
  return out;
}

}  // namespace perfbench
