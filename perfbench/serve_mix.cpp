// serve_mix.cpp — the daemon workload: an in-process ExperimentServer (2
// executors, job_workers=1, tracing off) serving two closed-loop
// ServeClient tenants over its Unix socket — at most four busy threads.
// A daemon serves kPassesPerDaemon passes and is then replaced: every pass
// brings programs the daemon has not seen, and its memory does not grow
// with the run length (the machine registry keeps every model a study
// replaces). Daemon start counts as set-up; stop() waits out the acceptor's
// poll and stays outside every timed interval.
//
// Per tenant, each round of 20 jobs holds
//   10 repeated predict-only plans from a pool of 6 (cache reads),
//    2 programs the daemon has not compiled: a suite kernel with a distinct
//      edit comment at a new problem size (program-cache and layout-store
//      writes),
//    4 small what-if studies from a pool of 4 (the study CSV codec on the
//      wire), and
//    4 shared plans both tenants submit at the same moment (coalescing).
// The shared plan is the slowest job and a fifth of the mix, so job_p90_ms
// falls inside its latency spread rather than on the edge between it and
// the studies, where a pass-to-pass shift of a few jobs would move it.
// The seed draws sizes, knob values and the job order; the mix is the same
// for every seed.
#include <barrier>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <unistd.h>

#include "common.hpp"
#include "serve/client.hpp"
#include "serve/plan_codec.hpp"
#include "serve/server.hpp"
#include "study/study.hpp"

namespace perfbench {
namespace {

namespace serve = hpf90d::serve;
namespace study = hpf90d::study;

constexpr std::size_t kTenants = 2;
constexpr std::size_t kRounds = 5;  // 20 jobs per tenant per round
constexpr std::size_t kFreshPerRound = 2;
constexpr std::size_t kPassesPerDaemon = 10;

struct Job {
  bool is_study = false;
  bool shared = false;
  bool fresh = false;
  api::ExperimentPlan plan;
  study::StudyPlan study;
  std::string payload;  // the encoded plan: identifies the reference CSV
  std::size_t points = 0;
  std::size_t app = 0;      // fresh jobs: index into the suite
  long long size = 0;       // fresh jobs: the new problem size

  [[nodiscard]] std::string key() const { return (is_study ? "S" : "P") + payload; }
};

Job plan_job(api::ExperimentPlan plan) {
  Job job;
  job.payload = serve::encode_plan(plan);
  job.points = plan.point_count();
  job.plan = std::move(plan);
  return job;
}

Job study_job(study::StudyPlan plan) {
  Job job;
  job.is_study = true;
  job.payload = serve::encode_study(plan);
  job.points = plan.point_count();
  job.study = std::move(plan);
  return job;
}

using TenantLists = std::vector<std::vector<Job>>;  // one job list per tenant

struct Mix {
  std::vector<Job> warm;             // every pooled job once
  std::vector<TenantLists> passes;   // the lists of each pass a daemon serves
  std::size_t fresh = 0;             // new programs per pass
};

std::size_t app_index(std::string_view id) {
  const auto& apps = suite::validation_suite();
  for (std::size_t a = 0; a < apps.size(); ++a) {
    if (apps[a].id == id) return a;
  }
  throw std::out_of_range("unknown suite app");
}

Mix generate(std::uint64_t seed) {
  Rng rng(seed);
  const auto& apps = suite::validation_suite();
  const std::vector<int> nprocs = suite::paper_system_sizes();
  Mix mix;

  std::vector<Job> repeat;
  for (const char* id : {"lfk1", "lfk14", "pbs2", "pi", "finance", "laplace_bb"}) {
    const auto& app = suite::app(id);
    api::ExperimentPlan plan(std::string("repeat ") + id);
    plan.source(app.source)
        .nprocs(nprocs)
        .add_variant(variant_for(app))
        .problems_from(rng.pick(app.problem_sizes, 3), app.bindings)
        .runs(0);
    repeat.push_back(plan_job(std::move(plan)));
  }
  std::vector<Job> studies;
  for (const char* id : {"lfk3", "pbs1", "laplace_bx", "lfk22"}) {
    const auto& app = suite::app(id);
    study::StudyPlan plan(std::string("serve ") + id);
    plan.source(app.source)
        .base_machine("ipsc860")
        .knob_axis(study::Knob::Latency, rng.pick(std::vector<double>{0.25, 0.5, 2, 4}, 2))
        .knob_axis(study::Knob::Bandwidth, rng.pick(std::vector<double>{0.5, 2, 4, 8}, 2))
        .add_reference_machine("ipsc860")
        .add_variant(variant_for(app))
        .problems_from(rng.pick(app.problem_sizes, 1), app.bindings)
        .nprocs(nprocs)
        .runs(0);
    studies.push_back(study_job(std::move(plan)));
  }
  Job shared;
  {
    const auto& laplace = suite::app("laplace_bb");
    api::ExperimentPlan plan("shared laplace");
    plan.source(laplace.source).nprocs(nprocs).runs(0);
    for (const char* id : {"laplace_bb", "laplace_bx", "laplace_xb"}) {
      plan.add_variant(variant_for(suite::app(id)));
    }
    plan.problems_from(laplace.problem_sizes, laplace.bindings);
    shared = plan_job(std::move(plan));
    shared.shared = true;
  }
  mix.warm = repeat;
  mix.warm.insert(mix.warm.end(), studies.begin(), studies.end());
  mix.warm.push_back(shared);

  const std::vector<const char*> fresh_apps{"lfk1", "lfk3", "lfk9", "lfk22", "pbs4", "pi"};
  std::set<std::pair<std::size_t, long long>> used;
  for (std::size_t p = 0; p < kPassesPerDaemon; ++p) {
    TenantLists lists;
    for (std::size_t t = 0; t < kTenants; ++t) {
      std::vector<Job> own;
      for (std::size_t r = 0; r < kRounds; ++r) {
        for (std::size_t i = 0; i < 10; ++i) own.push_back(repeat[i % repeat.size()]);
        for (const Job& s : studies) own.push_back(s);
        for (std::size_t f = 0; f < kFreshPerRound; ++f) {
          const std::size_t a = app_index(fresh_apps[(r * kFreshPerRound + f + t) %
                                                     fresh_apps.size()]);
          const auto& app = apps[a];
          const long long lo = app.problem_sizes.front();
          const long long hi = app.problem_sizes.back();
          long long size = 0;
          do {
            size = lo + 1 +
                   static_cast<long long>(rng.below(static_cast<std::size_t>(hi - lo - 1)));
          } while (std::find(app.problem_sizes.begin(), app.problem_sizes.end(), size) !=
                       app.problem_sizes.end() ||
                   !used.insert({a, size}).second);
          api::ExperimentPlan plan("fresh " + app.id);
          plan.source("! edited in pass " + std::to_string(p) + " by tenant " +
                      std::to_string(t) + ", round " + std::to_string(r) + ", job " +
                      std::to_string(f) + "\n" + app.source)
              .nprocs(nprocs)
              .add_variant(variant_for(app))
              .problems_from({size}, app.bindings)
              .runs(0);
          Job job = plan_job(std::move(plan));
          job.fresh = true;
          job.app = a;
          job.size = size;
          own.push_back(std::move(job));
        }
      }
      rng.shuffle(own);
      // shared jobs sit at the same positions in every tenant's list
      std::vector<Job> list;
      for (std::size_t i = 0; i < own.size(); ++i) {
        if (i % 4 == 2) list.push_back(shared);
        list.push_back(std::move(own[i]));
      }
      lists.push_back(std::move(list));
    }
    mix.passes.push_back(std::move(lists));
  }
  mix.fresh = kTenants * kRounds * kFreshPerRound;
  return mix;
}

std::string served_csv(const serve::JobResult& r) {
  return r.is_study ? r.study.csv() : r.report.csv();
}

/// One running daemon with a connected client per tenant.
struct Daemon {
  std::unique_ptr<serve::ExperimentServer> server;
  std::vector<std::unique_ptr<serve::ServeClient>> clients;

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    for (auto& c : clients) c->close();
    if (server) server->stop();
  }
};

std::unique_ptr<Daemon> set_up(const Options& opt, const Mix& mix, bool trace,
                               std::vector<double>& setups_s) {
  static int serial = 0;
  const std::string socket = opt.out_dir + "/serve-" + std::to_string(::getpid()) + "-" +
                             std::to_string(serial++) + ".sock";
  const auto t0 = Clock::now();
  auto d = std::make_unique<Daemon>();
  serve::ServerOptions so;
  so.socket_path = socket;
  so.executors = 2;
  so.job_workers = 1;
  so.trace = trace;
  so.trace_capacity = 1 << 17;
  d->server = std::make_unique<serve::ExperimentServer>(so);
  d->server->start();
  for (std::size_t t = 0; t < kTenants; ++t) {
    d->clients.push_back(
        std::make_unique<serve::ServeClient>(socket, "tenant" + std::to_string(t)));
    d->clients.back()->connect();
  }
  for (const Job& job : mix.warm) {
    auto& c = *d->clients.front();
    const std::uint64_t id = job.is_study ? c.submit(job.study) : c.submit(job.plan);
    if (!c.wait(id).ok()) throw std::runtime_error("serve_mix warm-up job failed");
  }
  setups_s.push_back(seconds_since(t0));
  return d;
}

struct TenantOut {
  std::vector<double> job_ms;
  std::vector<serve::JobResult> results;
  std::string error;
};

void tenant_loop(serve::ServeClient& client, const std::vector<Job>& jobs,
                 std::barrier<>& sync, TenantOut& out, SpanLog* log) {
  try {
    for (const Job& job : jobs) {
      if (job.shared) sync.arrive_and_wait();
      const auto j0 = Clock::now();
      ScopedSpan span(log, "serve.roundtrip");
      const std::uint64_t id = job.is_study ? client.submit(job.study) : client.submit(job.plan);
      span.set_arg(id);
      out.results.push_back(client.wait(id));
      out.job_ms.push_back(seconds_since(j0) * 1e3);
    }
  } catch (const std::exception& e) {
    out.error = e.what();
    sync.arrive_and_drop();  // the other tenant must not wait for us
  }
}

struct Pass {
  double wall_s = 0;
  std::vector<double> job_ms;
  Tally tally;
  std::size_t points = 0;
  serve::ServerStats before, after;
  std::vector<TenantOut> tenants;
  std::uint64_t from_ns = 0;
};

/// Checks every served CSV; the results are kept only for a traced pass.
Pass run_pass(Daemon& d, const TenantLists& lists,
              const std::map<std::string, std::string>& ref, SpanLog* log) {
  Pass pass;
  pass.before = d.server->stats();
  pass.tenants.resize(kTenants);
  std::barrier<> sync(static_cast<std::ptrdiff_t>(kTenants));
  pass.from_ns = obs::now_ns();
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < kTenants; ++t) {
      threads.emplace_back([&, t] {
        tenant_loop(*d.clients[t], lists[t], sync, pass.tenants[t], log);
      });
    }
  }
  pass.wall_s = seconds_since(t0);
  pass.after = d.server->stats();

  for (std::size_t t = 0; t < kTenants; ++t) {
    const TenantOut& out = pass.tenants[t];
    const std::vector<Job>& jobs = lists[t];
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const bool done = i < out.results.size() && out.results[i].ok();
      pass.tally.record(done && served_csv(out.results[i]) == ref.at(jobs[i].key()));
      if (done) pass.points += jobs[i].points;
    }
    pass.job_ms.insert(pass.job_ms.end(), out.job_ms.begin(), out.job_ms.end());
    if (log == nullptr) {
      // release the storage too: kept passes must not grow the process
      pass.tenants[t].results = {};
      pass.tenants[t].job_ms = {};
    }
  }
  return pass;
}

void check_counts(Outcome& out, const Pass& pass, const Mix& mix) {
  const std::size_t misses = pass.after.cache.compile_misses - pass.before.cache.compile_misses;
  out.require(misses == mix.fresh, "serve_mix compiled " + std::to_string(misses) +
                                       " programs, expected " + std::to_string(mix.fresh));
  for (const TenantOut& t : pass.tenants) {
    out.require(t.error.empty(), "serve_mix tenant failed: " + t.error);
  }
}

}  // namespace

Outcome run_serve_mix(const Options& opt) {
  const Mix mix = generate(opt.seed);
  Digest digest;
  std::size_t count = 0;
  for (const TenantLists& lists : mix.passes) {
    for (const auto& list : lists) {
      for (const Job& job : list) digest.add(job.key());
      count += list.size();
    }
  }
  announce_plans(opt, count, digest);

  // references: every distinct payload run locally on a daemon-sized session
  std::map<std::string, std::string> ref;
  Accuracy accuracy;
  {
    api::Session session(serve::ServerOptions{}.max_nodes);
    api::RunOptions opts;
    opts.workers = 1;
    for (const TenantLists& lists : mix.passes) {
      for (const auto& list : lists) {
        for (const Job& job : list) {
          if (ref.count(job.key()) != 0) continue;
          ref[job.key()] = job.is_study ? study::run_study(session, job.study, opts).csv()
                                        : session.run(job.plan, opts).csv();
        }
      }
    }
    api::Session probe_session;
    for (const ProbePoint& p : smallest_size_probe(probe_session)) accuracy.add(p.comparison);
  }
  reset_peak_rss();

  Outcome out;
  EndToEnd e2e;
  e2e.worst_err_pct = accuracy.worst_err_pct;
  e2e.within_var_frac = accuracy.within_frac();
  std::filesystem::create_directories(opt.out_dir);

  std::vector<Pass> passes;
  std::size_t coalesced = 0;
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  const auto t_start = Clock::now();
  do {
    {
      auto daemon = set_up(opt, mix, false, e2e.setups_s);
      for (const TenantLists& lists : mix.passes) {
        passes.push_back(run_pass(*daemon, lists, ref, nullptr));
      }
    }
    e2e.cycle_done();
  } while (seconds_since(t_start) < budget);

  std::vector<double> walls;
  for (const Pass& pass : passes) {
    check_counts(out, pass, mix);
    coalesced += pass.after.jobs_coalesced - pass.before.jobs_coalesced;
    walls.push_back(pass.wall_s);
    e2e.add_pass(pass.points, pass.wall_s, pass.job_ms);
    e2e.tally.attempted += pass.tally.attempted;
    e2e.tally.ok += pass.tally.ok;
  }
  out.require(coalesced > 0, "serve_mix coalesced no jobs");
  if (!opt.trace) {
    e2e.emit(out);
    return out;
  }

  SpanLog log;
  std::vector<double> unused;
  auto daemon = set_up(opt, mix, true, unused);
  const Pass traced = run_pass(*daemon, mix.passes.front(), ref, &log);
  check_counts(out, traced, mix);
  out.attempted = e2e.tally.attempted + traced.tally.attempted;
  out.failed = out.attempted - e2e.tally.ok - traced.tally.ok;
  const obs::Tracer& tracer = daemon->server->tracer();
  const std::vector<SpanView> spans = merge_spans(tracer, log, traced.from_ns);

  Layers layers;
  const serve::ServerStats& a = traced.after;
  const serve::ServerStats& b = traced.before;
  layers.set_cache(a.cache - b.cache);
  api::BatchStats batch;
  batch.batched_points = a.points_batched - b.points_batched;
  batch.scalar_points = a.points_scalar - b.points_scalar;
  batch.replayed_points = a.points_replayed - b.points_replayed;
  batch.ir_visits = a.batch_ir_visits - b.batch_ir_visits;
  batch.lane_visits = a.batch_lane_visits - b.batch_lane_visits;
  layers.set_batch(batch);
  layers.set_engine(spans, batch.batched_points + batch.scalar_points, 0,
                    traced.wall_s * 1e3);
  layers.api_run_self_ms = self_ms(spans, "job_execute");
  layers.serve_coalesced_jobs = static_cast<double>(a.jobs_coalesced - b.jobs_coalesced);
  if (const std::size_t n = count_spans(spans, "queue_wait")) {
    layers.serve_queue_wait_ms = sum_ms(spans, "queue_wait") / static_cast<double>(n);
  }
  if (const std::size_t n = count_spans(spans, "job_execute")) {
    layers.serve_execute_ms = sum_ms(spans, "job_execute") / static_cast<double>(n);
  }
  {
    // round trip minus queue wait and execute, over the jobs that executed
    std::map<std::uint64_t, std::uint64_t> wait_ns, exec_ns;
    for (const SpanView& s : spans) {
      if (s.name == "queue_wait") wait_ns[s.arg] = s.dur_ns;
      if (s.name == "job_execute") exec_ns[s.arg] = s.dur_ns;
    }
    double transport_ns = 0;
    std::size_t n = 0;
    for (const SpanView& s : spans) {
      if (s.name != "serve.roundtrip") continue;
      const auto e = exec_ns.find(s.arg);
      if (e == exec_ns.end()) continue;  // coalesced: waited on another job
      const double w = wait_ns.count(s.arg) != 0 ? static_cast<double>(wait_ns[s.arg]) : 0;
      transport_ns += std::max(0.0, static_cast<double>(s.dur_ns) - w -
                                        static_cast<double>(e->second));
      ++n;
    }
    if (n > 0) layers.serve_transport_ms = transport_ns / 1e6 / static_cast<double>(n);
  }
  layers.obs_trace_overhead_frac = traced.wall_s / median(walls) - 1;
  layers.obs_spans_dropped = static_cast<double>(tracer.dropped());

  // re-timed on the traced pass's own jobs: codecs, exports, imports, lowering
  api::Session scratch(serve::ServerOptions{}.max_nodes);
  double codec_ms = 0, bytes = 0;
  std::size_t jobs = 0;
  std::vector<ProgramSpec> programs;
  std::vector<LayoutCase> layouts;
  const auto& apps = suite::validation_suite();
  for (std::size_t t = 0; t < kTenants; ++t) {
    const auto& results = traced.tenants[t].results;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Job& job = mix.passes.front()[t][i];
      const serve::JobResult& r = results[i];
      std::string csv;
      if (job.is_study) {
        layers.study_analysis_ms += time_ms([&] {
          (void)r.study.crossovers();
          (void)r.study.scalability();
          (void)r.study.bottlenecks();
        });
        layers.study_export_ms += time_ms([&] { csv = r.study.csv(); });
        layers.study_import_ms +=
            time_ms([&] { (void)study::StudyResult::from_csv(csv); });
        layers.study_lower_ms += time_ms([&] { (void)job.study.lower(scratch); });
      } else {
        layers.api_report_export_ms += time_ms([&] { csv = r.report.csv(); });
      }
      serve::JobOutcome outcome;
      outcome.state = r.state;
      outcome.is_study = r.is_study;
      outcome.title = job.is_study ? job.study.title() : job.plan.title();
      outcome.body_csv = csv;
      codec_ms += time_ms([&] {
        if (job.is_study) {
          (void)serve::decode_study(serve::encode_study(job.study));
        } else {
          (void)serve::decode_plan(serve::encode_plan(job.plan));
        }
        (void)serve::decode_outcome(serve::encode_outcome(outcome));
      });
      bytes += static_cast<double>(job.payload.size() + csv.size());
      ++jobs;
      if (job.fresh) {
        const auto& app = apps[job.app];
        programs.push_back({job.plan.program_source(), app.directive_overrides});
        const auto prog = compile_app(scratch, app, job.plan.program_source());
        for (int nprocs : suite::paper_system_sizes()) {
          layouts.push_back({prog, app.bindings(job.size), layout_options_for(app, nprocs)});
        }
      }
    }
  }
  if (jobs > 0) {
    layers.serve_codec_us = codec_ms * 1e3 / static_cast<double>(jobs);
    layers.serve_bytes_per_job = bytes / static_cast<double>(jobs);
  }
  probe_frontend(programs, layers);
  probe_layouts(layouts, layers);
  layers.emit(out);
  out.require(tracer.dropped() == 0, "tracer dropped spans");
  out.require(write_chrome_trace(trace_path(opt), spans), "cannot write " + trace_path(opt));
  return out;
}

}  // namespace perfbench
