// Observability tests: span ring bounds and Chrome trace export, metrics
// registry semantics and deterministic Prometheus exposition, RunReport
// JSON round trip, report byte-identity with tracing on vs off, the
// daemon's METRICS / STATS_STREAM endpoints and slow-job log, client
// reconnection across a daemon restart, and concurrent stats/metrics
// polling (CI runs this binary under ThreadSanitizer).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "serve/plan_codec.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "suite/suite.hpp"

namespace hpf90d {
namespace {

namespace fs = std::filesystem;

constexpr const char* kLaplace = R"f90(
program laplace
  parameter (n = 64)
  real u(n,n), unew(n,n)
!hpf$ template d(n,n)
!hpf$ align u(i,j) with d(i,j)
!hpf$ align unew(i,j) with d(i,j)
!hpf$ distribute d(block,*)
  forall (i = 2:n-1, j = 2:n-1) &
    unew(i,j) = 0.25*(u(i-1,j) + u(i+1,j) + u(i,j-1) + u(i,j+1))
  forall (i = 2:n-1, j = 2:n-1) u(i,j) = unew(i,j)
end program laplace
)f90";

std::string scratch_path(const std::string& tag) {
  static std::atomic<int> seq{0};
  return (fs::temp_directory_path() /
          ("hpf90d-obs-" + std::to_string(::getpid()) + "-" + tag + "-" +
           std::to_string(seq.fetch_add(1))))
      .string();
}

api::ExperimentPlan small_plan(const std::string& title = "obs test plan") {
  api::ExperimentPlan plan(title);
  plan.source(kLaplace)
      .nprocs({1, 2, 4})
      .add_variant("(block,*)", {"distribute d(block,*)"}, 1)
      .runs(2);
  return plan;
}

/// RAII daemon on a scratch socket (same shape as test_serve's fixture).
struct ServerFixture {
  explicit ServerFixture(serve::ServerOptions base = {}) : options(std::move(base)) {
    options.socket_path = scratch_path("sock") + ".sock";
    server = std::make_unique<serve::ExperimentServer>(options);
    server->start();
  }
  ~ServerFixture() {
    server->stop();
    std::error_code ec;
    fs::remove(options.socket_path, ec);
  }
  serve::ServerOptions options;
  std::unique_ptr<serve::ExperimentServer> server;
};

// --- spans and the tracer ring ------------------------------------------------

TEST(ObsSpan, NullSinkIsANoOp) {
  // the disabled path must be safe anywhere, at any nesting depth
  const obs::Span outer(nullptr, obs::Phase::Compile, 7);
  const obs::Span inner(nullptr, obs::Phase::LockstepWindow);
  SUCCEED();
}

TEST(ObsSpan, RecordsPhaseArgAndDuration) {
  obs::Tracer tracer(16);
  {
    obs::Span span(&tracer, obs::Phase::LayoutBuild, 3);
    span.set_arg(9);
  }
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].phase, obs::Phase::LayoutBuild);
  EXPECT_EQ(spans[0].arg, 9u);
  EXPECT_GT(spans[0].start_ns, 0u);
  EXPECT_NE(spans[0].thread, 0u);
  EXPECT_EQ(tracer.recorded(), 1u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(ObsSpan, SimulatorPhasesHaveStableNames) {
  EXPECT_STREQ(obs::phase_name(obs::Phase::SimValuePass), "sim_value_pass");
  EXPECT_STREQ(obs::phase_name(obs::Phase::SimRetime), "sim_retime");
  EXPECT_EQ(obs::kPhaseCount, static_cast<std::size_t>(obs::Phase::SimRetime) + 1);
}

TEST(ObsTracer, RingOverwritesOldestAtFixedCapacity) {
  obs::Tracer tracer(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    tracer.record({obs::Phase::Compile, 1, i + 1, 1, i});
  }
  EXPECT_EQ(tracer.recorded(), 20u);
  EXPECT_EQ(tracer.dropped(), 12u);
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 8u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].arg, 12u + i) << "ring must retain the newest, oldest first";
  }
}

TEST(ObsTracer, ChromeTraceJsonListsSpansWithPhaseNames) {
  obs::Tracer tracer(8);
  tracer.record({obs::Phase::LockstepWindow, 5, 2000, 3000, 64});
  tracer.record({obs::Phase::MeasureBatch, 5, 6000, 1000, 2});
  const std::string json = tracer.chrome_trace_json();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"lockstep_window\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"measure_batch\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // microsecond timebase: 2000ns -> ts 2.000, 3000ns -> dur 3.000
  EXPECT_NE(json.find("\"ts\":2.000,"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":3.000,"), std::string::npos);
  // deterministic given equal ring contents
  EXPECT_EQ(json, tracer.chrome_trace_json());
}

TEST(ObsTracer, ConcurrentRecordingStaysBounded) {
  obs::Tracer tracer(64);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&tracer, t] {
      for (std::uint64_t i = 0; i < 500; ++i) {
        const obs::Span span(&tracer, obs::Phase::MeasureBatch,
                             static_cast<std::uint64_t>(t) * 1000 + i);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tracer.recorded(), 2000u);
  EXPECT_EQ(tracer.snapshot().size(), 64u);
  EXPECT_EQ(tracer.dropped(), 2000u - 64u);
}

// --- metrics registry ---------------------------------------------------------

TEST(ObsMetrics, InstrumentsHoldValues) {
  obs::Registry reg;
  auto& c = reg.counter("hpf90d_test_total", "a counter");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  auto& g = reg.gauge("hpf90d_test_depth", "a gauge");
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  auto& h = reg.histogram("hpf90d_test_seconds", "a histogram", {0.1, 1.0, 10.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 55.55);
  EXPECT_EQ(h.bucket(0), 1u);  // cumulative: <= 0.1
  EXPECT_EQ(h.bucket(1), 2u);  // <= 1.0
  EXPECT_EQ(h.bucket(2), 3u);  // <= 10.0 (50.0 only in +Inf)
}

TEST(ObsMetrics, RegistrationIsIdempotentAndKindStrict) {
  obs::Registry reg;
  auto& a = reg.counter("hpf90d_jobs_total", "jobs");
  auto& b = reg.counter("hpf90d_jobs_total", "different help text");
  EXPECT_EQ(&a, &b) << "same name+kind must return the same instrument";
  EXPECT_THROW((void)reg.gauge("hpf90d_jobs_total", "oops"), std::logic_error);
  EXPECT_THROW((void)reg.histogram("hpf90d_jobs_total", "oops", {1.0}),
               std::logic_error);
}

TEST(ObsMetrics, PrometheusExpositionIsDeterministicAndSorted) {
  obs::Registry reg;
  // registered out of name order on purpose: exposition sorts
  reg.gauge("hpf90d_zz_depth", "last").set(3);
  reg.counter("hpf90d_aa_total", "first").add(7);
  auto& h = reg.histogram("hpf90d_mm_seconds", "middle", {0.5, 2.0});
  h.observe(0.25);
  h.observe(1.0);

  const std::string text = reg.prometheus();
  EXPECT_EQ(text, reg.prometheus()) << "equal state must render byte-identically";

  EXPECT_NE(text.find("# HELP hpf90d_aa_total first\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hpf90d_aa_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("hpf90d_aa_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hpf90d_mm_seconds histogram\n"), std::string::npos);
  EXPECT_NE(text.find("hpf90d_mm_seconds_bucket{le=\"0.5\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("hpf90d_mm_seconds_bucket{le=\"2\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("hpf90d_mm_seconds_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("hpf90d_mm_seconds_sum 1.25\n"), std::string::npos);
  EXPECT_NE(text.find("hpf90d_mm_seconds_count 2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hpf90d_zz_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("hpf90d_zz_depth 3\n"), std::string::npos);
  EXPECT_LT(text.find("hpf90d_aa_total"), text.find("hpf90d_mm_seconds"));
  EXPECT_LT(text.find("hpf90d_mm_seconds"), text.find("hpf90d_zz_depth"));
}

TEST(ObsMetrics, LabeledChildrenRenderSortedAndCanonicalized) {
  obs::Registry reg;
  // the unlabeled sample and labeled children coexist in one family
  reg.counter("hpf90d_jobs", "jobs").add(10);
  reg.counter("hpf90d_jobs", "jobs", {{"tenant", "beta"}, {"state", "done"}}).add(2);
  reg.counter("hpf90d_jobs", "jobs", {{"tenant", "alpha"}, {"state", "done"}}).add(3);
  // label order in the call is irrelevant: canonicalization sorts by key,
  // so this resolves to the existing {state,tenant} child
  reg.counter("hpf90d_jobs", "jobs", {{"state", "done"}, {"tenant", "beta"}}).add(1);
  // values with quotes/backslashes/newlines are escaped, not corrupted
  reg.gauge("hpf90d_weird", "w", {{"k", "a\"b\\c\nd"}}).set(1);

  const std::string text = reg.prometheus();
  EXPECT_EQ(text, reg.prometheus());
  EXPECT_NE(text.find("hpf90d_jobs 10\n"), std::string::npos);
  EXPECT_NE(text.find("hpf90d_jobs{state=\"done\",tenant=\"alpha\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("hpf90d_jobs{state=\"done\",tenant=\"beta\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("hpf90d_weird{k=\"a\\\"b\\\\c\\nd\"} 1\n"), std::string::npos);
  // one HELP/TYPE block per family, unlabeled sample first, children in
  // label-block order
  EXPECT_EQ(text.find("# TYPE hpf90d_jobs counter"),
            text.rfind("# TYPE hpf90d_jobs counter"));
  EXPECT_LT(text.find("hpf90d_jobs 10"), text.find("{state=\"done\",tenant=\"alpha\"}"));
  EXPECT_LT(text.find("tenant=\"alpha\""), text.find("tenant=\"beta\""));
  // kind strictness applies to the family, labeled or not
  EXPECT_THROW((void)reg.gauge("hpf90d_jobs", "oops", {{"tenant", "x"}}),
               std::logic_error);
}

TEST(ObsMetrics, LabelCardinalityCollapsesIntoOverflowChild) {
  obs::Registry reg;
  for (std::size_t i = 0; i < obs::Registry::kMaxChildren + 50; ++i) {
    std::string tenant = "t";
    tenant += std::to_string(i);
    reg.counter("hpf90d_fan", "f", {{"tenant", tenant}}).add();
  }
  // the cap holds: kMaxChildren distinct children plus one overflow child
  // absorbing everything past it
  const std::string text = reg.prometheus();
  std::size_t samples = 0;
  for (std::size_t pos = text.find("hpf90d_fan{"); pos != std::string::npos;
       pos = text.find("hpf90d_fan{", pos + 1)) {
    ++samples;
  }
  EXPECT_EQ(samples, obs::Registry::kMaxChildren + 1);
  EXPECT_NE(text.find("hpf90d_fan{tenant=\"_overflow\"} 50\n"), std::string::npos);
  // a label set that landed before the cap still resolves to its own child
  reg.counter("hpf90d_fan", "f", {{"tenant", "t0"}}).add();
  EXPECT_NE(reg.prometheus().find("hpf90d_fan{tenant=\"t0\"} 2\n"), std::string::npos);
}

TEST(ObsMetrics, ConcurrentUpdatesAreExact) {
  obs::Registry reg;
  auto& c = reg.counter("hpf90d_c_total", "c");
  auto& h = reg.histogram("hpf90d_h_seconds", "h", {1.0});
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        c.add();
        h.observe(0.5);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), 40000u);
  EXPECT_EQ(h.count(), 40000u);
  EXPECT_DOUBLE_EQ(h.sum(), 20000.0);
}

// --- RunReport JSON -----------------------------------------------------------

api::RunReport sample_report() {
  api::RunReport report;
  report.title = "json \"quoted\"\ttitle";
  report.wall_seconds = 0.03125;
  report.cache = {3, 1, 10, 2, 1, 1, 8};
  report.batch.batched_points = 5;
  report.batch.scalar_points = 1;
  report.batch.replayed_points = 2;
  report.batch.ir_visits = 400;
  report.batch.lane_visits = 1600;
  report.batch.evicted_lanes = 3;
  report.batch.simd_stripes = 200;
  api::RunRecord r;
  r.machine = "ipsc860";
  r.variant = "(block,*)";
  r.problem = "n=64";
  r.nprocs = 4;
  r.measured = true;
  r.comparison = {0.125, 0.13, 0.12, 0.14, 0.005};
  r.phases = {0.08, 0.03, 0.01, 0.005};
  report.records.push_back(r);
  r.machine = "paragon";
  r.nprocs = 8;
  r.measured = false;
  r.comparison = {0.25, 0, 0, 0, 0};
  r.phases = {0.2, 0.04, 0.01, 0};
  report.records.push_back(r);
  return report;
}

TEST(RunReportJson, RoundTripsEveryField) {
  const api::RunReport report = sample_report();
  const std::string text = report.json();
  const api::RunReport back = api::RunReport::from_json(text);

  EXPECT_EQ(back.title, report.title);
  EXPECT_EQ(back.wall_seconds, report.wall_seconds);
  EXPECT_EQ(back.cache.compile_hits, 3u);
  EXPECT_EQ(back.cache.layout_spill_hits, 1u);
  EXPECT_EQ(back.cache.layout_capacity, 8u);
  EXPECT_EQ(back.batch.batched_points, 5u);
  EXPECT_EQ(back.batch.ir_visits, 400u);
  EXPECT_EQ(back.batch.lane_visits, 1600u);
  EXPECT_EQ(back.batch.simd_stripes, 200u);
  EXPECT_EQ(back.batch.scalar_points, 1u);
  EXPECT_EQ(back.batch.replayed_points, 2u);
  EXPECT_EQ(back.batch.evicted_lanes, 3u);
  ASSERT_EQ(back.records.size(), 2u);
  EXPECT_EQ(back.records[0].machine, "ipsc860");
  EXPECT_EQ(back.records[0].variant, "(block,*)");
  EXPECT_EQ(back.records[0].nprocs, 4);
  EXPECT_TRUE(back.records[0].measured);
  EXPECT_EQ(back.records[0].comparison.estimated, 0.125);
  EXPECT_EQ(back.records[0].comparison.measured_stddev, 0.005);
  EXPECT_EQ(back.records[0].phases.comp, 0.08);
  EXPECT_EQ(back.records[0].phases.wait, 0.005);
  EXPECT_FALSE(back.records[1].measured);
  EXPECT_EQ(back.records[1].machine, "paragon");

  // json ∘ from_json is a fixpoint on emitted documents
  EXPECT_EQ(back.json(), text);
  // and the batch telemetry survives (unlike the CSV export, which
  // deliberately excludes it)
  EXPECT_EQ(api::RunReport::from_csv(report.csv()).batch.ir_visits, 0u);
}

TEST(RunReportJson, RoundTripsAMeasuredRunsTapeCounters) {
  // two problems over three processor counts: two functional passes, and
  // four re-timings of their tapes
  const auto& app = suite::app("pi");
  api::ExperimentPlan plan("tape counters");
  plan.source(app.source).nprocs({1, 2, 4}).problems_from({16, 64}, app.bindings).runs(2);
  api::Session session;
  const api::RunReport report = session.run(plan);
  ASSERT_EQ(report.cache.value_tape_misses, 2u);
  ASSERT_EQ(report.cache.value_tape_hits, 4u);
  ASSERT_GT(report.cache.value_tape_bytes, 0u);

  const std::string text = report.json();
  const api::RunReport back = api::RunReport::from_json(text);
  EXPECT_EQ(back.cache.value_tape_hits, report.cache.value_tape_hits);
  EXPECT_EQ(back.cache.value_tape_misses, report.cache.value_tape_misses);
  EXPECT_EQ(back.cache.value_tape_evictions, report.cache.value_tape_evictions);
  EXPECT_EQ(back.cache.value_tape_bytes, report.cache.value_tape_bytes);
  EXPECT_EQ(back.json(), text);
  // the ascii footer reports the tape counters, so it survives too
  EXPECT_EQ(back.ascii(), report.ascii());
}

TEST(RunReportJson, EmptyReportRoundTrips) {
  const api::RunReport empty;
  const api::RunReport back = api::RunReport::from_json(empty.json());
  EXPECT_TRUE(back.records.empty());
  EXPECT_EQ(back.json(), empty.json());
}

TEST(RunReportJson, MalformedInputThrows) {
  const std::string good = sample_report().json();
  EXPECT_THROW((void)api::RunReport::from_json(""), std::invalid_argument);
  EXPECT_THROW((void)api::RunReport::from_json("not json"), std::invalid_argument);
  // truncation anywhere must throw, never misparse
  for (std::size_t n = 1; n < good.size() - 1; n += 23) {
    EXPECT_THROW((void)api::RunReport::from_json(good.substr(0, n)),
                 std::invalid_argument)
        << "prefix length " << n;
  }
  // trailing bytes are rejected
  EXPECT_THROW((void)api::RunReport::from_json(good + "x"), std::invalid_argument);
  // schema drift (a renamed key) is a hard error, not a zero-fill
  std::string renamed = good;
  renamed.replace(renamed.find("\"wall_seconds\""), 14, "\"wall_secondz\"");
  EXPECT_THROW((void)api::RunReport::from_json(renamed), std::invalid_argument);
  // nprocs is a strict integer in int range: no double conversion of 1e300
  // (undefined behaviour), no fraction
  const std::size_t at = good.find("\"nprocs\":") + 9;
  const std::size_t len = good.find(',', at) - at;
  for (const char* bad : {"1e300", "99999999999", "2.5"}) {
    std::string text = good;
    text.replace(at, len, bad);
    EXPECT_THROW((void)api::RunReport::from_json(text), std::invalid_argument) << bad;
  }
}

// --- tracing must not perturb results -----------------------------------------

TEST(ObsSession, TracedRunReportIsByteIdenticalToUntraced) {
  const api::ExperimentPlan plan = small_plan("trace identity");

  api::Session plain_session;
  const api::RunReport plain = plain_session.run(plan);

  obs::Tracer tracer;
  obs::Registry registry;
  api::Session traced_session;
  traced_session.set_trace_sink(&tracer);
  api::RunOptions options;
  options.metrics = &registry;
  api::RunReport traced = traced_session.run(plan, options);

  // wall_seconds is host wall time — nondeterministic between any two
  // runs, traced or not — so normalize it; everything else must match.
  api::RunReport plain_n = plain;
  plain_n.wall_seconds = 0;
  traced.wall_seconds = 0;
  EXPECT_EQ(traced.ascii(), plain_n.ascii());
  EXPECT_EQ(traced.csv(), plain_n.csv());
  EXPECT_EQ(traced.json(), plain_n.json());

  // ...but the side channels saw the run
  EXPECT_GT(tracer.recorded(), 0u);
  const std::string text = registry.prometheus();
  EXPECT_NE(text.find("hpf90d_run_points_total 3\n"), std::string::npos) << text;
  bool saw_compile = false;
  for (const auto& span : tracer.snapshot()) {
    saw_compile = saw_compile || span.phase == obs::Phase::Compile;
  }
  EXPECT_TRUE(saw_compile);
}

/// The spans of `phase`, in recording order.
std::vector<obs::SpanRecord> spans_of(const obs::Tracer& tracer, obs::Phase phase) {
  std::vector<obs::SpanRecord> out;
  for (const auto& span : tracer.snapshot()) {
    if (span.phase == phase) out.push_back(span);
  }
  return out;
}

bool nested_in(const obs::SpanRecord& inner, const obs::SpanRecord& outer) {
  return inner.thread == outer.thread && inner.start_ns >= outer.start_ns &&
         inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns;
}

// A measured point records its functional pass (on a value-tape miss) and
// its re-timing inside the MeasureBatch span, whether it comes from
// Session::run or Session::measure; a later point of the same (program,
// problem) records no pass.
TEST(ObsSession, MeasuredPointNestsValuePassAndRetime) {
  api::ExperimentPlan plan("one measured point");
  plan.source(kLaplace)
      .nprocs({2})
      .add_variant("(block,*)", {"distribute d(block,*)"}, 1)
      .runs(3);
  // one ring per phase below, each outliving the sessions that write it
  obs::Tracer tracer, retimed, measured;
  api::Session session;
  session.set_trace_sink(&tracer);
  api::RunOptions options;
  options.workers = 1;
  const api::RunReport first = session.run(plan, options);

  const auto batches = spans_of(tracer, obs::Phase::MeasureBatch);
  const auto passes = spans_of(tracer, obs::Phase::SimValuePass);
  const auto retimes = spans_of(tracer, obs::Phase::SimRetime);
  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(passes.size(), 1u);
  ASSERT_EQ(retimes.size(), 1u);
  EXPECT_TRUE(nested_in(passes[0], batches[0]));
  EXPECT_TRUE(nested_in(retimes[0], batches[0]));
  EXPECT_LE(passes[0].start_ns + passes[0].dur_ns, retimes[0].start_ns);
  EXPECT_EQ(retimes[0].arg, 3u);
  EXPECT_GT(passes[0].arg, 0u);
  EXPECT_EQ(first.cache.value_tape_misses, 1u);
  EXPECT_EQ(first.cache.value_tape_hits, 0u);
  EXPECT_EQ(first.cache.value_tape_bytes, passes[0].arg);

  // another processor count of the same problem re-times the shared tape
  session.set_trace_sink(&retimed);
  plan.nprocs({4});
  const api::RunReport second = session.run(plan, options);
  EXPECT_EQ(spans_of(retimed, obs::Phase::MeasureBatch).size(), 1u);
  EXPECT_TRUE(spans_of(retimed, obs::Phase::SimValuePass).empty());
  EXPECT_EQ(spans_of(retimed, obs::Phase::SimRetime).size(), 1u);
  EXPECT_EQ(second.cache.value_tape_misses, 0u);
  EXPECT_EQ(second.cache.value_tape_hits, 1u);

  // Session::measure records the same nesting
  api::Session measuring;
  measuring.set_trace_sink(&measured);
  api::RunConfig cfg;
  cfg.nprocs = 2;
  cfg.runs = 2;
  (void)measuring.measure(measuring.compile(kLaplace), cfg);
  const auto m_batches = spans_of(measured, obs::Phase::MeasureBatch);
  const auto m_passes = spans_of(measured, obs::Phase::SimValuePass);
  const auto m_retimes = spans_of(measured, obs::Phase::SimRetime);
  ASSERT_EQ(m_batches.size(), 1u);
  ASSERT_EQ(m_passes.size(), 1u);
  ASSERT_EQ(m_retimes.size(), 1u);
  EXPECT_TRUE(nested_in(m_passes[0], m_batches[0]));
  EXPECT_TRUE(nested_in(m_retimes[0], m_batches[0]));
  EXPECT_EQ(m_retimes[0].arg, 2u);
  measuring.set_trace_sink(nullptr);
}

TEST(ObsSession, RunScopedSinkOverridesSessionSink) {
  obs::Tracer session_ring(64);
  obs::Tracer run_ring(64);
  api::Session session;
  session.set_trace_sink(&session_ring);
  api::RunOptions options;
  options.trace = &run_ring;
  (void)session.run(small_plan("override"), options);
  EXPECT_GT(run_ring.recorded(), 0u);
}

// --- daemon telemetry ---------------------------------------------------------

TEST(ServeObs, MetricsEndpointServesPrometheusText) {
  serve::ServerOptions base;
  base.slow_job_ms = 1;
  ServerFixture fixture(base);
  serve::ServeClient client(fixture.options.socket_path, "tenant-a");
  client.connect();
  // at n = 256 the sweep takes several milliseconds on any host (the
  // default n = 64 can finish inside the 1 ms threshold)
  api::ExperimentPlan plan = small_plan();
  front::Bindings n256;
  n256.set_int("n", 256);
  plan.add_problem("n=256", n256);
  const std::uint64_t id = client.submit(plan);
  ASSERT_TRUE(client.wait(id).ok());

  const std::string text = client.metrics();
  EXPECT_NE(text.find("# TYPE hpf90d_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("hpf90d_queue_depth 0\n"), std::string::npos);
  EXPECT_NE(text.find("hpf90d_jobs_done 1\n"), std::string::npos);
  EXPECT_NE(text.find("hpf90d_lockstep_occupancy"), std::string::npos);
  EXPECT_NE(text.find("hpf90d_spill_hit_ratio"), std::string::npos);
  EXPECT_NE(text.find("hpf90d_job_wall_seconds_count 1\n"), std::string::npos);
  // per-tenant terminal-state counters render as labeled children
  EXPECT_NE(text.find("hpf90d_tenant_jobs{state=\"done\",tenant=\"tenant-a\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("hpf90d_lanes_evicted"), std::string::npos);
  // the plan measures one problem at three processor counts: one
  // functional pass, re-timed twice
  EXPECT_NE(text.find("hpf90d_value_tape_misses 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("hpf90d_value_tape_hits 2\n"), std::string::npos) << text;
  EXPECT_NE(text.find("hpf90d_value_tape_evictions 0\n"), std::string::npos) << text;
  EXPECT_NE(text.find("hpf90d_value_tape_bytes "), std::string::npos) << text;
  // idle daemon state renders identically on a second scrape
  EXPECT_EQ(client.metrics(), text);

  // the daemon's own tracer saw the job and the queue wait
  const auto spans = fixture.server->tracer().snapshot();
  bool saw_execute = false, saw_wait = false;
  for (const auto& span : spans) {
    saw_execute = saw_execute || span.phase == obs::Phase::JobExecute;
    saw_wait = saw_wait || span.phase == obs::Phase::QueueWait;
  }
  EXPECT_TRUE(saw_execute);
  EXPECT_TRUE(saw_wait);

  // slow-job count: threshold 1ms catches the sweep
  const serve::ServerStats stats = client.stats();
  EXPECT_EQ(stats.slow_jobs, 1u);
  EXPECT_NE(client.metrics().find("hpf90d_slow_jobs 1\n"), std::string::npos);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.jobs_running, 0u);
}

TEST(ServeObs, StatsStreamDeliversRequestedSnapshots) {
  ServerFixture fixture;
  serve::ServeClient client(fixture.options.socket_path, "tenant-s");
  client.connect();
  const auto snapshots = client.stats_stream(3, 5);
  ASSERT_EQ(snapshots.size(), 3u);
  for (const auto& s : snapshots) EXPECT_EQ(s.jobs_submitted, 0u);
  // bounds are enforced server-side
  EXPECT_THROW((void)client.stats_stream(0, 5), std::runtime_error);
  EXPECT_THROW((void)client.stats_stream(5000, 5), std::runtime_error);
  EXPECT_THROW((void)client.stats_stream(2, 60000), std::runtime_error);
  // the connection survives a rejected request
  EXPECT_EQ(client.stats_stream(1, 0).size(), 1u);
}

TEST(ServeObs, SpillDirUsageIsReported) {
  const std::string dir = scratch_path("artifacts");
  {
    serve::ServerOptions base;
    ServerFixture fixture{[&] {
      serve::ServerOptions o = base;
      o.artifact_dir = dir;
      return o;
    }()};
    serve::ServeClient client(fixture.options.socket_path, "tenant-d");
    client.connect();
    const std::uint64_t id = client.submit(small_plan());
    ASSERT_TRUE(client.wait(id).ok());
    const serve::ServerStats stats = client.stats();
    EXPECT_GT(stats.spill_dir_files, 0u);
    EXPECT_GT(stats.spill_dir_bytes, 0u);
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(ServeObs, ClientReconnectsAcrossDaemonRestart) {
  serve::ServerOptions options;
  options.socket_path = scratch_path("sock") + ".sock";
  auto server = std::make_unique<serve::ExperimentServer>(options);
  server->start();

  serve::ServeClient client(options.socket_path, "tenant-r");
  client.set_retry({5, 10});
  client.connect();
  const std::uint64_t id = client.submit(small_plan());
  ASSERT_TRUE(client.wait(id).ok());

  // kill the daemon; the client's socket is now dead
  server->stop();
  server = std::make_unique<serve::ExperimentServer>(options);
  server->start();

  // retrying requests transparently re-handshake on a fresh socket
  const serve::ServerStats stats = client.stats();
  EXPECT_EQ(stats.jobs_submitted, 0u) << "restarted daemon starts from zero";
  const std::uint64_t id2 = client.submit(small_plan());
  EXPECT_TRUE(client.wait(id2).ok());

  server->stop();
  std::error_code ec;
  fs::remove(options.socket_path, ec);
}

TEST(ServeObs, ConnectRetriesUntilTheDaemonIsUp) {
  serve::ServerOptions options;
  options.socket_path = scratch_path("sock") + ".sock";
  serve::ExperimentServer server(options);

  std::thread late_start([&server] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server.start();
  });
  serve::ServeClient client(options.socket_path, "tenant-l");
  client.set_retry({8, 40});
  client.connect();  // throws if every attempt fails
  EXPECT_TRUE(client.connected());
  late_start.join();
  server.stop();
  std::error_code ec;
  fs::remove(options.socket_path, ec);

  // fail-fast policy still fails fast when nothing ever listens
  serve::ServeClient lonely(scratch_path("nowhere") + ".sock", "tenant-n");
  lonely.set_retry({1, 1});
  EXPECT_THROW(lonely.connect(), serve::WireError);
}

TEST(ServeObs, ConcurrentStatsAndMetricsPollsAreRaceFree) {
  // TSan target: pollers scrape stats/metrics/trace snapshots while jobs
  // execute and the tracer ring wraps
  serve::ServerOptions base;
  base.executors = 2;
  base.trace_capacity = 32;  // force ring wrap-around under load
  base.slow_job_ms = 1;
  ServerFixture fixture(base);

  std::atomic<bool> done{false};
  std::vector<std::thread> pollers;
  for (int t = 0; t < 3; ++t) {
    pollers.emplace_back([&fixture, &done] {
      serve::ServeClient poll(fixture.options.socket_path, "poller");
      poll.connect();
      while (!done.load()) {
        (void)poll.stats();
        (void)poll.metrics();
        (void)fixture.server->tracer().snapshot();
      }
    });
  }

  std::vector<std::thread> submitters;
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&fixture, t] {
      serve::ServeClient client(fixture.options.socket_path,
                                "tenant-" + std::to_string(t));
      client.connect();
      for (int i = 0; i < 3; ++i) {
        const std::uint64_t id =
            client.submit(small_plan("plan " + std::to_string(t * 10 + i)));
        ASSERT_TRUE(client.wait(id).ok());
      }
    });
  }
  for (auto& th : submitters) th.join();
  done.store(true);
  for (auto& th : pollers) th.join();

  const serve::ServerStats stats = fixture.server->stats();
  EXPECT_EQ(stats.jobs_done, 6u);
  EXPECT_GT(fixture.server->tracer().recorded(), 0u);
}

}  // namespace
}  // namespace hpf90d
