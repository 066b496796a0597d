// Experiment-session API tests: machine registry lookup (including the
// unknown-name error path), compilation/layout cache behaviour across an
// ExperimentPlan sweep, content-addressed layout sharing with externally
// owned programs, worker-pool determinism, and RunReport CSV export.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "machine/ipsc860.hpp"
#include "machine/whatif.hpp"
#include "sim/simulator.hpp"
#include "suite/suite.hpp"
#include "support/diagnostics.hpp"

namespace hpf90d {
namespace {

// --- machine registry ---------------------------------------------------------

TEST(MachineRegistry, BuiltinsRegistered) {
  api::MachineRegistry registry;
  EXPECT_TRUE(registry.contains("ipsc860"));
  EXPECT_TRUE(registry.contains("paragon"));
  EXPECT_TRUE(registry.contains("cluster"));
  EXPECT_TRUE(registry.contains("fattree"));
  EXPECT_TRUE(registry.contains("whatif"));
  EXPECT_EQ(registry.names(), (std::vector<std::string>{"cluster", "fattree",
                                                        "ipsc860", "paragon", "whatif"}));
  EXPECT_FALSE(registry.description("ipsc860").empty());

  const machine::MachineModel& cube = registry.get("ipsc860", 8);
  EXPECT_EQ(cube.max_nodes, 8);
  // models are cached per (name, nodes): same reference back
  EXPECT_EQ(&cube, &registry.get("ipsc860", 8));
  EXPECT_NE(&cube, &registry.get("ipsc860", 4));
}

TEST(MachineRegistry, UnknownNameListsRegistered) {
  api::MachineRegistry registry;
  EXPECT_FALSE(registry.contains("sp2"));
  try {
    (void)registry.get("sp2");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("sp2"), std::string::npos);
    EXPECT_NE(msg.find("ipsc860"), std::string::npos);
    EXPECT_NE(msg.find("cluster"), std::string::npos);
  }
  EXPECT_THROW((void)registry.get("ipsc860", 0), std::invalid_argument);
}

TEST(MachineRegistry, CustomMachineRegistersAndReplaces) {
  api::MachineRegistry registry;
  registry.register_machine(
      "slowcube", [](int nodes) {
        machine::MachineModel m = machine::make_ipsc860(nodes);
        return m;
      },
      "a re-badged cube");
  EXPECT_TRUE(registry.contains("slowcube"));
  EXPECT_EQ(registry.description("slowcube"), "a re-badged cube");
  EXPECT_EQ(registry.get("slowcube", 4).max_nodes, 4);
  // re-registering drops cached instances built from the old factory
  registry.register_machine("slowcube",
                            [](int nodes) { return machine::make_ipsc860(2 * nodes); });
  EXPECT_EQ(registry.get("slowcube", 4).max_nodes, 8);
}

TEST(MachineRegistry, FactoryMayComposeFromRegistry) {
  // a user factory may call back into the registry (the lock is recursive)
  api::MachineRegistry registry;
  registry.register_machine("composed", [&registry](int nodes) {
    machine::MachineModel m = registry.get("ipsc860", nodes);
    m.sag.replace_unit(0, machine::SAU{});
    return m;
  });
  EXPECT_EQ(registry.get("composed", 4).max_nodes, 4);
}

TEST(MachineRegistry, WhatIfKnobsScaleTheCube) {
  api::MachineRegistry registry;
  // unity knobs reproduce the calibrated cube's parameters
  const auto& stock = registry.get("ipsc860", 4);
  const auto& unity = registry.get("whatif", 4);
  EXPECT_DOUBLE_EQ(unity.node().comm.latency_short, stock.node().comm.latency_short);
  EXPECT_DOUBLE_EQ(unity.node().proc.t_fadd, stock.node().proc.t_fadd);

  machine::WhatIfParams params;
  params.latency_scale = 0.25;
  params.bandwidth_scale = 2.0;
  params.cpu_scale = 4.0;
  registry.register_whatif("dream_cube", params, "what the cube could be");
  const auto& dream = registry.get("dream_cube", 4);
  EXPECT_DOUBLE_EQ(dream.node().comm.latency_short,
                   0.25 * stock.node().comm.latency_short);
  EXPECT_DOUBLE_EQ(dream.node().comm.per_byte, stock.node().comm.per_byte / 2.0);
  EXPECT_DOUBLE_EQ(dream.node().proc.t_fadd, stock.node().proc.t_fadd / 4.0);

  machine::WhatIfParams bad;
  bad.latency_scale = 0;
  EXPECT_THROW(registry.register_whatif("bad", bad), std::invalid_argument);
}

TEST(MachineRegistry, WhatIfSweepTellsTheDesignStory) {
  // paper section 7: evaluate a design change by interpretation alone — a
  // cube with 4x the communication latency must predict slower comm-bound
  // runs, and a latency-free-ish cube faster ones.
  api::Session session;
  machine::WhatIfParams slow;
  slow.latency_scale = 4.0;
  session.machines().register_whatif("slow_net", slow);
  machine::WhatIfParams fast;
  fast.latency_scale = 0.1;
  session.machines().register_whatif("fast_net", fast);

  const auto& app = suite::app("laplace_bx");
  api::ExperimentPlan plan("what-if latency");
  plan.source(app.source)
      .machines({"fast_net", "ipsc860", "slow_net"})
      .nprocs({4})
      .add_variant(app.name, app.directive_overrides)
      .add_problem("n=64", app.bindings(64))
      .runs(0);
  const api::RunReport report = session.run(plan);
  ASSERT_EQ(report.records.size(), 3u);
  const double fast_t = report.records[0].comparison.estimated;
  const double stock_t = report.records[1].comparison.estimated;
  const double slow_t = report.records[2].comparison.estimated;
  EXPECT_LT(fast_t, stock_t);
  EXPECT_LT(stock_t, slow_t);
}

TEST(MachineRegistry, ParagonOutrunsTheCube) {
  // The Paragon XP/S builtin: same interpretation methodology, next-
  // generation SAG. Faster nodes and an order of magnitude more link
  // bandwidth must predict a faster comm-bound Laplace run than the cube.
  api::Session session;
  const auto& app = suite::app("laplace_bx");
  api::ExperimentPlan plan("generational comparison");
  plan.source(app.source)
      .machines({"ipsc860", "paragon"})
      .nprocs({4})
      .add_variant(app.name, app.directive_overrides)
      .add_problem("n=64", app.bindings(64))
      .runs(0);
  const api::RunReport report = session.run(plan);
  ASSERT_EQ(report.records.size(), 2u);
  const double cube_t = report.records[0].comparison.estimated;
  const double paragon_t = report.records[1].comparison.estimated;
  EXPECT_GT(paragon_t, 0.0);
  EXPECT_LT(paragon_t, cube_t);
}

// --- session caches -----------------------------------------------------------

TEST(Session, CompilationIsMemoized) {
  api::Session session;
  const auto& app = suite::app("pi");
  const auto a = session.compile(app.source);
  const auto b = session.compile(app.source);
  EXPECT_EQ(a.get(), b.get());  // the same shared program
  EXPECT_EQ(session.cache_stats().compile_misses, 1u);
  EXPECT_EQ(session.cache_stats().compile_hits, 1u);

  // different compiler options are a different cache entry
  compiler::CompilerOptions copts;
  copts.message_vectorization = false;
  const auto c = session.compile(app.source, copts);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(session.cache_stats().compile_misses, 2u);

  // so are directive overrides
  const auto& lap = suite::app("laplace_bx");
  const auto d = session.compile_with_directives(lap.source, lap.directive_overrides);
  const auto e = session.compile_with_directives(lap.source, lap.directive_overrides);
  EXPECT_EQ(d.get(), e.get());
  EXPECT_EQ(session.cached_programs(), 3u);
}

TEST(Session, ConcurrentCompilesOfOneSourceBuildOnce) {
  api::Session session;
  const std::string& source = suite::app("laplace_bb").source;
  constexpr int kThreads = 8;
  std::vector<const compiler::CompiledProgram*> got(kThreads, nullptr);
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      got[t] = session.compile(source).get();
    });
  }
  go.store(true);
  for (auto& th : pool) th.join();
  for (const auto* p : got) EXPECT_EQ(p, got[0]);
  EXPECT_NE(got[0], nullptr);
  EXPECT_EQ(session.cache_stats().compile_misses, 1u);
  EXPECT_EQ(session.cache_stats().compile_hits, 7u);
  EXPECT_EQ(session.cached_programs(), 1u);
}

TEST(Session, FailedCompileIsRetriedAndNotKept) {
  api::Session session;
  const std::string bad = "program t\n  x = (1 +\nend program t\n";
  EXPECT_THROW((void)session.compile(bad), support::CompileError);
  EXPECT_THROW((void)session.compile(bad), support::CompileError);
  EXPECT_EQ(session.cache_stats().compile_misses, 2u);
  EXPECT_EQ(session.cache_stats().compile_hits, 0u);
  EXPECT_EQ(session.cached_programs(), 0u);
}

TEST(Session, UnresolvedCriticalVariableFailsEveryRunAlike) {
  // k is computed from array data and bounds a forall, so no plan without
  // a binding for it can be priced
  api::ExperimentPlan plan("critical");
  plan.source(R"f90(
program t
  parameter (n = 32)
  real v(n)
  integer k
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  k = int(sum(v))
  forall (i = 1:k) v(i) = 0.0
end program t
)f90")
      .nprocs({1, 2})
      .runs(0);
  api::Session session;
  std::vector<std::string> messages;
  std::vector<support::SourceLoc> locs;
  for (int i = 0; i < 2; ++i) {
    try {
      (void)session.run(plan);
      ADD_FAILURE() << "run " << i << " succeeded";
    } catch (const support::CompileError& e) {
      messages.emplace_back(e.what());
      locs.push_back(e.loc());
    }
  }
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_NE(messages[0].find("unresolved critical variables: k"), std::string::npos)
      << messages[0];
  EXPECT_EQ(messages[1], messages[0]);
  EXPECT_EQ(locs[1].line, locs[0].line);
  EXPECT_EQ(locs[1].column, locs[0].column);
}

// Integer `/` and `mod` that would trap in hardware (a zero divisor, or
// LLONG_MIN / -1) fail the evaluation instead of the process: prediction
// completes, and measurement raises a located compile error.
TEST(Session, TrappingIntegerDivisionFailsTheEvaluationNotTheProcess) {
  const char* const bodies[] = {
      "k = 0\nm = 7 / k",
      "k = 0\nm = mod(7, k)",
      "k = -1\nm = (-(2**62) - 2**62) / k",
      "k = -1\nm = mod(-(2**62) - 2**62, k)",
  };
  for (const char* body : bodies) {
    api::Session session;
    const auto prog =
        session.compile("program t\n" + std::string(body) + "\nend program t\n");
    api::RunConfig cfg;
    cfg.nprocs = 1;
    cfg.runs = 1;
    EXPECT_GT(session.predict(prog, cfg).total, 0.0) << body;
    try {
      (void)session.measure(prog, cfg);
      ADD_FAILURE() << "measured without error: " << body;
    } catch (const support::CompileError& e) {
      EXPECT_EQ(e.loc().line, 3) << body;
    }
  }
}

TEST(Session, LayoutsAreMemoizedPerConfiguration) {
  api::Session session;
  const auto& app = suite::app("pi");
  const auto prog = session.compile(app.source);

  api::RunConfig cfg;
  cfg.nprocs = 4;
  cfg.bindings = app.bindings(256);
  cfg.runs = 1;

  const double t1 = session.predict(prog, cfg).total;
  EXPECT_EQ(session.cache_stats().layout_misses, 1u);
  EXPECT_EQ(session.cache_stats().layout_hits, 0u);

  // same configuration again: prediction identical, layout reused
  const double t2 = session.predict(prog, cfg).total;
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(session.cache_stats().layout_hits, 1u);

  // measurement of the same configuration also reuses the layout
  (void)session.measure(prog, cfg);
  EXPECT_EQ(session.cache_stats().layout_hits, 2u);
  EXPECT_EQ(session.cache_stats().layout_misses, 1u);

  // a different processor count is a different layout
  cfg.nprocs = 8;
  (void)session.predict(prog, cfg);
  EXPECT_EQ(session.cache_stats().layout_misses, 2u);
}

TEST(Session, LayoutCacheIsContentAddressed) {
  // Two externally owned programs compiled from the same source are
  // structurally identical, so they share one content-addressed layout
  // entry — no session-owned handle involved at all.
  api::Session session;
  const auto& app = suite::app("laplace_bx");
  const auto ext1 = std::make_shared<const compiler::CompiledProgram>(
      compiler::compile_with_directives(app.source, app.directive_overrides));
  const auto ext2 = std::make_shared<const compiler::CompiledProgram>(
      compiler::compile_with_directives(app.source, app.directive_overrides));

  api::RunConfig cfg;
  cfg.nprocs = 4;
  cfg.bindings = app.bindings(64);

  const double t1 = session.predict(ext1, cfg).total;
  EXPECT_EQ(session.cache_stats().layout_misses, 1u);
  const double t2 = session.predict(ext2, cfg).total;
  EXPECT_EQ(session.cache_stats().layout_misses, 1u);
  EXPECT_EQ(session.cache_stats().layout_hits, 1u);
  EXPECT_EQ(t1, t2);

  // a session-owned handle of the same source hits the same entry
  const auto owned = session.compile_with_directives(app.source, app.directive_overrides);
  EXPECT_EQ(session.predict(owned, cfg).total, t1);
  EXPECT_EQ(session.cache_stats().layout_misses, 1u);
  EXPECT_EQ(session.cache_stats().layout_hits, 2u);

  // different bindings are a different configuration
  cfg.bindings = app.bindings(128);
  (void)session.predict(ext1, cfg);
  EXPECT_EQ(session.cache_stats().layout_misses, 2u);
}

TEST(Session, LayoutEntriesOutliveTheirPrograms) {
  api::Session session;
  const auto& app = suite::app("pi");
  api::RunConfig cfg;
  cfg.nprocs = 4;
  cfg.bindings = app.bindings(256);

  {
    const auto prog =
        std::make_shared<const compiler::CompiledProgram>(compiler::compile(app.source));
    (void)session.predict(prog, cfg);
  }
  EXPECT_EQ(session.cache_stats().layout_misses, 1u);

  // the program that built the layout is gone; layouts are self-contained
  // and stay usable
  EXPECT_EQ(session.cached_programs(), 0u);
  EXPECT_EQ(session.cached_layouts(), 1u);

  // a freshly compiled external program still hits the surviving entry
  const auto ext =
      std::make_shared<const compiler::CompiledProgram>(compiler::compile(app.source));
  (void)session.predict(ext, cfg);
  EXPECT_EQ(session.cache_stats().layout_misses, 1u);
  EXPECT_GE(session.cache_stats().layout_hits, 1u);
}

TEST(Session, ExternalProgramSweepHitsTheLayoutCache) {
  // A program compiled outside the session's cache is priced against the
  // same content-addressed layouts: a repeated sweep is layout-cache-served.
  api::Session session;
  const auto& app = suite::app("pi");
  const auto prog =
      std::make_shared<const compiler::CompiledProgram>(compiler::compile(app.source));

  api::RunConfig cfg;
  cfg.machine = "ipsc860";
  cfg.nprocs = 4;
  cfg.bindings = app.bindings(256);
  cfg.runs = 1;

  std::size_t hits_after_first = 0;
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (int np : {1, 2, 4}) {
      cfg.nprocs = np;
      (void)session.compare(prog, cfg);
    }
    if (sweep == 0) hits_after_first = session.cache_stats().layout_hits;
  }
  const api::CacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.layout_misses, 3u);  // one per processor count
  EXPECT_GT(stats.layout_hits, hits_after_first);  // second sweep fully served
  EXPECT_GT(stats.layout_hits, 0u);
}

// --- parallel execution -------------------------------------------------------

api::ExperimentPlan determinism_plan() {
  const auto& app = suite::app("laplace_bb");
  api::ExperimentPlan plan("determinism");
  plan.source(app.source)
      .machines({"ipsc860", "cluster"})
      .nprocs({1, 2, 4})
      .add_variant("(block,block)", suite::app("laplace_bb").directive_overrides, 2)
      .add_variant("(block,*)", suite::app("laplace_bx").directive_overrides)
      .problems_from({16, 32}, app.bindings)
      .runs(2);
  return plan;
}

TEST(Session, RunReportIsIdenticalForAnyWorkerCount) {
  const api::ExperimentPlan plan = determinism_plan();

  api::Session serial_session;
  api::RunOptions serial;
  serial.workers = 1;
  const api::RunReport a = serial_session.run(plan, serial);

  api::Session parallel_session;
  api::RunOptions pool;
  pool.workers = 8;
  const api::RunReport b = parallel_session.run(plan, pool);

  // records, ordering, and every estimate/measurement agree byte-for-byte
  EXPECT_EQ(a.csv(), b.csv());
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].comparison.estimated, b.records[i].comparison.estimated);
    EXPECT_EQ(a.records[i].comparison.measured_mean,
              b.records[i].comparison.measured_mean);
    EXPECT_EQ(a.records[i].comparison.measured_stddev,
              b.records[i].comparison.measured_stddev);
  }
  // cache statistics are deterministic too: entries are built under their
  // shard lock, so every unique key misses exactly once
  EXPECT_EQ(a.cache.compile_hits, b.cache.compile_hits);
  EXPECT_EQ(a.cache.compile_misses, b.cache.compile_misses);
  EXPECT_EQ(a.cache.layout_hits, b.cache.layout_hits);
  EXPECT_EQ(a.cache.layout_misses, b.cache.layout_misses);
}

TEST(Session, CacheStatsAreDeterministicAcrossWorkerCountsWithArenas) {
  const api::ExperimentPlan plan = determinism_plan();
  std::optional<api::CacheStats> first;
  for (const int workers : {1, 2, 8}) {
    api::Session session;
    api::RunOptions opts;
    opts.workers = workers;
    const api::RunReport report = session.run(plan, opts);
    if (!first) {
      first = report.cache;
      // every unique key misses exactly once; the remaining lookups hit
      EXPECT_GT(first->layout_misses, 0u);
      EXPECT_EQ(first->layout_evictions, 0u);  // unbounded by default
      continue;
    }
    EXPECT_EQ(report.cache.compile_hits, first->compile_hits);
    EXPECT_EQ(report.cache.compile_misses, first->compile_misses);
    EXPECT_EQ(report.cache.layout_hits, first->layout_hits);
    EXPECT_EQ(report.cache.layout_misses, first->layout_misses);
    EXPECT_EQ(report.cache.layout_evictions, first->layout_evictions);
  }
}

TEST(Session, LayoutCacheCapacityBoundsResidencyAndCountsEvictions) {
  api::Session session;
  const auto& app = suite::app("pi");
  api::ExperimentPlan plan("bounded sweep");
  plan.source(app.source)
      .nprocs({1, 2, 4, 8})
      .problems_from({16, 64, 256}, app.bindings)
      .runs(0);
  // 12 distinct layouts through a 4-entry store: residency stays bounded
  // and the overflow surfaces as evictions in the run's cache stats.
  api::RunOptions opts;
  opts.workers = 1;
  session.set_layout_cache_capacity(4);
  const api::RunReport report = session.run(plan, opts);
  EXPECT_EQ(session.layout_cache_capacity(), 4u);
  EXPECT_EQ(report.cache.layout_misses, 12u);
  EXPECT_EQ(report.cache.layout_evictions, 8u);
  EXPECT_LE(session.cached_layouts(), 4u);
  // the run's cache stats record the effective capacity, and the ascii
  // footer shows it
  EXPECT_EQ(report.cache.layout_capacity, 4u);
  EXPECT_NE(report.ascii().find("(cap 4)"), std::string::npos);

  // capacity 0 lifts the bound: a re-run re-misses the evicted entries but
  // evicts nothing, and the records are identical to the bounded run
  session.set_layout_cache_capacity(0);
  const api::RunReport again = session.run(plan, opts);
  EXPECT_EQ(again.cache.layout_evictions, 0u);
  EXPECT_EQ(session.cached_layouts(), 12u);
  EXPECT_EQ(report.csv(), again.csv());
}

// --- the value-tape store ---------------------------------------------------------
//
// Measured points share one functional pass per (program, problem): the
// first point of a problem records its value tape, every other processor
// count and machine re-times it.

/// One measured plan per app: 2 sizes x nprocs {1, 2, 4, 8}, runs(3).
std::vector<api::ExperimentPlan> shared_tape_plans(
    const std::vector<std::string>& machines = {"ipsc860"}) {
  std::vector<api::ExperimentPlan> plans;
  for (const char* id : {"pi", "lfk2"}) {
    const auto& app = suite::app(id);
    api::ExperimentPlan plan(app.name);
    plan.source(app.source)
        .machines(machines)
        .nprocs({1, 2, 4, 8})
        .problems_from({app.problem_sizes[0], app.problem_sizes[1]}, app.bindings)
        .runs(3);
    plans.push_back(std::move(plan));
  }
  return plans;
}

/// Each plan's CSV, run on `session`, and the summed tape counters.
std::vector<std::string> run_shared_tape_plans(api::Session& session, int workers,
                                               const std::vector<api::ExperimentPlan>& plans,
                                               api::CacheStats& cache) {
  api::RunOptions opts;
  opts.workers = workers;
  std::vector<std::string> csvs;
  for (const api::ExperimentPlan& plan : plans) {
    const api::RunReport report = session.run(plan, opts);
    csvs.push_back(report.csv());
    cache.value_tape_hits += report.cache.value_tape_hits;
    cache.value_tape_misses += report.cache.value_tape_misses;
    cache.value_tape_evictions += report.cache.value_tape_evictions;
  }
  return csvs;
}

/// The same plans point by point, each on a fresh session: no tape is
/// ever shared.
std::vector<std::string> run_unshared(const std::vector<api::ExperimentPlan>& plans) {
  std::vector<std::string> csvs;
  for (const api::ExperimentPlan& plan : plans) {
    api::RunReport joined;
    for (const std::string& machine : plan.machine_names()) {
      for (const api::DirectiveVariant& variant : plan.variants()) {
        for (const api::ProblemCase& problem : plan.problems()) {
          for (const int nprocs : plan.nprocs_list()) {
            api::ExperimentPlan point(plan.title());
            point.source(plan.program_source())
                .machines({machine})
                .add_variant(variant)
                .nprocs({nprocs})
                .add_problem(problem.name, problem.bindings)
                .runs(plan.measure_runs());
            api::Session fresh;
            api::RunOptions opts;
            opts.workers = 1;
            const api::RunReport report = fresh.run(point, opts);
            EXPECT_EQ(report.cache.value_tape_hits, 0u);
            joined.records.push_back(report.records.at(0));
          }
        }
      }
    }
    csvs.push_back(joined.csv());
  }
  return csvs;
}

TEST(ValueTapes, OneFunctionalPassPerProblemForAnyWorkerCount) {
  const std::vector<api::ExperimentPlan> plans = shared_tape_plans();
  const std::vector<std::string> unshared = run_unshared(plans);
  for (const int workers : {1, 4}) {
    api::Session session;
    api::CacheStats cache;
    const std::vector<std::string> csvs =
        run_shared_tape_plans(session, workers, plans, cache);
    EXPECT_EQ(csvs, unshared) << "workers=" << workers;
    // 2 apps x 2 sizes passes, re-timed at the other 3 processor counts
    EXPECT_EQ(cache.value_tape_misses, 4u) << "workers=" << workers;
    EXPECT_EQ(cache.value_tape_hits, 12u) << "workers=" << workers;
    EXPECT_EQ(cache.value_tape_evictions, 0u) << "workers=" << workers;
    EXPECT_GT(session.cache_stats().value_tape_bytes, 0u);
  }
}

TEST(ValueTapes, MachinesShareTapesAcrossConcurrentChunks) {
  // two machines make two chunks per plan, measured by different workers
  // that look up the same tapes at once
  const std::vector<api::ExperimentPlan> plans = shared_tape_plans({"ipsc860", "paragon"});
  const std::vector<std::string> unshared = run_unshared(plans);
  for (const int workers : {1, 4}) {
    api::Session session;
    api::CacheStats cache;
    EXPECT_EQ(run_shared_tape_plans(session, workers, plans, cache), unshared)
        << "workers=" << workers;
    EXPECT_EQ(cache.value_tape_misses, 4u) << "workers=" << workers;
    EXPECT_EQ(cache.value_tape_hits, 28u) << "workers=" << workers;
  }
}

TEST(ValueTapes, DistributionVariantsShareOneTape) {
  // directives never change values: the variants' chunks, measured by
  // different workers, share one functional pass per size
  const auto& bb = suite::app("laplace_bb");
  const auto& bx = suite::app("laplace_bx");
  const auto& xb = suite::app("laplace_xb");
  api::ExperimentPlan variants("laplace distributions");
  variants.source(bb.source)
      .add_variant(bb.name, bb.directive_overrides, 2)
      .add_variant(bx.name, bx.directive_overrides)
      .add_variant(xb.name, xb.directive_overrides)
      .nprocs({1, 2, 4, 8})
      .problems_from({bb.problem_sizes[0], bb.problem_sizes[1]}, bb.bindings)
      .runs(3);
  const std::vector<api::ExperimentPlan> plans = {variants};
  const std::vector<std::string> unshared = run_unshared(plans);
  for (const int workers : {1, 4}) {
    api::Session session;
    api::CacheStats cache;
    EXPECT_EQ(run_shared_tape_plans(session, workers, plans, cache), unshared)
        << "workers=" << workers;
    // 3 variants x 2 sizes x 4 processor counts: 2 passes, 22 re-timings
    EXPECT_EQ(cache.value_tape_misses, 2u) << "workers=" << workers;
    EXPECT_EQ(cache.value_tape_hits, 22u) << "workers=" << workers;
  }

  // Session::measure under one distribution records the tape a run under
  // another re-times
  api::Session session;
  api::RunConfig cfg;
  cfg.bindings = bb.bindings(bb.problem_sizes[0]);
  cfg.nprocs = 4;
  (void)session.measure(session.compile_with_directives(bb.source, bb.directive_overrides),
                        cfg);
  EXPECT_EQ(session.cache_stats().value_tape_misses, 1u);
  api::ExperimentPlan plan("x-block");
  plan.source(xb.source)
      .add_variant(xb.name, xb.directive_overrides)
      .nprocs({2})
      .add_problem("n=16", cfg.bindings)
      .runs(2);
  const api::RunReport report = session.run(plan);
  EXPECT_EQ(report.cache.value_tape_hits, 1u);
  EXPECT_EQ(report.cache.value_tape_misses, 0u);
}

TEST(ValueTapes, SessionMeasureSharesTheStoreWithRun) {
  const auto& app = suite::app("pi");
  api::Session session;
  const auto prog = session.compile(app.source);
  api::RunConfig cfg;
  cfg.bindings = app.bindings(app.problem_sizes[0]);
  cfg.nprocs = 2;
  const sim::MeasuredResult first = session.measure(prog, cfg);
  EXPECT_EQ(session.cache_stats().value_tape_misses, 1u);
  cfg.nprocs = 8;
  cfg.machine = "paragon";
  const sim::MeasuredResult shared = session.measure(prog, cfg);
  EXPECT_EQ(session.cache_stats().value_tape_hits, 1u);
  // bit-identical to a session that measures this point first
  api::Session fresh;
  const sim::MeasuredResult alone = fresh.measure(fresh.compile(app.source), cfg);
  EXPECT_EQ(shared.stats.samples, alone.stats.samples);
  EXPECT_EQ(shared.detail.proc_clock, alone.detail.proc_clock);
  EXPECT_EQ(shared.detail.scalars, alone.detail.scalars);
  EXPECT_EQ(shared.detail.printed, first.detail.printed);
  // the ascii footer reports the store once it has been used
  api::ExperimentPlan plan("footer");
  plan.source(app.source).nprocs({1, 2}).problems_from({16}, app.bindings).runs(1);
  EXPECT_NE(session.run(plan).ascii().find("value tapes 1 hit / 1 miss"), std::string::npos);
}

// --- noise streams ------------------------------------------------------------
//
// Every measured point of a plan draws from the plan's run seeds, and the
// session shares one noise stream per seed. Reading it must change no bit.

TEST(NoiseStreams, SharedStreamsKeepReportsByteIdentical) {
  const auto& app = suite::app("nbody");
  api::ExperimentPlan plan("noise streams");
  plan.source(app.source)
      .machines({"ipsc860", "paragon"})
      .nprocs({1, 2, 4, 8})
      .problems_from({16, 256}, app.bindings)
      .runs(3);
  api::Session session;
  api::RunOptions serial;
  serial.workers = 1;
  api::RunOptions pool;
  pool.workers = 4;
  // the pool goes first: its workers (one per machine's chunk) build the
  // streams and read them concurrently
  const api::RunReport first = session.run(plan, pool);
  const std::string csv = first.csv();
  EXPECT_EQ(session.run(plan, serial).csv(), csv);
  EXPECT_EQ(session.run(plan, serial).csv(), csv);
  EXPECT_EQ(session.cached_noise_streams(), 3u);  // one per run seed

  // every point measured again on a fresh arena, with no shared tape or
  // streams: the simulator seeds its own engines
  api::RunReport alone = first;
  const auto prog = session.compile(app.source);
  for (api::RunRecord& rec : alone.records) {
    const auto problem = std::find_if(plan.problems().begin(), plan.problems().end(),
                                      [&](const api::ProblemCase& c) { return c.name == rec.problem; });
    ASSERT_NE(problem, plan.problems().end());
    compiler::LayoutOptions lo;
    lo.nprocs = rec.nprocs;
    const compiler::DataLayout layout = compiler::make_layout(*prog, problem->bindings, lo);
    sim::Executor arena;
    sim::MeasuredResult m;
    sim::Simulator(session.machine(rec.machine))
        .measure_into(*prog, problem->bindings, layout, plan.sim_opts(), plan.measure_runs(),
                      arena, m);
    rec.comparison.measured_mean = m.stats.mean;
    rec.comparison.measured_min = m.stats.min;
    rec.comparison.measured_max = m.stats.max;
    rec.comparison.measured_stddev = m.stats.stddev;
  }
  EXPECT_EQ(alone.csv(), csv);
}

TEST(NoiseStreams, StoreHoldsAtMostItsCap) {
  const auto& app = suite::app("pi");
  api::Session session;
  for (std::uint64_t k = 1; k <= 10; ++k) {
    sim::SimOptions so;
    so.seed = k * 1000;  // one run each: ten distinct seeds
    api::ExperimentPlan plan("seed " + std::to_string(so.seed));
    plan.source(app.source)
        .nprocs({2})
        .problems_from({app.problem_sizes.front()}, app.bindings)
        .runs(1)
        .sim_options(so);
    (void)session.run(plan);
    EXPECT_LE(session.cached_noise_streams(), api::Session::kNoiseStreams) << "seed " << so.seed;
  }
  EXPECT_EQ(session.cached_noise_streams(), api::Session::kNoiseStreams);

  // a measurement without noise draws nothing, so it builds no stream
  sim::SimOptions quiet;
  quiet.noise = false;
  api::ExperimentPlan plan("quiet");
  plan.source(app.source).nprocs({2}).problems_from({16}, app.bindings).runs(3).sim_options(quiet);
  api::Session fresh;
  (void)fresh.run(plan);
  EXPECT_EQ(fresh.cached_noise_streams(), 0u);
}

// size(a, k) with k outside 1..rank(a) is a located diagnostic on every
// path, never an out_of_range from a container.
constexpr const char* kSizeDim =
    "program t\n"
    "  parameter (n = 8)\n"
    "  real v(n, 2*n)\n"
    "!hpf$ template d(n, 2*n)\n"
    "!hpf$ align v(i, j) with d(i, j)\n"
    "!hpf$ distribute d(block, *)\n"
    "  forall (i = 1:size(v, k) / 4) v(i, 1) = 1.0\n"
    "end program t\n";

void expect_size_error(const std::function<void()>& run, long long k, int line, int column,
                       const std::string& message, const char* path) {
  try {
    run();
    ADD_FAILURE() << path << " k=" << k << ": no error";
  } catch (const support::CompileError& e) {
    EXPECT_EQ(std::string(e.what()), message) << path << " k=" << k;
    EXPECT_EQ(e.loc().line, line) << path << " k=" << k;
    EXPECT_EQ(e.loc().column, column) << path << " k=" << k;
  }
}

TEST(SizeDimension, OutOfRangeIsALocatedDiagnostic) {
  for (const long long k : {0LL, 3LL}) {
    const std::string size_error =
        "7:17: size dimension " + std::to_string(k) + " out of range 1..2 for 'v'";
    // the predictor needs the forall bound and reports which one failed
    const std::string bound_error = "7:15: unresolved critical variable in forall bounds: " +
                                    size_error;
    api::Session session;
    const auto prog = session.compile(kSizeDim);
    api::RunConfig cfg;
    cfg.nprocs = 2;
    cfg.bindings.set_int("k", 2);
    EXPECT_GT(session.predict(prog, cfg).total, 0.0);
    cfg.bindings.set_int("k", k);
    expect_size_error([&] { (void)session.predict(prog, cfg); }, k, 7, 15, bound_error,
                      "predict");
    expect_size_error([&] { (void)session.measure(prog, cfg); }, k, 7, 17, size_error,
                      "measure");
    for (const int runs : {0, 3}) {
      api::ExperimentPlan plan("size dimension");
      plan.source(kSizeDim).nprocs({1, 2}).add_problem("k", cfg.bindings).runs(runs);
      expect_size_error([&] { (void)session.run(plan); }, k, 7, 15, bound_error,
                        runs == 0 ? "run runs(0)" : "run runs(3)");
    }
  }
}

TEST(Session, ConcurrentSessionUseIsSafe) {
  // ThreadSanitizer smoke: many threads compile the same sources and
  // predict overlapping configurations through one session.
  api::Session session;
  const auto& pi = suite::app("pi");
  const auto& lap = suite::app("laplace_bx");

  std::atomic<int> failures{0};
  const auto hammer = [&](int tid) {
    try {
      for (int round = 0; round < 3; ++round) {
        const auto prog = tid % 2 == 0
                              ? session.compile(pi.source)
                              : session.compile_with_directives(lap.source,
                                                                lap.directive_overrides);
        api::RunConfig cfg;
        cfg.nprocs = 1 << (tid % 3);
        cfg.bindings = tid % 2 == 0 ? pi.bindings(256) : lap.bindings(32);
        if (session.predict(prog, cfg).total <= 0) ++failures;
        (void)session.machine(tid % 2 == 0 ? "ipsc860" : "cluster");
      }
    } catch (...) {
      ++failures;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) threads.emplace_back(hammer, t);
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(session.cached_programs(), 2u);
}

// --- experiment plans ---------------------------------------------------------

TEST(ExperimentPlan, DefaultsAndValidation) {
  api::ExperimentPlan plan("p");
  EXPECT_THROW(plan.validate(), std::invalid_argument);  // no source

  plan.source("program p\nend program p\n");
  EXPECT_NO_THROW(plan.validate());
  EXPECT_EQ(plan.machine_names(), (std::vector<std::string>{"ipsc860"}));
  EXPECT_EQ(plan.nprocs_list(), (std::vector<int>{1}));
  EXPECT_EQ(plan.variants().size(), 1u);
  EXPECT_EQ(plan.problems().size(), 1u);
  EXPECT_EQ(plan.point_count(), 1u);

  plan.nprocs({0});
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.nprocs({1, 2});

  plan.add_variant("v", {});
  plan.add_variant("v", {});
  EXPECT_THROW(plan.validate(), std::invalid_argument);  // duplicate variant
}

TEST(ExperimentPlan, SweepRunsBatchedWithCacheHits) {
  // the acceptance sweep: 2 machines x 3 nprocs x 2 directive variants
  api::Session session;
  const auto& app = suite::app("laplace_bb");

  api::ExperimentPlan plan("laplace acceptance sweep");
  plan.source(app.source)
      .machines({"ipsc860", "cluster"})
      .nprocs({1, 2, 4})
      .add_variant("(block,block)", suite::app("laplace_bb").directive_overrides, 2)
      .add_variant("(block,*)", suite::app("laplace_bx").directive_overrides)
      .add_problem("n=16", app.bindings(16))
      .runs(1);

  EXPECT_EQ(plan.point_count(), 12u);
  const api::RunReport report = session.run(plan);
  ASSERT_EQ(report.records.size(), 12u);

  for (const auto& r : report.records) {
    EXPECT_GT(r.comparison.estimated, 0.0);
    EXPECT_TRUE(r.measured);
    EXPECT_GT(r.comparison.measured_mean, 0.0);
  }
  // each variant compiles once; the second machine reuses both programs
  EXPECT_EQ(report.cache.compile_misses, 2u);
  EXPECT_GE(report.cache.compile_hits, 1u);
  // layouts are machine-independent: the cluster points reuse every layout,
  // and each point's measurement reuses its prediction's layout
  EXPECT_GE(report.cache.layout_hits, report.cache.layout_misses);
  EXPECT_GT(report.wall_seconds, 0.0);

  // the ascii rendering mentions every variant and the cache footer
  const std::string text = report.ascii();
  EXPECT_NE(text.find("(block,*)"), std::string::npos);
  EXPECT_NE(text.find("compile cache"), std::string::npos);

  // a second identical run is fully cache-served
  const api::RunReport again = session.run(plan);
  EXPECT_EQ(again.cache.compile_misses, 0u);
  EXPECT_EQ(again.cache.layout_misses, 0u);
  EXPECT_EQ(again.records.size(), 12u);
  for (std::size_t i = 0; i < again.records.size(); ++i) {
    EXPECT_EQ(again.records[i].comparison.estimated,
              report.records[i].comparison.estimated);
  }
}

TEST(ExperimentPlan, UnknownMachineFailsBeforeRunning) {
  api::Session session;
  api::ExperimentPlan plan("bad machine");
  plan.source(suite::app("pi").source).machines({"sp2"});
  EXPECT_THROW((void)session.run(plan), std::out_of_range);
}

TEST(ExperimentPlan, PredictOnlySweep) {
  api::Session session;
  api::ExperimentPlan plan("predict only");
  plan.source(suite::app("pi").source).nprocs({1, 4}).runs(0);
  const api::RunReport report = session.run(plan);
  ASSERT_EQ(report.records.size(), 2u);
  for (const auto& r : report.records) {
    EXPECT_FALSE(r.measured);
    EXPECT_GT(r.comparison.estimated, 0.0);
    EXPECT_EQ(r.comparison.measured_mean, 0.0);
    // every record carries the predicted per-phase decomposition
    EXPECT_GT(r.phases.total(), 0.0);
  }
  // on one processor the categories partition the whole predicted time
  EXPECT_NEAR(report.records[0].phases.total(), report.records[0].comparison.estimated,
              1e-12 + 1e-9 * report.records[0].comparison.estimated);
  ASSERT_NE(report.best_estimated(), nullptr);
  EXPECT_EQ(report.best_estimated()->nprocs, 4);  // pi scales on the cube
  // the same plan again, now from the session's caches, reports the same
  EXPECT_EQ(session.run(plan).csv(), report.csv());
}

TEST(ExperimentPlan, ProblemsFromGeneratesLabelledCases) {
  const auto& app = suite::app("pi");
  api::ExperimentPlan plan("generated problems");
  plan.source(app.source).problems_from({16, 256}, app.bindings);
  ASSERT_EQ(plan.problems().size(), 2u);
  EXPECT_EQ(plan.problems()[0].name, "n=16");
  EXPECT_EQ(plan.problems()[1].name, "n=256");
  EXPECT_EQ(plan.problems()[0].bindings.get("n"), app.bindings(16).get("n"));

  api::ExperimentPlan custom("custom prefix");
  custom.source(app.source).problems_from({8}, app.bindings, "particles=");
  EXPECT_EQ(custom.problems()[0].name, "particles=8");

  EXPECT_THROW(plan.problems_from({1}, nullptr), std::invalid_argument);
}

// --- run report export --------------------------------------------------------

TEST(RunReport, CsvRoundTrip) {
  api::Session session;
  const auto& app = suite::app("pi");
  api::ExperimentPlan plan("csv round trip");
  plan.source(app.source)
      .machines({"ipsc860", "cluster"})
      .nprocs({1, 2})
      .add_problem("n=256", app.bindings(256))
      .runs(1);
  const api::RunReport report = session.run(plan);

  const std::string csv = report.csv();
  const api::RunReport parsed = api::RunReport::from_csv(csv);
  ASSERT_EQ(parsed.records.size(), report.records.size());
  for (std::size_t i = 0; i < report.records.size(); ++i) {
    const auto& a = report.records[i];
    const auto& b = parsed.records[i];
    EXPECT_EQ(a.machine, b.machine);
    EXPECT_EQ(a.variant, b.variant);
    EXPECT_EQ(a.problem, b.problem);
    EXPECT_EQ(a.nprocs, b.nprocs);
    EXPECT_EQ(a.measured, b.measured);
    // %.17g round-trips doubles exactly
    EXPECT_EQ(a.comparison.estimated, b.comparison.estimated);
    EXPECT_EQ(a.comparison.measured_mean, b.comparison.measured_mean);
    EXPECT_EQ(a.comparison.measured_min, b.comparison.measured_min);
    EXPECT_EQ(a.comparison.measured_max, b.comparison.measured_max);
    EXPECT_EQ(a.comparison.measured_stddev, b.comparison.measured_stddev);
  }
  // and the re-exported CSV is byte-identical
  EXPECT_EQ(parsed.csv(), csv);
}

TEST(RunReport, CsvRejectsMalformedInput) {
  EXPECT_THROW((void)api::RunReport::from_csv(""), std::invalid_argument);
  EXPECT_THROW((void)api::RunReport::from_csv("bogus,header\n"), std::invalid_argument);
  const std::string good = api::RunReport{}.csv();
  EXPECT_THROW((void)api::RunReport::from_csv(good + "short,row\n"),
               std::invalid_argument);
  EXPECT_NO_THROW((void)api::RunReport::from_csv(good));
  // every numeric cell is read whole: trailing junk and out-of-range values
  // are the documented invalid_argument, never a silent prefix or
  // std::out_of_range
  for (const char* row : {"m,v,p,8abc,1,1.5,0,0,0,0\n", "m,v,p,8,1,1.5xyz,0,0,0,0\n",
                          "m,v,p,8,1,1e999,0,0,0,0\n", "m,v,p,99999999999,1,1.5,0,0,0,0\n"}) {
    EXPECT_THROW((void)api::RunReport::from_csv(good + row), std::invalid_argument) << row;
  }
  const api::RunReport ok = api::RunReport::from_csv(good + "m,v,p,8,1,1.5,0,0,0,0\n");
  ASSERT_EQ(ok.records.size(), 1u);
  EXPECT_EQ(ok.records[0].nprocs, 8);
  EXPECT_EQ(ok.records[0].comparison.estimated, 1.5);
}

// --- size() under the run's bindings ------------------------------------------

// size(a) reads the bound layout's extents in both engines: with n bound to
// 1024, the loop runs 1024 trips in the prediction as in the measurement,
// not the 64 the source's PARAMETER default would give.
TEST(SizeIntrinsic, PredictionReadsTheBoundExtents) {
  static const char* const source = R"f90(
program t
  parameter (n = 64)
  real a(n)
!hpf$ template d(n)
!hpf$ align a(i) with d(i)
!hpf$ distribute d(block)
  m = size(a)
  do k = 1, m
    forall (i = 1:n) a(i) = a(i) + 1.0
  end do
end program t
)f90";
  api::ExperimentPlan plan("size under bindings");
  front::Bindings b;
  b.set_int("n", 1024);
  plan.source(source).machines({"ipsc860"}).nprocs({4}).runs(1).add_problem("n=1024", b);
  api::Session session;
  const api::RunReport report = session.run(plan);
  ASSERT_EQ(report.records.size(), 1u);
  const api::Comparison& c = report.records[0].comparison;
  EXPECT_GT(c.measured_mean, 0.0);
  EXPECT_LT(c.abs_error_pct(), 5.0) << "estimated " << c.estimated << " measured "
                                    << c.measured_mean;

  // size(a, k) with k from the run's bindings selects the bound extent too
  api::RunConfig cfg;
  cfg.nprocs = 4;
  cfg.bindings = b;
  const auto prog = session.compile(std::string(source));
  const auto with_dim = session.compile(
      std::string(source).replace(std::string(source).find("size(a)"), 7, "size(a, 1)"));
  EXPECT_EQ(session.predict(with_dim, cfg).total, session.predict(prog, cfg).total);
}

// --- predictor diagnostics ----------------------------------------------------

// The interpretation walk's located diagnostics: each program fails for one
// value of `k` and predicts for the others. The message and location must
// be the same whether the point is predicted alone (Session::predict) or as
// one failing lane of a lockstep window (Session::run, batch_size 64).
struct PredictDiagnostic {
  const char* what;
  const char* source;
  long long bad_k;
  std::vector<long long> good_k;
  std::uint32_t line;
  std::uint32_t column;
  const char* message;
};

const std::vector<PredictDiagnostic>& predict_diagnostics() {
  static const char* const kHeader =
      "  real v(8)\n"
      "!hpf$ template d(8)\n"
      "!hpf$ align v(i) with d(i)\n"
      "!hpf$ distribute d(block)\n";
  static const std::string do_step = std::string("program t\n") + kHeader +
                                     "  do i = 1, 4, k\n"
                                     "    forall (j = 1:8) v(j) = 1.0\n"
                                     "  end do\n"
                                     "end program t\n";
  static const std::string do_bound = std::string("program t\n") + kHeader +
                                      "  do i = 1, mod(7, k)\n"
                                      "    forall (j = 1:8) v(j) = 1.0\n"
                                      "  end do\n"
                                      "end program t\n";
  static const std::string forall_bound = std::string("program t\n") + kHeader +
                                          "  forall (j = 1:mod(7, k)) v(j) = 1.0\n"
                                          "end program t\n";
  // `a` is never distributed, so only the walk reads its extent m — the
  // upper bound of the inner dim-reduction — and m stays undefined when
  // its assignment fails
  static const std::string inner_bound =
      "program t\n"
      "  parameter (n = 8)\n"
      "  real a(n, m), v(n)\n"
      "!hpf$ template d(n)\n"
      "!hpf$ align v(i) with d(i)\n"
      "!hpf$ distribute d(block)\n"
      "  m = mod(7, k)\n"
      "  forall (i = 1:n) v(i) = sum(a(i, :), 2)\n"
      "end program t\n";
  // x is defined only when k /= 0, so the k = 0 lane's WHILE test cannot
  // be evaluated
  static const std::string while_cond = std::string("program t\n") + kHeader +
                                        "  if (k /= 0) then\n"
                                        "    x = 2.0\n"
                                        "  end if\n"
                                        "  do while (x > 3.0)\n"
                                        "    forall (j = 1:8) v(j) = 1.0\n"
                                        "  end do\n"
                                        "end program t\n";
  static const std::string while_trips = std::string("program t\n") + kHeader +
                                         "  do while (k > 0)\n"
                                         "    v(1) = 1.0\n"
                                         "  end do\n"
                                         "end program t\n";
  static const std::vector<PredictDiagnostic> cases = {
      {"do step", do_step.c_str(), 0, {1, 2, 3}, 6, 3, "6:3: do loop step is zero"},
      {"do bound", do_bound.c_str(), 0, {1, 2, 3}, 6, 3,
       "6:3: unresolved critical variable in do bounds: 6:13: integer division by "
       "zero or overflow"},
      {"forall bound", forall_bound.c_str(), 0, {1, 2, 3}, 6, 15,
       "6:15: unresolved critical variable in forall bounds: 6:17: integer division "
       "by zero or overflow"},
      {"inner reduce bound", inner_bound.c_str(), 0, {1, 2, 3}, 3, 13,
       "3:13: value of 'm' is not available (unresolved critical variable?)"},
      {"while condition", while_cond.c_str(), 0, {1, 2, 3}, 9, 3,
       "9:3: do while condition depends on data values; supply an explicit binding "
       "for its critical variables"},
      {"while trip limit", while_trips.c_str(), 1, {0, 0, 0}, 6, 3,
       "6:3: do while exceeded the interpretation trip limit"},
  };
  return cases;
}

void expect_diagnostic(const PredictDiagnostic& c, const std::function<void()>& run,
                       const char* path) {
  try {
    run();
    ADD_FAILURE() << c.what << " (" << path << "): no error";
  } catch (const support::CompileError& e) {
    EXPECT_EQ(std::string(e.what()), c.message) << c.what << " (" << path << ")";
    EXPECT_EQ(e.loc().line, c.line) << c.what << " (" << path << ")";
    EXPECT_EQ(e.loc().column, c.column) << c.what << " (" << path << ")";
  }
}

TEST(PredictDiagnostics, OnePointPredict) {
  for (const PredictDiagnostic& c : predict_diagnostics()) {
    api::Session session;
    const auto prog = session.compile(c.source);
    api::RunConfig cfg;
    cfg.nprocs = 2;
    for (const long long k : c.good_k) {
      cfg.bindings.set_int("k", k);
      EXPECT_GE(session.predict(prog, cfg).total, 0.0) << c.what << " k=" << k;
    }
    cfg.bindings.set_int("k", c.bad_k);
    expect_diagnostic(c, [&] { (void)session.predict(prog, cfg); }, "predict");
  }
}

TEST(PredictDiagnostics, OneFailingLaneOfALockstepRun) {
  for (const PredictDiagnostic& c : predict_diagnostics()) {
    api::ExperimentPlan plan(c.what);
    plan.source(c.source).machines({"ipsc860"}).nprocs({2}).runs(0);
    const std::vector<long long> ks = {c.good_k[0], c.good_k[1], c.bad_k, c.good_k[2]};
    for (std::size_t i = 0; i < ks.size(); ++i) {
      front::Bindings b;
      b.set_int("k", ks[i]);
      plan.add_problem(std::string(1, static_cast<char>('a' + i)), b);
    }
    api::Session session;
    api::RunOptions opts;
    opts.workers = 1;
    opts.batch_size = 64;
    expect_diagnostic(c, [&] { (void)session.run(plan, opts); }, "run");
  }
}

}  // namespace
}  // namespace hpf90d
