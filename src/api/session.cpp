#include "api/session.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <numeric>
#include <span>
#include <thread>
#include <utility>

#include "api/engine_arena.hpp"
#include "api/experiment_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "support/text.hpp"

namespace hpf90d::api {

namespace {

std::string program_key(std::string_view source,
                        const std::vector<std::string>& overrides,
                        const compiler::CompilerOptions& options) {
  std::string key = support::strfmt("%016llx:%zu:%d:%.17g",
                                    static_cast<unsigned long long>(support::fnv1a64(source)),
                                    source.size(), options.message_vectorization ? 1 : 0,
                                    options.default_mask_probability);
  for (const auto& o : overrides) {
    key += '\x1f';
    key += o;
  }
  return key;
}

}  // namespace

Session::ProgramHandle Session::compile(std::string_view source,
                                        const compiler::CompilerOptions& options) {
  return compile_cached(source, {}, options);
}

Session::ProgramHandle Session::compile_with_directives(
    std::string_view source, const std::vector<std::string>& overrides,
    const compiler::CompilerOptions& options) {
  return compile_cached(source, overrides, options);
}

Session::ProgramHandle Session::compile_cached(std::string_view source,
                                               const std::vector<std::string>& overrides,
                                               const compiler::CompilerOptions& options) {
  const std::string key = program_key(source, overrides, options);
  return programs_.get_or_build(key, [&] {
    compiler::CompiledProgram prog =
        overrides.empty() ? compiler::compile(source, options)
                          : compiler::compile_with_directives(source, overrides, options);
    // Write-behind the recipe so a restarted session can warm_start this
    // entry. Spill failures must not fail the compile.
    if (spill_) {
      try {
        spill_->store_program(key, ProgramRecipe{std::string(source), overrides, options});
      } catch (...) {
      }
    }
    return prog;
  });
}

LayoutStore::Ptr Session::layout_for(const compiler::CompiledProgram& prog,
                                     const front::Bindings& bindings,
                                     const compiler::LayoutOptions& lo,
                                     const compiler::LayoutDigest& digest) const {
  // Content-addressed: two structurally identical programs (identical
  // directives, symbols, aliases) share one entry regardless of who owns
  // them, and the entry outlives both (DataLayout is self-contained).
  std::string key;
  return layout_store_.get_or_build(
      digest,
      [&]() -> const std::string& {
        compiler::layout_fingerprint_into(key, prog, bindings, lo);
        return key;
      },
      [&] {
        const obs::Span span(obs_, obs::Phase::LayoutBuild);
        return compiler::make_layout(prog, bindings, lo);
      });
}

CacheStats Session::cache_stats() const noexcept {
  const auto programs = programs_.counters();
  const LayoutStore::Counters layouts = layout_store_.counters();
  const ValueTapeStore::Counters tapes = value_tapes_.counters();
  return {programs.hits,              programs.misses,
          layouts.hits,               layouts.misses,
          layouts.evictions,          layouts.spill_hits,
          layout_store_.capacity(),   tapes.hits,
          tapes.misses,               tapes.evictions,
          tapes.resident};
}

core::PredictionResult Session::predict(const ProgramHandle& prog,
                                        const RunConfig& config) {
  core::require_critical_complete(*prog, config.bindings);
  const compiler::LayoutOptions lo = layout_options(config);
  const LayoutStore::Ptr layout = layout_for(
      *prog, config.bindings, lo, compiler::layout_fingerprint_digest(*prog, config.bindings, lo));
  // the critical-variable analysis ran above, before the layout: the walk
  // itself does not repeat it
  return core::interpret_one(*prog, config.bindings, *layout, machine(config.machine),
                             config.predict);
}

sim::MeasuredResult Session::measure(const ProgramHandle& prog, const RunConfig& config) {
  core::require_critical_complete(*prog, config.bindings);
  const compiler::LayoutOptions lo = layout_options(config);
  const LayoutStore::Ptr layout = layout_for(
      *prog, config.bindings, lo, compiler::layout_fingerprint_digest(*prog, config.bindings, lo));
  const core::BatchLane lane{layout.get(), &config.bindings, nullptr};
  const compiler::LayoutDigest key =
      compiler::value_tape_key(*prog, config.bindings, config.sim.max_while_trips);
  EngineArena arena;
  arena.set_trace(obs_);
  return arena.measure_batch_into(*prog, machine(config.machine), config.sim, config.runs,
                                  {&lane, 1}, {&key, 1}, value_tapes_for(*prog),
                                  noise_streams_)[0];
}

Comparison Session::compare(const ProgramHandle& prog, const RunConfig& config) {
  Comparison out;
  out.estimated = predict(prog, config).total;
  const sim::MeasuredResult measured = measure(prog, config);
  out.measured_mean = measured.stats.mean;
  out.measured_min = measured.stats.min;
  out.measured_max = measured.stats.max;
  out.measured_stddev = measured.stats.stddev;
  return out;
}

void Session::set_trace_sink(obs::Sink* sink) {
  obs_ = sink;
  layout_store_.set_trace(sink);
}

RunReport Session::run(const ExperimentPlan& plan, const RunOptions& options) {
  plan.validate();
  // Run-scoped spans go to the per-run sink when one is set, else to the
  // session sink. The layout store keeps the session sink either way: its
  // set_trace is not safe against concurrent runs, and runs may overlap.
  obs::Sink* const trace = options.trace != nullptr ? options.trace : obs_;
  const auto t0 = std::chrono::steady_clock::now();
  const CacheStats before = cache_stats();

  RunReport report;
  report.title = plan.title();

  // fail fast on unknown names, before any point of the sweep runs
  for (const auto& machine_name : plan.machine_names()) (void)machine(machine_name);

  // Compile every (machine, variant) pair serially, replicating the serial
  // sweep's cache-call pattern (each variant misses once, later machines
  // hit) so report.cache is identical for every worker count.
  std::vector<ProgramHandle> variant_progs(plan.variants().size());
  for (std::size_t m = 0; m < plan.machine_names().size(); ++m) {
    for (std::size_t v = 0; v < plan.variants().size(); ++v) {
      const auto& variant = plan.variants()[v];
      const obs::Span compile_span(trace, obs::Phase::Compile, v);
      variant_progs[v] =
          variant.overrides.empty()
              ? compile(plan.program_source(), plan.compiler_opts())
              : compile_with_directives(plan.program_source(), variant.overrides,
                                        plan.compiler_opts());
    }
  }

  // Critical-variable validation depends only on (program, bindings), so it
  // is hoisted out of the sweep: once per (variant, problem) pair instead of
  // once (or twice) per point, and every diagnostic fires before any thread
  // starts. The verdict is further memoized across run() calls — the
  // analysis reads only which names are bound, never their values.
  const auto check_critical = [this](const compiler::CompiledProgram& prog,
                                     const front::Bindings& bindings) {
    std::string key = std::to_string(prog.compile_id);
    for (const auto& [name, value] : bindings.values()) {
      key += '\x1f';
      key += name;
    }
    const auto verdict = critical_.get_or_build(key, [&] {
      try {
        core::require_critical_complete(prog, bindings);
      } catch (const support::CompileError& e) {
        return std::string(e.what());
      }
      return std::string();
    });
    if (!verdict->empty()) throw support::CompileError(*verdict);
  };
  for (std::size_t v = 0; v < plan.variants().size(); ++v) {
    if (plan.scaled_by_nprocs()) {
      for (const auto& sc : plan.scaled_cases_list()) {
        check_critical(*variant_progs[v], sc.problem.bindings);
      }
    } else {
      for (const auto& problem : plan.problems()) {
        check_critical(*variant_progs[v], problem.bindings);
      }
    }
  }

  // Flatten the cross product in sweep order; a point's index is its
  // record slot, so the report ordering is independent of scheduling.
  struct Point {
    const std::string* machine = nullptr;        // registry name (for the record)
    const machine::MachineModel* mach = nullptr; // resolved once per machine
    std::size_t variant = 0;
    const ProblemCase* problem = nullptr;
    int nprocs = 0;
  };
  struct Chunk {
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  constexpr std::size_t kChunkGranule = 256;
  std::vector<Point> points;
  std::vector<Chunk> chunks;
  {
    const obs::Span sched_span(trace, obs::Phase::ChunkSchedule, plan.point_count());
  points.reserve(plan.point_count());
  for (const auto& machine_name : plan.machine_names()) {
    // one registry lookup per machine instead of one per point
    const machine::MachineModel* mach = &machine(machine_name);
    for (std::size_t v = 0; v < plan.variants().size(); ++v) {
      if (plan.scaled_by_nprocs()) {
        // Scaled axis (weak scaling): the problem is already coupled to its
        // processor count, so the pairs replace the problems x nprocs product.
        for (const auto& sc : plan.scaled_cases_list()) {
          points.push_back(Point{&machine_name, mach, v, &sc.problem, sc.nprocs});
        }
      } else {
        for (const auto& problem : plan.problems()) {
          for (const int np : plan.nprocs_list()) {
            points.push_back(Point{&machine_name, mach, v, &problem, np});
          }
        }
      }
    }
  }
  report.records.resize(points.size());

  // Partition the sweep into chunks: maximal runs of consecutive points
  // sharing (compiled program, machine) — the lockstep lane contract —
  // capped at a fixed granule. The cap is deliberately a constant, NOT
  // batch_size, so the partition depends only on the plan — identical for
  // every batch size, worker count, and SIMD width. Lockstep batching happens
  // *inside* a chunk in windows of at most batch_size lanes; batch_size <=
  // 1 degenerates to one-lane windows.
  chunks.reserve(points.size() / kChunkGranule + 1);
  for (std::size_t i = 0; i < points.size();) {
    std::size_t j = i + 1;
    while (j < points.size() && j - i < kChunkGranule &&
           points[j].mach == points[i].mach && points[j].variant == points[i].variant) {
      ++j;
    }
    chunks.push_back(Chunk{i, j});
    i = j;
  }
  }  // ChunkSchedule span closes here

  const std::size_t lane_width =
      options.batch_size > 1 ? static_cast<std::size_t>(options.batch_size) : 1;
  // RunRecord reads only totals and phase sums, never the per-AAU /
  // per-processor tables or a trace, so the sweep predicts lean (identical
  // phase arithmetic, no table copies; EngineArena::predict_batch) and
  // untraced: a traced plan would build its events only to drop them.
  core::PredictOptions sweep_predict = plan.predict_opts();
  sweep_predict.trace = false;

  // Batch telemetry accumulates through order-independent integer sums, so
  // RunReport::batch is deterministic under any worker interleaving.
  std::atomic<std::size_t> batched_points{0};
  std::atomic<std::size_t> scalar_points{0};
  std::atomic<std::size_t> replayed_points{0};
  std::atomic<std::uint64_t> ir_visits{0};
  std::atomic<std::uint64_t> lane_visits{0};
  std::atomic<std::uint64_t> evicted_lanes{0};
  std::atomic<std::uint64_t> simd_stripes{0};

  // Worker-owned state reused across chunks (no per-chunk allocation in
  // steady state).
  struct WorkerScratch {
    EngineArena arena;
    std::vector<core::BatchLane> lanes;             // chunk lanes, offset order
    std::vector<LayoutStore::Ptr> layouts;          // keep-alives, offset order
    std::vector<int> evicted;                       // one window's evicted lanes
    std::vector<std::size_t> round;                 // a round's offsets, point order
    std::vector<std::size_t> next;                  // its evicted offsets, point order
    std::vector<core::BatchLane> window;            // one window's lanes
    std::vector<compiler::SeededValues> seeds;      // one per problem of the chunk
    std::vector<compiler::LayoutDigest> tape_keys;  // value-tape keys, offset order
  };

  // One worker claim = one chunk. The chunk runs as rounds of lockstep
  // windows: the fresh points in point order, then the lanes the round
  // evicted, again in point order, until none remain. A round in which no
  // lane finishes (failure evictions can empty every window) hands the
  // rest to one-lane windows, which never evict. Records are assembled by
  // point index and a lane's arithmetic does not depend on its window, so
  // the record payload is byte-identical for any batch size or worker
  // count.
  const auto run_chunk = [&](const Chunk& c, WorkerScratch& ws) {
    const std::size_t n = c.end - c.begin;
    const Point& p0 = points[c.begin];
    const auto& variant = plan.variants()[p0.variant];
    const compiler::CompiledProgram& prog = *variant_progs[p0.variant];
    const machine::MachineModel& mach = *p0.mach;
    EngineArena& arena = ws.arena;
    arena.set_trace(trace);  // two stores per chunk; spans stay disabled when null

    // Layout lookups happen per point, in point order — exactly one lookup
    // per point for every batch size, which keeps report.cache identical
    // across them all.
    ws.lanes.clear();
    ws.layouts.clear();
    ws.seeds.clear();
    ws.seeds.reserve(n);  // at most one fold per point: lanes' pointers stay valid
    ws.tape_keys.clear();
    // The digest's (program, bindings) prefix is computed once per problem:
    // a chunk walks problems × nprocs with equal bindings adjacent, so
    // points finish a captured prefix state instead of re-hashing the whole
    // binding set. The same per-problem boundary folds the parameters the
    // lanes start from and derives the value-tape key.
    const front::Bindings* prefix_of = nullptr;
    compiler::LayoutDigestState prefix{};
    const compiler::SeededValues* seed = nullptr;
    compiler::LayoutDigest tape_key;
    for (std::size_t i = c.begin; i < c.end; ++i) {
      const Point& pt = points[i];
      compiler::LayoutOptions lo;
      lo.nprocs = pt.nprocs;
      if (variant.grid_rank) {
        lo.grid_shape =
            compiler::ProcGrid::factorized(pt.nprocs, *variant.grid_rank).shape;
      }
      if (&pt.problem->bindings != prefix_of) {
        prefix = compiler::layout_fingerprint_prefix(prog, pt.problem->bindings);
        prefix_of = &pt.problem->bindings;
        ws.seeds.push_back(compiler::seed_values(prog.symbols, pt.problem->bindings));
        seed = &ws.seeds.back();
        if (plan.measure_runs() > 0) {
          tape_key = compiler::value_tape_key(prog, pt.problem->bindings,
                                              plan.sim_opts().max_while_trips);
        }
      }
      ws.layouts.push_back(layout_for(prog, pt.problem->bindings, lo,
                                      compiler::layout_fingerprint_finish(prefix, lo)));
      ws.lanes.push_back(
          core::BatchLane{ws.layouts.back().get(), &pt.problem->bindings, seed});
      ws.tape_keys.push_back(tape_key);
    }

    // Local tallies, flushed to the shared atomics once per chunk.
    std::size_t batched_n = 0, scalar_n = 0, replayed_n = 0;
    std::uint64_t ir_n = 0, lanes_n = 0, evicted_n = 0, stripes_n = 0;

    const auto assemble = [&](std::size_t off, const core::PredictionResult& pred) {
      const Point& pt = points[c.begin + off];
      RunRecord& rec = report.records[c.begin + off];
      rec.machine = *pt.machine;
      rec.variant = variant.name;
      rec.problem = pt.problem->name;
      rec.nprocs = pt.nprocs;
      rec.comparison.estimated = pred.total;
      rec.phases = PhaseBreakdown{pred.comp, pred.comm, pred.overhead, pred.wait};
    };

    // One lockstep window over the chunk offsets `offs`; returns how many
    // of its points finish. A point that finishes here counts as batched
    // when the window has two or more lanes, else as replayed (evicted
    // before) or scalar (fresh). Evicted offsets join `next`; windows run
    // in point order and report evictions in lane order, so `next` stays
    // sorted.
    const auto run_window = [&](std::span<const std::size_t> offs, bool replay) {
      ws.window.clear();
      for (const std::size_t off : offs) ws.window.push_back(ws.lanes[off]);
      core::BatchRunStats bs;
      const std::span<const core::PredictionResult> preds =
          arena.predict_batch(prog, mach, sweep_predict, ws.window, bs, ws.evicted);
      ir_n += bs.ir_visits;
      lanes_n += bs.lane_visits;
      stripes_n += bs.simd_stripes;
      evicted_n += bs.evicted_lanes;
      std::size_t& finished_n = offs.size() >= 2 ? batched_n : replay ? replayed_n : scalar_n;
      std::size_t finished = 0;
      std::size_t e = 0;
      for (std::size_t k = 0; k < offs.size(); ++k) {
        if (e < ws.evicted.size() && ws.evicted[e] == static_cast<int>(k)) {
          ws.next.push_back(offs[k]);
          ++e;
          continue;
        }
        assemble(offs[k], preds[k]);
        ++finished;
      }
      finished_n += finished;
      return finished;
    };

    ws.round.resize(n);
    std::iota(ws.round.begin(), ws.round.end(), std::size_t{0});
    for (bool replay = false; !ws.round.empty(); replay = true) {
      ws.next.clear();
      const std::span<const std::size_t> round(ws.round);
      std::size_t finished = 0;
      for (std::size_t f = 0; f < round.size(); f += lane_width) {
        finished += run_window(round.subspan(f, std::min(lane_width, round.size() - f)), replay);
      }
      ws.round.swap(ws.next);
      if (finished == 0) {  // one-lane windows never evict
        for (const std::size_t off : ws.round) run_window({&off, 1}, true);
        break;
      }
    }

    // Measurement: one batched pass over the whole chunk in point order —
    // per-point bit-identical to Session::measure of the point, independent
    // of how prediction grouped the lanes. The first point of each (value digest,
    // problem) in the session runs the functional pass; the rest — other
    // processor counts, machines and directive variants — re-time its
    // value tape.
    if (plan.measure_runs() > 0) {
      const std::span<const sim::MeasuredResult> measured =
          arena.measure_batch_into(prog, mach, plan.sim_opts(), plan.measure_runs(),
                                   ws.lanes, ws.tape_keys, value_tapes_for(prog),
                                   noise_streams_);
      for (std::size_t off = 0; off < n; ++off) {
        RunRecord& rec = report.records[c.begin + off];
        const sim::RunStats& st = measured[off].stats;
        rec.comparison.measured_mean = st.mean;
        rec.comparison.measured_min = st.min;
        rec.comparison.measured_max = st.max;
        rec.comparison.measured_stddev = st.stddev;
        rec.measured = true;
      }
    }

    batched_points.fetch_add(batched_n, std::memory_order_relaxed);
    scalar_points.fetch_add(scalar_n, std::memory_order_relaxed);
    replayed_points.fetch_add(replayed_n, std::memory_order_relaxed);
    ir_visits.fetch_add(ir_n, std::memory_order_relaxed);
    lane_visits.fetch_add(lanes_n, std::memory_order_relaxed);
    evicted_lanes.fetch_add(evicted_n, std::memory_order_relaxed);
    simd_stripes.fetch_add(stripes_n, std::memory_order_relaxed);
  };

  int workers = options.workers;
  if (workers <= 0) workers = static_cast<int>(std::thread::hardware_concurrency());
  workers = std::clamp<int>(workers, 1, static_cast<int>(chunks.size()));

  if (workers == 1) {
    // the serial path: no threads, chunks executed in order through one arena
    WorkerScratch ws;
    for (const Chunk& c : chunks) run_chunk(c, ws);
  } else {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;
    const auto worker = [&] {
      WorkerScratch ws;  // worker-owned: reused across all its chunks
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= chunks.size() || failed.load()) return;
        try {
          run_chunk(chunks[i], ws);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
          failed.store(true);
          return;
        }
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
    if (error) std::rethrow_exception(error);
  }

  report.batch.batched_points = batched_points.load();
  report.batch.scalar_points = scalar_points.load();
  report.batch.replayed_points = replayed_points.load();
  report.batch.ir_visits = ir_visits.load();
  report.batch.lane_visits = lane_visits.load();
  report.batch.evicted_lanes = evicted_lanes.load();
  report.batch.simd_stripes = simd_stripes.load();
  report.cache = cache_stats() - before;
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  // Metrics are published after the report is assembled, so a throwing
  // registry (kind clash) can never corrupt a sweep, and a null registry
  // costs one branch. Counters are cumulative across runs; the occupancy
  // gauge reflects the most recent run.
  if (options.metrics != nullptr) {
    obs::Registry& reg = *options.metrics;
    reg.counter("hpf90d_run_points_total", "Sweep points executed by Session::run")
        .add(points.size());
    reg.counter("hpf90d_run_batched_points_total", "Points priced in lockstep batches")
        .add(report.batch.batched_points);
    reg.counter("hpf90d_run_scalar_points_total", "Points priced alone in a fresh one-lane window")
        .add(report.batch.scalar_points);
    reg.counter("hpf90d_run_replayed_points_total", "Evicted points finished alone")
        .add(report.batch.replayed_points);
    reg.counter("hpf90d_run_evicted_lanes_total", "Lanes evicted from lockstep windows")
        .add(report.batch.evicted_lanes);
    reg.gauge("hpf90d_run_lockstep_occupancy", "Mean active lanes per batch IR visit, last run")
        .set(report.batch.mean_lanes_per_visit());
    reg.histogram("hpf90d_run_wall_seconds", "Session::run wall time",
                  {0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0})
        .observe(report.wall_seconds);
  }
  return report;
}

void Session::set_artifact_spill(std::shared_ptr<ArtifactSpill> spill) {
  spill_ = std::move(spill);
  if (spill_) {
    // The store probes/writes through the interface; a corrupt or missing
    // artifact degrades to a plain miss.
    LayoutStore::Spill hooks;
    hooks.load = [spill = spill_](const std::string& key) -> LayoutStore::Ptr {
      try {
        if (auto layout = spill->load_layout(key)) {
          return std::make_shared<const compiler::DataLayout>(*std::move(layout));
        }
      } catch (...) {
      }
      return nullptr;
    };
    hooks.store = [spill = spill_](const std::string& key,
                                   const compiler::DataLayout& layout) {
      try {
        spill->store_layout(key, layout);
      } catch (...) {
      }
    };
    layout_store_.set_spill(std::move(hooks));
  } else {
    layout_store_.set_spill({});
  }
}

std::size_t Session::warm_start() {
  if (!spill_) return 0;
  std::size_t warmed = 0;
  for (const ProgramRecipe& recipe : spill_->load_programs()) {
    try {
      (void)compile_cached(recipe.source, recipe.overrides, recipe.options);
      ++warmed;
    } catch (...) {
      // stale recipe (e.g. from an older grammar); warm what still compiles
    }
  }
  return warmed;
}

std::size_t Session::cached_programs() const { return programs_.size(); }

std::size_t Session::cached_layouts() const { return layout_store_.size(); }

std::size_t Session::cached_noise_streams() const { return noise_streams_.size(); }

}  // namespace hpf90d::api
