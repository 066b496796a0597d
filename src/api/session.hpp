// session.hpp — the experiment session, the framework's public entry point.
//
// The paper's environment is interactive (§5.2): compile once, then sweep
// directives, problem sizes, and machine sizes while comparing predicted
// and measured times. A Session makes that workflow first-class:
//
//   * it owns a MachineRegistry of named machine abstractions,
//   * it memoizes CompiledPrograms keyed by (source hash, directive
//     overrides, compiler options) so re-evaluating a variant never
//     re-runs the compiler,
//   * it memoizes DataLayouts keyed by *content* — a structural fingerprint
//     of (directives, symbol extents, bindings, nprocs, grid shape) — so
//     session-owned and externally owned programs share entries, and
//     entries survive program eviction,
//   * it keeps one simulator value tape per (value digest, bindings), so
//     a measured sweep runs each problem's functional pass once and
//     re-times it for every processor count, machine and directive variant,
//   * it keeps one noise stream per noise seed (a few at a time), so every
//     timing walk of that seed reads its noise draws back instead of
//     seeding an engine and re-deriving them,
//   * it executes whole ExperimentPlans batched on a worker pool (sweep
//     points are independent), returning a RunReport whose records,
//     ordering, estimates, and cache statistics are identical for any
//     worker count.
//
// Every cache above — programs, layouts, value tapes, noise streams, and
// run()'s critical-variable verdicts — is an api::OnceStore
// (layout_store.hpp).
//
// Thread safety: compile/predict/measure/compare and the caches they use
// may be called concurrently. Cache entries have per-entry once semantics:
// a placeholder future is inserted under the store lock and the artifact
// is built OUTSIDE it, so concurrent builds of distinct keys proceed in
// parallel while every unique key still misses exactly once — which is
// what keeps RunReport cache statistics deterministic under parallel
// execution. The layout store can additionally be bounded
// (set_layout_cache_capacity): entries are retired in LRU order and
// eviction counts surface in the cache stats.
//
// Session::run has one scheduler. The sweep is cut into chunks of points
// sharing (program, machine); a worker pool claims chunks, and each worker
// owns an EngineArena — a reusable BatchEngine/Executor pair — so the
// steady-state hot path allocates nothing per point (see
// engine_arena.hpp). Inside a chunk, points are priced in lockstep windows
// of up to RunOptions::batch_size lanes (core::BatchEngine); a lane that
// leaves lockstep finishes in a one-lane window, after the chunk's fresh
// windows and in point order. A sweep predicts untraced and lean (totals
// and phase sums only); predict() honours PredictOptions::trace and fills
// every table.
//
// Every measured point, from measure() or run(), goes through one loop,
// EngineArena::measure_batch_into: the point's value tape (from the
// session's store, or the arena's scratch tape for a program without a
// value digest) re-timed once per run.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/layout_store.hpp"
#include "api/machine_registry.hpp"
#include "api/run_report.hpp"
#include "api/spill.hpp"
#include "compiler/pipeline.hpp"
#include "core/engine.hpp"
#include "sim/executor.hpp"

namespace hpf90d::obs {
class Registry;
class Sink;
}  // namespace hpf90d::obs

namespace hpf90d::api {

class ExperimentPlan;

/// One experiment configuration addressed at a *named* machine.
struct RunConfig {
  std::string machine = "ipsc860";
  int nprocs = 1;
  std::optional<std::vector<int>> grid_shape;  // e.g. {2,2}
  front::Bindings bindings;
  int runs = 3;  // simulated "measurement" repetitions
  core::PredictOptions predict;
  sim::SimOptions sim;
};

/// Execution options for Session::run. Sweep points are independent
/// (prediction is pure; measurement reads only the point's own state and
/// the session's shared caches), so the cross product is dispatched to a
/// pool of workers. Every measured point of a plan draws its noise from the
/// same run seeds (sim::run_seed of the plan's seed), and the session's
/// noise-stream store relies on that sharing: all the workers read one
/// stream per seed.
struct RunOptions {
  /// Worker threads: 0 = std::thread::hardware_concurrency, 1 = today's
  /// serial path (no threads spawned). The RunReport's records, ordering,
  /// and estimates are identical for every setting; only wall_seconds
  /// changes. Cache statistics are also identical while the layout store
  /// is unbounded (the default) — under a finite set_layout_cache_capacity,
  /// concurrent inserts can evict a key one schedule would have kept, so
  /// miss/evict counts are only reproducible for serial runs or capacities
  /// covering the working set (see layout_store.hpp).
  int workers = 0;

  /// Maximum sweep points interpreted per lockstep batch: consecutive
  /// points sharing a compiled program and machine are grouped into chunks
  /// of at most this many lanes and priced together through
  /// core::BatchEngine's flat cost bytecode (see batch_engine.hpp). The
  /// partition is deterministic and independent of `workers`, and the
  /// report's records/ordering/estimates/cache stats are byte-identical for
  /// every value. <= 1 prices every point in its own one-lane window.
  /// Effectiveness counters land in RunReport::batch.
  int batch_size = 64;

  /// Tracing sink for this run (overrides the session-level sink when
  /// set): compile, chunk-schedule, lockstep-window and measure spans are
  /// recorded into it. nullptr (the default) falls back
  /// to Session::set_trace_sink's sink, and with neither attached the
  /// spans cost one predicted branch each — the report stays
  /// byte-identical to an untraced run either way (tracing never alters
  /// results, only records timings).
  obs::Sink* trace = nullptr;

  /// Metrics registry for this run: run wall time and batching
  /// effectiveness counters are published into it after the sweep
  /// (see README "Observability" for the metric names). nullptr disables.
  obs::Registry* metrics = nullptr;
};

class Session {
 public:
  /// Programs are cached and shared; handles stay valid for the session's
  /// lifetime (and beyond, being shared_ptr).
  using ProgramHandle = std::shared_ptr<const compiler::CompiledProgram>;

  /// `max_nodes` sizes every machine model instantiated by this session.
  explicit Session(int max_nodes = 8) : max_nodes_(max_nodes) {}

  [[nodiscard]] MachineRegistry& machines() noexcept { return registry_; }
  [[nodiscard]] const MachineRegistry& machines() const noexcept { return registry_; }

  /// The session-sized model for a registry name (default: the paper's
  /// testbed). Throws std::out_of_range for unregistered names.
  [[nodiscard]] const machine::MachineModel& machine(
      std::string_view name = "ipsc860") const {
    return registry_.get(name, max_nodes_);
  }

  // --- phase 1: compilation (memoized) --------------------------------------
  [[nodiscard]] ProgramHandle compile(std::string_view source,
                                      const compiler::CompilerOptions& options = {});
  [[nodiscard]] ProgramHandle compile_with_directives(
      std::string_view source, const std::vector<std::string>& overrides,
      const compiler::CompilerOptions& options = {});

  // --- phase 2: interpretation / simulated measurement -----------------------
  /// Source-driven performance prediction (layout memoized per config).
  [[nodiscard]] core::PredictionResult predict(const ProgramHandle& prog,
                                               const RunConfig& config);
  /// "Measurement" on the simulated machine.
  [[nodiscard]] sim::MeasuredResult measure(const ProgramHandle& prog,
                                            const RunConfig& config);
  /// Predict + measure + compare.
  [[nodiscard]] Comparison compare(const ProgramHandle& prog, const RunConfig& config);

  /// Byte budget of the value-tape store behind measure() and run(). A
  /// tape larger than the whole budget is used once and not kept.
  static constexpr std::size_t kValueTapeBudget = std::size_t{16} << 20;
  /// Noise streams kept at once (LRU), about 105 KB each: a plan's runs
  /// draw from runs() seeds.
  static constexpr std::size_t kNoiseStreams = 4;

  // --- batched execution ------------------------------------------------------
  /// Executes the plan's whole cross product through the caches on a worker
  /// pool; the report's cache stats cover exactly this run.
  [[nodiscard]] RunReport run(const ExperimentPlan& plan,
                              const RunOptions& options = {});

  [[nodiscard]] CacheStats cache_stats() const noexcept;
  [[nodiscard]] std::size_t cached_programs() const;
  [[nodiscard]] std::size_t cached_layouts() const;
  [[nodiscard]] std::size_t cached_noise_streams() const;

  /// LRU bound on the content-addressed layout store, in entries; 0 (the
  /// default) keeps it unbounded. Shrinking evicts immediately, coldest
  /// first; in-use layouts stay alive through their shared_ptr.
  void set_layout_cache_capacity(std::size_t capacity) {
    layout_store_.set_capacity(capacity);
  }
  [[nodiscard]] std::size_t layout_cache_capacity() const {
    return layout_store_.capacity();
  }

  // --- persistent spill tier --------------------------------------------------
  /// Attaches the disk tier behind the in-memory caches (nullptr detaches).
  /// Layout misses then probe the spill before building, fresh layouts are
  /// written through, and compile misses record their recipe for
  /// warm_start. Not safe to call concurrently with session operations; the
  /// spill itself must be thread-safe (see spill.hpp).
  void set_artifact_spill(std::shared_ptr<ArtifactSpill> spill);

  /// Recompiles every program recipe the spill has persisted, repopulating
  /// the program cache, and returns the number of programs warmed. A plan
  /// the daemon served before its restart then compiles-hits on every
  /// variant (the layouts load lazily from the spill on first touch).
  /// Recipes that no longer compile are skipped, not fatal. The misses
  /// counted here happen before any Session::run snapshot, so per-run
  /// cache statistics stay clean.
  std::size_t warm_start();

  // --- observability ----------------------------------------------------------
  /// Session-level tracing sink (nullptr detaches, the default): spans
  /// from every subsequent run/compile/layout build are recorded into it,
  /// including the layout store's build/spill spans. The sink must be
  /// thread-safe and outlive the session (or be detached first). Not safe
  /// to call concurrently with in-flight session operations.
  void set_trace_sink(obs::Sink* sink);


 private:
  [[nodiscard]] ProgramHandle compile_cached(std::string_view source,
                                             const std::vector<std::string>& overrides,
                                             const compiler::CompilerOptions& options);
  /// Memoized layout lookup by content fingerprint; `digest` is
  /// compiler::layout_fingerprint_digest(prog, bindings, lo) (run() finishes
  /// a per-problem prefix instead, so a warm lookup hashes nothing). The
  /// fingerprint string is only built on a miss with a spill attached. The
  /// returned shared_ptr keeps the layout alive across LRU eviction.
  [[nodiscard]] LayoutStore::Ptr layout_for(const compiler::CompiledProgram& prog,
                                            const front::Bindings& bindings,
                                            const compiler::LayoutOptions& lo,
                                            const compiler::LayoutDigest& digest) const;

  /// The value-tape store for `prog`; null for hand-built programs
  /// (compile_id 0), which carry no value digest.
  [[nodiscard]] ValueTapeStore* value_tapes_for(
      const compiler::CompiledProgram& prog) const noexcept {
    return prog.compile_id != 0 ? &value_tapes_ : nullptr;
  }

  [[nodiscard]] static compiler::LayoutOptions layout_options(const RunConfig& c) {
    compiler::LayoutOptions lo;
    lo.nprocs = c.nprocs;
    lo.grid_shape = c.grid_shape;
    return lo;
  }

  int max_nodes_;
  MachineRegistry registry_;

  /// Compiled programs, keyed by (source hash, directive overrides,
  /// compiler options); its counters are the compile hits and misses.
  OnceStore<compiler::CompiledProgram> programs_;

  /// Content-addressed layout store with an optional LRU bound.
  mutable LayoutStore layout_store_;

  /// The simulator's value tapes, one per (value digest, bindings, WHILE
  /// trip limit) — compiler::value_tape_key: the first measured point of a
  /// problem runs the functional pass, every other processor count, machine
  /// and directive variant of the same values re-times its tape.
  mutable ValueTapeStore value_tapes_{kValueTapeBudget,
                                      [](const sim::ValueTape& t) { return t.bytes(); }};

  /// The simulator's noise streams, one per noise seed (sim::NoiseStream):
  /// built on a seed's first measured run, read by every later walk.
  NoiseStreamStore noise_streams_{kNoiseStreams};

  /// Critical-variable verdicts for Session::run: analyze_critical depends
  /// only on the compilation and on WHICH names are bound (never their
  /// values), so the verdict is cached per (compile_id, bound-name set)
  /// across runs — a repeated sweep skips the 250-odd tree walks. The value
  /// is the diagnostic message, empty on success.
  OnceStore<std::string> critical_;

  /// Persistent artifact tier; null when no spill is attached.
  std::shared_ptr<ArtifactSpill> spill_;

  /// Session-level tracing sink; null keeps every span disabled.
  obs::Sink* obs_ = nullptr;
};

}  // namespace hpf90d::api
