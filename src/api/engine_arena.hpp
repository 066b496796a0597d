// engine_arena.hpp — per-worker reusable execution state for sweep runs.
//
// Constructing a fresh BatchEngine (and, for measured points, an Executor)
// for every window would allocate and throw away per-lane clocks, per-AAU
// metric tables, the SoA environment and simulator storage thousands of
// times per design study. An EngineArena avoids that: each Session::run
// worker owns one, and every window it executes rebinds the same
// engine/executor pair, so the steady-state hot path performs no per-point
// heap allocation while producing bit-identical records (rebinding is
// defined as equivalent to a fresh engine's first binding).
//
// measure_batch_into is the one measurement loop: every measured point,
// from Session::measure or from a sweep, is a timing walk per run of one
// value tape (sim/executor.hpp).
//
// The arena itself is not thread-safe — it is one worker's private state.
#pragma once

#include <span>

#include "api/layout_store.hpp"
#include "core/batch_engine.hpp"
#include "sim/executor.hpp"

namespace hpf90d::obs {
class Sink;
}  // namespace hpf90d::obs

namespace hpf90d::api {

class EngineArena {
 public:
  /// Lockstep prediction of one window: fills the arena's batch scratch
  /// with one lean PredictionResult per lane (total and phase sums, no
  /// tables; see BatchEngine::interpret) and returns it, valid until the
  /// next predict_batch call. `stats` receives the walk's effectiveness
  /// counters; `evicted` is set to the lanes that left lockstep, in lane
  /// order (see batch_engine.hpp), their result slots left unwritten for
  /// the caller to finish in one-lane windows.
  [[nodiscard]] std::span<const core::PredictionResult> predict_batch(
      const compiler::CompiledProgram& prog, const machine::MachineModel& machine,
      const core::PredictOptions& options, std::span<const core::BatchLane> lanes,
      core::BatchRunStats& stats, std::vector<int>& evicted);

  /// Batched measurement companion to predict_batch: measures every lane
  /// into the arena's scratch vector. Lane i's value tape is looked up in
  /// `tapes` under `tape_keys[i]`: a miss runs the functional pass once and
  /// publishes the tape (a throwing pass publishes nothing), a hit skips
  /// it. With `tapes` null (a program without a value digest), each lane
  /// records into the arena's own scratch tape instead. Either way the
  /// executor is rebound to the lane under run 0's seed, run 0 re-times the
  /// tape into the detail and runs 1.. re-time it for their totals, each
  /// with noise seed sim::run_seed(options.seed, r). With noise on, run r
  /// draws from its seed's stream in `streams`, built on the store's first
  /// lookup of that seed; the bits are those of a walk seeding its own
  /// engine. The returned span is valid until the next measure_batch_into
  /// call.
  [[nodiscard]] std::span<const sim::MeasuredResult> measure_batch_into(
      const compiler::CompiledProgram& prog, const machine::MachineModel& machine,
      const sim::SimOptions& options, int runs, std::span<const core::BatchLane> lanes,
      std::span<const compiler::LayoutDigest> tape_keys, ValueTapeStore* tapes,
      NoiseStreamStore& streams);

  /// Attaches a tracing sink (nullptr detaches, the default): batched
  /// measurements record obs::Phase::MeasureBatch spans and the lockstep
  /// engine records LockstepWindow spans. Results never change.
  void set_trace(obs::Sink* sink) noexcept;

 private:
  obs::Sink* obs_sink_ = nullptr;  // measure-batch span destination
  core::BatchEngine batch_engine_;
  sim::Executor executor_;
  std::vector<core::PredictionResult> batch_predictions_;  // predict_batch scratch
  std::vector<sim::MeasuredResult> batch_measured_;        // measure_batch_into scratch
  sim::ValueTape scratch_tape_;                            // ... a lane's tape without a store
  std::vector<NoiseStreamStore::Ptr> streams_;             // ... its runs' streams
  std::vector<const sim::NoiseStream*> stream_ptrs_;       // ... per run (null: noise off)
};

}  // namespace hpf90d::api
