#include "api/engine_arena.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace hpf90d::api {

void EngineArena::set_trace(obs::Sink* sink) noexcept {
  obs_sink_ = sink;
  batch_engine_.set_trace(sink);
}

std::span<const core::PredictionResult> EngineArena::predict_batch(
    const compiler::CompiledProgram& prog, const machine::MachineModel& machine,
    const core::PredictOptions& options, std::span<const core::BatchLane> lanes,
    core::BatchRunStats& stats, std::vector<int>& evicted) {
  batch_predictions_.resize(lanes.size());
  batch_engine_.interpret(prog, machine, options, lanes, batch_predictions_.data(), stats,
                          evicted);
  return batch_predictions_;
}

std::span<const sim::MeasuredResult> EngineArena::measure_batch_into(
    const compiler::CompiledProgram& prog, const machine::MachineModel& machine,
    const sim::SimOptions& options, int runs, std::span<const core::BatchLane> lanes,
    std::span<const compiler::LayoutDigest> tape_keys, ValueTapeStore* tapes,
    NoiseStreamStore* streams) {
  const obs::Span span(obs_sink_, obs::Phase::MeasureBatch, lanes.size());
  const sim::Simulator simulator(machine);
  batch_measured_.resize(lanes.size());
  streams_.clear();
  stream_ptrs_.clear();
  if (streams != nullptr && options.noise) {
    for (int r = 0; r < std::max(1, runs); ++r) {
      const std::uint64_t seed = sim::run_seed(options.seed, r);
      streams_.push_back(streams->get_or_build(compiler::LayoutDigest{seed, 0}, nullptr,
                                               [seed] { return sim::NoiseStream(seed); }));
      stream_ptrs_.push_back(streams_.back().get());
    }
  }
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const core::BatchLane& lane = lanes[i];
    ValueTapeStore::Ptr tape;
    if (tapes != nullptr) {
      tape = tapes->get_or_build(tape_keys[i], nullptr, [&] {
        obs::Span pass(obs_sink_, obs::Phase::SimValuePass);
        sim::ValueTape recorded;
        executor_.rebind(prog, *lane.layout, machine, options, *lane.bindings);
        executor_.record(recorded);
        pass.set_arg(recorded.bytes());
        return recorded;
      });
    }
    const obs::Span retime(obs_sink_, obs::Phase::SimRetime,
                           static_cast<std::uint64_t>(std::max(1, runs)));
    simulator.measure_into(prog, *lane.bindings, *lane.layout, options, runs, executor_,
                           batch_measured_[i], tape.get(), stream_ptrs_);
  }
  // an evicted stream lives no longer than its last walk
  streams_.clear();
  stream_ptrs_.clear();
  return batch_measured_;
}

}  // namespace hpf90d::api
