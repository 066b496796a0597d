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
    std::span<const compiler::LayoutDigest> tape_keys, ValueTapeStore* tapes) {
  const obs::Span span(obs_sink_, obs::Phase::MeasureBatch, lanes.size());
  const sim::Simulator simulator(machine);
  batch_measured_.resize(lanes.size());
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
                           batch_measured_[i], tape.get());
  }
  return batch_measured_;
}

}  // namespace hpf90d::api
