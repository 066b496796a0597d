#include "api/engine_arena.hpp"

#include "obs/obs.hpp"

namespace hpf90d::api {

void EngineArena::set_trace(obs::Sink* sink) noexcept {
  obs_sink_ = sink;
  batch_engine_.set_trace(sink);
}

std::span<const core::PredictionResult> EngineArena::predict_batch(
    const compiler::CompiledProgram& prog, const machine::MachineModel& machine,
    const core::PredictOptions& options, std::span<const core::BatchLane> lanes,
    core::BatchRunStats& stats, std::vector<core::EvictedLane>& deferred) {
  batch_predictions_.resize(lanes.size());
  batch_engine_.interpret(prog, machine, options, lanes, batch_predictions_.data(), stats,
                          deferred);
  return batch_predictions_;
}

std::span<const sim::MeasuredResult> EngineArena::measure_batch_into(
    const compiler::CompiledProgram& prog, const machine::MachineModel& machine,
    const sim::SimOptions& options, int runs, std::span<const core::BatchLane> lanes) {
  const obs::Span span(obs_sink_, obs::Phase::MeasureBatch, lanes.size());
  lane_bindings_.clear();
  lane_layouts_.clear();
  for (const core::BatchLane& lane : lanes) {
    lane_bindings_.push_back(lane.bindings);
    lane_layouts_.push_back(lane.layout);
  }
  const sim::Simulator simulator(machine);
  simulator.measure_batch_into(prog, lane_bindings_, lane_layouts_, options, runs,
                               executor_, batch_measured_);
  return batch_measured_;
}

}  // namespace hpf90d::api
