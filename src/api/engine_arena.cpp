#include "api/engine_arena.hpp"

#include <algorithm>
#include <cmath>

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
                          evicted, /*detailed=*/false);
  return batch_predictions_;
}

std::span<const sim::MeasuredResult> EngineArena::measure_batch_into(
    const compiler::CompiledProgram& prog, const machine::MachineModel& machine,
    const sim::SimOptions& options, int runs, std::span<const core::BatchLane> lanes,
    std::span<const compiler::LayoutDigest> tape_keys, ValueTapeStore* tapes,
    NoiseStreamStore& streams) {
  const obs::Span span(obs_sink_, obs::Phase::MeasureBatch, lanes.size());
  const int n_runs = std::max(1, runs);
  batch_measured_.resize(lanes.size());
  streams_.clear();
  stream_ptrs_.assign(static_cast<std::size_t>(n_runs), nullptr);
  if (options.noise) {
    for (int r = 0; r < n_runs; ++r) {
      const std::uint64_t seed = sim::run_seed(options.seed, r);
      streams_.push_back(streams.get_or_build(compiler::LayoutDigest{seed, 0}, nullptr,
                                              [seed] { return sim::NoiseStream(seed); }));
      stream_ptrs_[static_cast<std::size_t>(r)] = streams_.back().get();
    }
  }
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const core::BatchLane& lane = lanes[i];
    const auto record = [&](sim::ValueTape& tape) {
      obs::Span pass(obs_sink_, obs::Phase::SimValuePass);
      executor_.rebind(prog, *lane.layout, machine, options, *lane.bindings);
      executor_.record(tape);
      pass.set_arg(tape.bytes());
    };
    ValueTapeStore::Ptr stored;
    const sim::ValueTape* tape = &scratch_tape_;
    if (tapes != nullptr) {
      stored = tapes->get_or_build(tape_keys[i], nullptr, [&] {
        sim::ValueTape recorded;
        record(recorded);
        return recorded;
      });
      tape = stored.get();
    } else {
      record(scratch_tape_);
    }

    const obs::Span retime(obs_sink_, obs::Phase::SimRetime, static_cast<std::uint64_t>(n_runs));
    sim::MeasuredResult& out = batch_measured_[i];
    sim::RunStats& st = out.stats;
    st.samples.clear();
    // run 0's seed, run_seed(options.seed, 0), is options.seed itself
    executor_.rebind(prog, *lane.layout, machine, options, *lane.bindings);
    executor_.retime_into(*tape, sim::run_seed(options.seed, 0), out.detail, stream_ptrs_[0]);
    st.samples.push_back(out.detail.total);
    for (int r = 1; r < n_runs; ++r) {
      st.samples.push_back(executor_.retime(*tape, sim::run_seed(options.seed, r),
                                            stream_ptrs_[static_cast<std::size_t>(r)]));
    }
    st.mean = 0.0;
    st.min = 1e300;
    st.max = 0.0;
    for (const double s : st.samples) {
      st.mean += s;
      st.min = std::min(st.min, s);
      st.max = std::max(st.max, s);
    }
    const double n = static_cast<double>(st.samples.size());
    st.mean /= n;
    double var = 0.0;
    for (const double s : st.samples) var += (s - st.mean) * (s - st.mean);
    st.stddev = std::sqrt(var / n);
  }
  // an evicted stream lives no longer than its last walk
  streams_.clear();
  stream_ptrs_.clear();
  return batch_measured_;
}

}  // namespace hpf90d::api
