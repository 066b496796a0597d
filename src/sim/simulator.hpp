// simulator.hpp — the "measurement" facade.
//
// The paper's measured timings are averages of 1000 runs on the real cube
// with the variance attributed to timing tolerance and system load (§5.1).
// Simulator::measure repeats the simulation with different noise seeds and
// reports the same statistics (mean / min / max / stddev) so the accuracy
// benches can test the paper's claim that interpreted times typically fall
// within the measured variance.
//
// A program's values depend only on its value digest and its bindings
// (compiler::value_digest): never on the mapping directives, the processor
// count, the grid, the machine, the noise seed, contention or the
// collective algorithm (SimOptions::max_while_trips decides only whether
// the pass throws). So the functional pass runs once per (value digest,
// bindings) and records a ValueTape; every run of every (layout, machine)
// point is a timing walk of that tape (see executor.hpp). measure_into
// takes a tape recorded elsewhere, which is how the session shares one
// functional pass across a whole sweep. Within one point, run 0's walk
// derives the timing plan: every loop visit's per-processor counts and
// seed-independent charges under the point's layout and machine. Runs 1..
// read it back and draw only their own noise and network events. Run r's
// noise seed is run_seed(options.seed, r), so every point of a sweep draws
// from the same few seeds: given their NoiseStreams (the session keeps them),
// a walk reads its seed's memoized draws instead of seeding an engine.
#pragma once

#include <cstdint>
#include <span>

#include "compiler/mapping.hpp"
#include "compiler/pipeline.hpp"
#include "compiler/spmd_ir.hpp"
#include "machine/sag.hpp"
#include "sim/executor.hpp"

namespace hpf90d::sim {

/// The noise seed of run `run` of a measurement under base seed `seed`.
[[nodiscard]] constexpr std::uint64_t run_seed(std::uint64_t seed, int run) noexcept {
  return seed + static_cast<std::uint64_t>(run) * 0x9e3779b97f4a7c15ULL;
}

struct RunStats {
  double mean = 0;
  double min = 0;
  double max = 0;
  double stddev = 0;
  std::vector<double> samples;
};

struct MeasuredResult {
  SimResult detail;  // the first run's full breakdown
  RunStats stats;    // total-time statistics across runs
};

class Simulator {
 public:
  explicit Simulator(const machine::MachineModel& machine) : machine_(machine) {}

  /// Measures the program over `runs` runs with derived seeds: one
  /// functional run, then `runs - 1` timing replays of it.
  [[nodiscard]] MeasuredResult measure(const compiler::CompiledProgram& prog,
                                       const front::Bindings& bindings,
                                       const compiler::LayoutOptions& layout_options,
                                       const SimOptions& options = {},
                                       int runs = 3) const;

  /// Same, against a prebuilt layout (the session API's memoized path).
  [[nodiscard]] MeasuredResult measure(const compiler::CompiledProgram& prog,
                                       const front::Bindings& bindings,
                                       const compiler::DataLayout& layout,
                                       const SimOptions& options = {},
                                       int runs = 3) const;

  /// Same, through a caller-owned executor arena: each point rebinds
  /// `arena` instead of constructing a fresh Executor, so a per-worker
  /// arena (and its value tape) serves a whole sweep without per-run
  /// allocation. The statistics are bit-identical to the constructing
  /// overloads.
  [[nodiscard]] MeasuredResult measure(const compiler::CompiledProgram& prog,
                                       const front::Bindings& bindings,
                                       const compiler::DataLayout& layout,
                                       const SimOptions& options, int runs,
                                       Executor& arena) const;

  /// The fully reusing form behind all the overloads above: fills `out` in
  /// place (previous contents discarded, buffers recycled), so a caller
  /// holding one MeasuredResult and one Executor per worker measures a
  /// whole sweep without per-point result allocation. With `tape` null,
  /// run 0 is the functional pass (Executor::run_into); with a tape of the
  /// same (value digest, bindings), recorded under any layout and machine, no
  /// value is computed at all. Either way every run is a timing walk of one
  /// tape under this point's layout, machine and seed, and the contents are
  /// bit-identical to measure(). `streams[r]`, where present and non-null,
  /// is run r's NoiseStream (built for run_seed(options.seed, r)); it only
  /// saves run r seeding and drawing its noise afresh.
  void measure_into(const compiler::CompiledProgram& prog,
                    const front::Bindings& bindings,
                    const compiler::DataLayout& layout, const SimOptions& options,
                    int runs, Executor& arena, MeasuredResult& out,
                    const ValueTape* tape = nullptr,
                    std::span<const NoiseStream* const> streams = {}) const;

 private:
  const machine::MachineModel& machine_;
};

}  // namespace hpf90d::sim
