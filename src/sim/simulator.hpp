// simulator.hpp — the "measurement" facade.
//
// The paper's measured timings are averages of 1000 runs on the real cube
// with the variance attributed to timing tolerance and system load (§5.1).
// Simulator::measure repeats the simulation with different noise seeds and
// reports the same statistics (mean / min / max / stddev) so the accuracy
// benches can test the paper's claim that interpreted times typically fall
// within the measured variance. Noise perturbs only timing, never values,
// so the program's values are simulated once: run 0 is the functional pass
// and records a timing tape, and every later run replays only the timing
// from it (Executor::replay).
#pragma once

#include <span>

#include "compiler/mapping.hpp"
#include "compiler/pipeline.hpp"
#include "compiler/spmd_ir.hpp"
#include "machine/sag.hpp"
#include "sim/executor.hpp"

namespace hpf90d::sim {

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
  /// arena (and its timing tape) serves a whole sweep without per-run
  /// allocation. The statistics are bit-identical to the constructing
  /// overloads.
  [[nodiscard]] MeasuredResult measure(const compiler::CompiledProgram& prog,
                                       const front::Bindings& bindings,
                                       const compiler::DataLayout& layout,
                                       const SimOptions& options, int runs,
                                       Executor& arena) const;

  /// The fully reusing form behind all the overloads above: fills `out` in
  /// place (previous contents discarded, buffers recycled) — run 0 through
  /// Executor::run_into, the rest through Executor::replay — so a caller
  /// holding one MeasuredResult and one Executor per worker measures a
  /// whole sweep without per-point result allocation. Contents are
  /// bit-identical to measure().
  void measure_into(const compiler::CompiledProgram& prog,
                    const front::Bindings& bindings,
                    const compiler::DataLayout& layout, const SimOptions& options,
                    int runs, Executor& arena, MeasuredResult& out) const;

  /// Batched form for the lockstep sweep path: measures every lane of a
  /// same-program batch through one executor arena, filling out[i] with
  /// exactly what measure_into of (bindings[i], layouts[i]) produces.
  /// Unlike prediction, simulation materializes real array data, so this is
  /// a buffer-reusing lane loop rather than an SoA walk: each lane runs one
  /// functional pass plus timing replays through the shared arena, and one
  /// SimResult scratch cycles through the whole batch. `out` is resized to
  /// the lane count.
  void measure_batch_into(const compiler::CompiledProgram& prog,
                          std::span<const front::Bindings* const> bindings,
                          std::span<const compiler::DataLayout* const> layouts,
                          const SimOptions& options, int runs, Executor& arena,
                          std::vector<MeasuredResult>& out) const;

 private:
  /// Shared-scratch core behind measure_into / measure_batch_into:
  /// `scratch` cycles buffers with the arena (and with out.detail via the
  /// first-run swap), so batch callers thread one SimResult through every
  /// lane. Run 0 rebinds the arena and runs it; runs >= 1 replay its tape.
  void measure_into(const compiler::CompiledProgram& prog,
                    const front::Bindings& bindings,
                    const compiler::DataLayout& layout, const SimOptions& options,
                    int runs, Executor& arena, MeasuredResult& out,
                    SimResult& scratch) const;

  const machine::MachineModel& machine_;
};

}  // namespace hpf90d::sim
