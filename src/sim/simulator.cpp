#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace hpf90d::sim {

MeasuredResult Simulator::measure(const compiler::CompiledProgram& prog,
                                  const front::Bindings& bindings,
                                  const compiler::LayoutOptions& layout_options,
                                  const SimOptions& options, int runs) const {
  const compiler::DataLayout layout = compiler::make_layout(prog, bindings, layout_options);
  return measure(prog, bindings, layout, options, runs);
}

MeasuredResult Simulator::measure(const compiler::CompiledProgram& prog,
                                  const front::Bindings& bindings,
                                  const compiler::DataLayout& layout,
                                  const SimOptions& options, int runs) const {
  Executor arena;
  return measure(prog, bindings, layout, options, runs, arena);
}

MeasuredResult Simulator::measure(const compiler::CompiledProgram& prog,
                                  const front::Bindings& bindings,
                                  const compiler::DataLayout& layout,
                                  const SimOptions& options, int runs,
                                  Executor& arena) const {
  MeasuredResult out;
  measure_into(prog, bindings, layout, options, runs, arena, out);
  return out;
}

void Simulator::measure_into(const compiler::CompiledProgram& prog,
                             const front::Bindings& bindings,
                             const compiler::DataLayout& layout,
                             const SimOptions& options, int runs, Executor& arena,
                             MeasuredResult& out) const {
  // `res` cycles buffers with the arena via run_into, and with out.detail
  // via the r == 0 swap, so the steady state allocates nothing per run.
  SimResult res;
  measure_into(prog, bindings, layout, options, runs, arena, out, res);
}

void Simulator::measure_into(const compiler::CompiledProgram& prog,
                             const front::Bindings& bindings,
                             const compiler::DataLayout& layout,
                             const SimOptions& options, int runs, Executor& arena,
                             MeasuredResult& out, SimResult& scratch) const {
  out.stats.samples.clear();
  out.stats.mean = 0.0;
  out.stats.stddev = 0.0;
  out.stats.min = 1e300;
  out.stats.max = 0.0;
  // Run 0 is the one functional pass: it fills out.detail and records the
  // timing tape. Runs 1.. re-time that tape under their own seeds.
  for (int r = 0; r < std::max(1, runs); ++r) {
    const std::uint64_t seed =
        options.seed + static_cast<std::uint64_t>(r) * 0x9e3779b97f4a7c15ULL;
    double total = 0.0;
    if (r == 0) {
      SimOptions run_opts = options;
      run_opts.seed = seed;
      arena.rebind(prog, layout, machine_, run_opts, bindings);
      arena.run_into(scratch);
      total = scratch.total;
      std::swap(out.detail, scratch);
    } else {
      total = arena.replay(seed);
    }
    out.stats.samples.push_back(total);
    out.stats.mean += total;
    out.stats.min = std::min(out.stats.min, total);
    out.stats.max = std::max(out.stats.max, total);
  }
  const double n = static_cast<double>(out.stats.samples.size());
  out.stats.mean /= n;
  double var = 0.0;
  for (double s : out.stats.samples) {
    var += (s - out.stats.mean) * (s - out.stats.mean);
  }
  out.stats.stddev = std::sqrt(var / n);
}

void Simulator::measure_batch_into(const compiler::CompiledProgram& prog,
                                   std::span<const front::Bindings* const> bindings,
                                   std::span<const compiler::DataLayout* const> layouts,
                                   const SimOptions& options, int runs, Executor& arena,
                                   std::vector<MeasuredResult>& out) const {
  out.resize(bindings.size());
  // One SimResult scratch for the whole batch: it cycles buffers with the
  // arena lane after lane, so a 64-lane measured chunk allocates (at most)
  // one result's worth of vectors instead of 64.
  SimResult scratch;
  for (std::size_t i = 0; i < bindings.size(); ++i) {
    measure_into(prog, *bindings[i], *layouts[i], options, runs, arena, out[i], scratch);
  }
}

}  // namespace hpf90d::sim
