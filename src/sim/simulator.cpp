#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>

namespace hpf90d::sim {

void Simulator::measure_into(const compiler::CompiledProgram& prog,
                             const front::Bindings& bindings,
                             const compiler::DataLayout& layout,
                             const SimOptions& options, int runs, Executor& arena,
                             MeasuredResult& out, const ValueTape* tape,
                             std::span<const NoiseStream* const> streams) const {
  out.stats.samples.clear();
  out.stats.mean = 0.0;
  out.stats.stddev = 0.0;
  out.stats.min = 1e300;
  out.stats.max = 0.0;
  for (int r = 0; r < std::max(1, runs); ++r) {
    const std::uint64_t seed = run_seed(options.seed, r);
    const NoiseStream* stream =
        static_cast<std::size_t>(r) < streams.size() ? streams[static_cast<std::size_t>(r)]
                                                     : nullptr;
    double total = 0.0;
    if (r == 0) {
      // Run 0 fills the detail: the functional pass when no tape is shared,
      // then the timing walk. Runs 1.. re-time the same tape.
      SimOptions run_opts = options;
      run_opts.seed = seed;
      arena.rebind(prog, layout, machine_, run_opts, bindings);
      if (tape == nullptr) {
        arena.run_into(out.detail, stream);
      } else {
        arena.retime_into(*tape, seed, out.detail, stream);
      }
      total = out.detail.total;
    } else {
      total = tape == nullptr ? arena.replay(seed, stream) : arena.retime(*tape, seed, stream);
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

}  // namespace hpf90d::sim
