// Simulator tests: storage semantics, network contention, noise
// determinism, and functional correctness of simulated programs (the
// environment's "functional interpreter" role).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <new>
#include <map>
#include <span>
#include <optional>
#include <random>
#include <string>
#include <tuple>

#include "compiler/pipeline.hpp"
#include "api/api.hpp"
#include "api/engine_arena.hpp"
#include "machine/ipsc860.hpp"
#include "machine/paragon.hpp"
#include "machine/whatif.hpp"
#include "sim/network.hpp"
#include "sim/values.hpp"
#include "suite/suite.hpp"
#include "support/codec.hpp"
#include "support/diagnostics.hpp"
#include "support/text.hpp"

// Counts global operator new calls while g_count_news is set
// (TimingWalk.LaterSeedsAllocateNothing).
namespace {
std::atomic<bool> g_count_news{false};
std::atomic<long long> g_news{0};
}  // namespace

void* operator new(std::size_t bytes) {
  if (g_count_news.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t bytes) { return ::operator new(bytes); }
// Out of line, so no delete expression inlines to a free() of new'd memory.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace hpf90d {
namespace {

compiler::CompiledProgram comp(std::string_view src) { return compiler::compile(src); }

/// A fresh executor's functional pass: the tape every shared tape is held to.
sim::ValueTape record_fresh(const compiler::CompiledProgram& prog,
                            const compiler::DataLayout& layout,
                            const machine::MachineModel& machine,
                            const sim::SimOptions& options, const front::Bindings& bindings) {
  sim::Executor fresh;
  fresh.rebind(prog, layout, machine, options, bindings);
  sim::ValueTape tape;
  fresh.record(tape);
  return tape;
}

/// A fresh executor's functional pass and timing walk under the options'
/// seed, with its own noise engine: the reference every reused arena and
/// shared tape is held to.
sim::SimResult run_fresh(const compiler::CompiledProgram& prog,
                         const compiler::DataLayout& layout,
                         const machine::MachineModel& machine, const sim::SimOptions& options,
                         const front::Bindings& bindings) {
  sim::Executor fresh;
  fresh.rebind(prog, layout, machine, options, bindings);
  sim::ValueTape tape;
  fresh.record(tape);
  sim::SimResult out;
  fresh.retime_into(tape, options.seed, out);
  return out;
}

/// The reference measurement: a fresh executor's own functional pass, run
/// r's timing walk under sim::run_seed(options.seed, r) with its own noise
/// engine, run 0's into the detail, and the statistics over the samples.
sim::MeasuredResult measure(const machine::MachineModel& machine,
                            const compiler::CompiledProgram& prog,
                            const front::Bindings& bindings,
                            const compiler::DataLayout& layout,
                            const sim::SimOptions& options, int runs) {
  sim::Executor fresh;
  fresh.rebind(prog, layout, machine, options, bindings);
  sim::ValueTape tape;
  fresh.record(tape);
  sim::MeasuredResult out;
  std::vector<double>& samples = out.stats.samples;
  fresh.retime_into(tape, sim::run_seed(options.seed, 0), out.detail);
  samples.push_back(out.detail.total);
  for (int r = 1; r < runs; ++r) {
    samples.push_back(fresh.retime(tape, sim::run_seed(options.seed, r)));
  }
  const double n = static_cast<double>(samples.size());
  for (const double s : samples) out.stats.mean += s;
  out.stats.mean /= n;
  out.stats.min = *std::min_element(samples.begin(), samples.end());
  out.stats.max = *std::max_element(samples.begin(), samples.end());
  double var = 0.0;
  for (const double s : samples) var += (s - out.stats.mean) * (s - out.stats.mean);
  out.stats.stddev = std::sqrt(var / n);
  return out;
}
sim::MeasuredResult measure(const machine::MachineModel& machine,
                            const compiler::CompiledProgram& prog,
                            const front::Bindings& bindings,
                            const compiler::LayoutOptions& lo,
                            const sim::SimOptions& options, int runs) {
  return measure(machine, prog, bindings, compiler::make_layout(prog, bindings, lo), options,
                 runs);
}

struct SimFixture {
  machine::MachineModel machine = machine::make_ipsc860();

  sim::MeasuredResult run(const compiler::CompiledProgram& prog, int nprocs,
                          const front::Bindings& bindings = {}, int runs = 2) {
    compiler::LayoutOptions lo;
    lo.nprocs = nprocs;
    return measure(machine, prog, bindings, lo, {}, runs);
  }
};

/// A noise cursor reset to `seed`'s first draw.
sim::NoiseModel noise_at(std::uint64_t seed, bool enabled,
                         const sim::NoiseStream* stream = nullptr) {
  sim::NoiseModel model;
  model.reset(seed, enabled, stream);
  return model;
}

// --- Storage -----------------------------------------------------------------

constexpr const char* kTiny = R"f90(
program t
  parameter (n = 8)
  real v(n), w(n)
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ align w(i) with d(i)
!hpf$ distribute d(block)
  v(1) = 0.0
end program t
)f90";

TEST(Storage, RowMajorView) {
  auto prog = comp(R"f90(
program t
  parameter (n = 4, m = 3)
  real a(n,m)
!hpf$ template d(n)
!hpf$ align a(i,j) with d(i)
!hpf$ distribute d(block)
  a(1,1) = 0.0
end program t
)f90");
  const compiler::DataLayout layout =
      compiler::make_layout(prog, {}, compiler::LayoutOptions{1, {}});
  sim::Storage storage;
  storage.rebind(prog.symbols, layout);
  const compiler::ArrayView a = storage.view(prog.symbols.find("a"));
  ASSERT_NE(a.data, nullptr);
  EXPECT_EQ(a.extents[0], 4.0);
  EXPECT_EQ(a.extents[1], 3.0);
  EXPECT_EQ(a.strides[0], 3.0);  // row stride = m
  EXPECT_EQ(a.strides[1], 1.0);  // last dim contiguous
}

TEST(Storage, DefaultFillIsNearUnity) {
  auto prog = comp(kTiny);
  const compiler::DataLayout layout =
      compiler::make_layout(prog, {}, compiler::LayoutOptions{1, {}});
  sim::Storage storage;
  storage.rebind(prog.symbols, layout);
  const std::span<const double> v = storage.raw(prog.symbols.find("v"));
  ASSERT_EQ(v.size(), 8u);
  for (const double x : v) {
    EXPECT_GT(x, 0.85);
    EXPECT_LT(x, 1.15);
  }
}

TEST(Storage, DefaultFillIsThePerElementFormula) {
  // the fill computes one period of 257 values and copies it; every element
  // must still equal the formula of (symbol, i % 257)
  for (const long long n : {1LL, 100LL, 256LL, 257LL, 258LL, 600LL, 1031LL}) {
    const std::string src = "program t\n  parameter (n = " + std::to_string(n) +
                            ")\n  real a(n), b(2, n)\n  a(1) = 0.0\nend program t\n";
    const auto prog = comp(src);
    const compiler::DataLayout layout =
        compiler::make_layout(prog, {}, compiler::LayoutOptions{1, {}});
    sim::Storage storage;
    storage.rebind(prog.symbols, layout);
    for (const char* name : {"a", "b"}) {
      const int symbol = prog.symbols.find(name);
      const std::span<const double> data = storage.raw(symbol);
      ASSERT_EQ(data.size(), static_cast<std::size_t>(n * (name[0] == 'b' ? 2 : 1)));
      const double phase = static_cast<double>(symbol) * 0.7311;
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < data.size(); ++i) {
        const double want = 1.0 + 0.1 * std::sin(phase + 0.217 * static_cast<double>(i % 257));
        mismatches += std::bit_cast<std::uint64_t>(data[i]) != std::bit_cast<std::uint64_t>(want);
      }
      EXPECT_EQ(mismatches, 0u) << name << " n=" << n;
    }
  }
}

TEST(Storage, CshiftSemanticsMatchFortran) {
  auto prog = comp(kTiny);
  const compiler::DataLayout layout =
      compiler::make_layout(prog, {}, compiler::LayoutOptions{1, {}});
  sim::Storage storage;
  storage.rebind(prog.symbols, layout);
  const int v = prog.symbols.find("v");
  const int w = prog.symbols.find("w");
  const std::span<double> vs = storage.raw(v);
  for (std::size_t i = 0; i < vs.size(); ++i) vs[i] = static_cast<double>(i + 1);
  const std::span<const double> ws = storage.raw(w);
  storage.cshift_into(w, v, 0, 1);  // w(i) = v(1 + mod(i-1+1, 8))
  EXPECT_DOUBLE_EQ(ws[0], 2.0);
  EXPECT_DOUBLE_EQ(ws[7], 1.0);  // wraps around
  storage.cshift_into(w, v, 0, -1);
  EXPECT_DOUBLE_EQ(ws[0], 8.0);
  storage.cshift_into(w, v, 0, 17);  // shifts wrap modulo the extent
  EXPECT_DOUBLE_EQ(ws[0], 2.0);
}

TEST(Storage, CshiftRotatesOneDimensionOfATwoDimensionalArray) {
  auto prog = comp(R"f90(
program t
  real a(3, 4), b(3, 4)
  a(1,1) = 0.0
end program t
)f90");
  const compiler::DataLayout layout =
      compiler::make_layout(prog, {}, compiler::LayoutOptions{1, {}});
  sim::Storage storage;
  storage.rebind(prog.symbols, layout);
  const int a = prog.symbols.find("a");
  const int b = prog.symbols.find("b");
  const std::span<double> as = storage.raw(a);
  for (std::size_t i = 0; i < as.size(); ++i) as[i] = static_cast<double>(i);  // 4*(i-1)+(j-1)
  const std::span<const double> bs = storage.raw(b);
  storage.cshift_into(b, a, 0, 1);  // b(i, j) = a(1 + mod(i, 3), j)
  EXPECT_EQ(std::vector<double>(bs.begin(), bs.end()),
            (std::vector<double>{4, 5, 6, 7, 8, 9, 10, 11, 0, 1, 2, 3}));
  storage.cshift_into(b, a, 1, -1);  // b(i, j) = a(i, 1 + mod(j - 2, 4))
  EXPECT_EQ(std::vector<double>(bs.begin(), bs.end()),
            (std::vector<double>{3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10}));
}

// --- network --------------------------------------------------------------------

TEST(Network, ContentionSerializesSharedLinks) {
  const machine::MachineModel m = machine::make_ipsc860();
  const std::vector<int> shape{8};
  sim::NoiseModel quiet = noise_at(1, false);

  sim::SimNetwork contended(8, shape, m.node().comm, sim::SimNetworkOptions{true});
  sim::SimNetwork free_net(8, shape, m.node().comm, sim::SimNetworkOptions{false});

  // two messages crossing the same cube links at the same time
  const double a1 = contended.send(0, 7, 4096, 0.0, quiet);
  const double a2 = contended.send(0, 7, 4096, 0.0, quiet);
  const double b1 = free_net.send(0, 7, 4096, 0.0, quiet);
  const double b2 = free_net.send(0, 7, 4096, 0.0, quiet);
  EXPECT_GT(a2, a1);             // queued behind the first
  EXPECT_DOUBLE_EQ(b1, b2);      // contention off: independent
}

TEST(Network, SameNodeIsFree) {
  const machine::MachineModel m = machine::make_ipsc860();
  const std::vector<int> shape{4};
  sim::NoiseModel quiet = noise_at(1, false);
  sim::SimNetwork net(4, shape, m.node().comm, {});
  EXPECT_DOUBLE_EQ(net.send(2, 2, 1000, 5.0, quiet), 5.0);
}

TEST(Network, MoreHopsTakeLonger) {
  const machine::MachineModel m = machine::make_ipsc860();
  const std::vector<int> shape{8};
  sim::NoiseModel quiet = noise_at(1, false);
  // grid-linear processor p sits on cube node gray(p): 1 is one hop from
  // 0, and 5 (node 7) is three
  sim::SimNetwork net(8, shape, m.node().comm, {});
  sim::SimNetwork net2(8, shape, m.node().comm, {});
  const double t_near = net.send(0, 1, 1000, 0.0, quiet);
  const double t_far = net2.send(0, 5, 1000, 0.0, quiet);
  EXPECT_GT(t_far, t_near);
}

// --- noise ----------------------------------------------------------------------

TEST(Noise, DeterministicPerSeed) {
  sim::NoiseModel a = noise_at(123, true), b = noise_at(123, true), c = noise_at(456, true);
  const double fa = a.compute_factor();
  EXPECT_DOUBLE_EQ(fa, b.compute_factor());
  bool differs = false;
  sim::NoiseModel a2 = noise_at(123, true);
  for (int i = 0; i < 16; ++i) {
    differs = differs || std::abs(a2.compute_factor() - c.compute_factor()) > 1e-12;
  }
  EXPECT_TRUE(differs);
}

TEST(Noise, DisabledIsExactlyUnity) {
  sim::NoiseModel off = noise_at(1, false);
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(off.compute_factor(), 1.0);
    EXPECT_DOUBLE_EQ(off.comm_factor(), 1.0);
    EXPECT_DOUBLE_EQ(off.startup_skew(), 0.0);
  }
}

// --- noise streams ----------------------------------------------------------------
//
// The oracle is the noise model as it was before streams: one live
// std::mt19937_64 per model and the three std distributions, with the
// engine's words counted so the test can tell where each normal pair lies.

struct CountingEngine {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }
  std::mt19937_64 engine;
  std::size_t drawn = 0;
  result_type operator()() {
    ++drawn;
    return engine();
  }
};

class OracleNoise {
 public:
  explicit OracleNoise(std::uint64_t seed) : rng_{std::mt19937_64(seed)} {}

  double compute_factor() {
    const double g = gauss();
    double f = 1.0 + 0.004 * g;
    if (spike_(rng_) < 0.01) f += 0.03 * spike_mag_(rng_);
    return f < 0.995 ? 0.995 : f;
  }
  double comm_factor() { return 1.0 + 0.006 * std::fabs(gauss()); }
  double startup_skew() { return 4e-6 * std::fabs(gauss()); }

  /// Normal pairs drawn so far that start below NoiseStream::kMemo and read
  /// words past it.
  std::size_t straddles = 0;
  std::size_t words() const { return rng_.drawn; }

 private:
  double gauss() {
    const std::size_t at = rng_.drawn;
    const double g = gauss_(rng_);
    if (at < sim::NoiseStream::kMemo && rng_.drawn > sim::NoiseStream::kMemo) ++straddles;
    return g;
  }

  CountingEngine rng_;
  std::normal_distribution<double> gauss_{0.0, 1.0};
  std::uniform_real_distribution<double> spike_{0.0, 1.0};
  std::uniform_real_distribution<double> spike_mag_{0.0, 1.0};
};

TEST(NoiseStream, CursorsDrawTheLiveEnginesBits) {
  constexpr std::size_t kDraws = 6000;  // about 2.5 words each: well past kMemo
  std::size_t straddles = 0;
  for (const std::uint64_t seed :
       {sim::run_seed(42, 0), sim::run_seed(42, 1), sim::run_seed(42, 2), std::uint64_t{123}}) {
    const sim::NoiseStream stream(seed);
    for (std::uint32_t order = 0; order < 8; ++order) {
      std::mt19937 pick(order);
      OracleNoise oracle(seed);
      sim::NoiseModel streamed = noise_at(seed, true, &stream);
      sim::NoiseModel alone = noise_at(seed, true);
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < kDraws; ++i) {
        double want = 0, got = 0, got_alone = 0;
        switch (pick() % 4) {
          case 0:
          case 1:
            want = oracle.compute_factor();
            got = streamed.compute_factor();
            got_alone = alone.compute_factor();
            break;
          case 2:
            want = oracle.comm_factor();
            got = streamed.comm_factor();
            got_alone = alone.comm_factor();
            break;
          default:
            want = oracle.startup_skew();
            got = streamed.startup_skew();
            got_alone = alone.startup_skew();
            break;
        }
        const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
        mismatches += bits(got) != bits(want) || bits(got_alone) != bits(want);
      }
      EXPECT_EQ(mismatches, 0u) << "seed " << seed << " order " << order;
      EXPECT_GT(oracle.words(), 2 * sim::NoiseStream::kMemo);
      straddles += oracle.straddles;
    }
  }
  // some pairs start in the memo and read words past it
  EXPECT_GT(straddles, 0u);
}

TEST(NoiseStream, RejectsAnotherSeed) {
  const sim::NoiseStream stream(7);
  EXPECT_EQ(stream.seed(), 7u);
  EXPECT_THROW((void)noise_at(8, true, &stream), std::invalid_argument);
  // noise off reads no stream, whatever its seed
  sim::NoiseModel off = noise_at(8, false, &stream);
  EXPECT_EQ(off.compute_factor(), 1.0);
}

// --- functional execution ---------------------------------------------------------

TEST(Executor, PiProgramComputesPi) {
  SimFixture f;
  auto prog = comp(suite::app("pi").source);
  for (int p : {1, 4}) {
    const auto r = f.run(prog, p);
    ASSERT_TRUE(r.detail.printed.contains("pival"));
    EXPECT_NEAR(r.detail.printed.at("pival"), M_PI, 1e-4) << "P=" << p;
  }
}

TEST(Executor, ResultsIndependentOfProcessorCount) {
  SimFixture f;
  auto prog = comp(suite::app("pbs3").source);
  const double s1 = f.run(prog, 1).detail.printed.at("s");
  const double s8 = f.run(prog, 8).detail.printed.at("s");
  EXPECT_NEAR(s1, s8, 1e-9 * std::abs(s1));
}

TEST(Executor, Pbs4SumOfReciprocals) {
  SimFixture f;
  auto prog = comp(suite::app("pbs4").source);
  front::Bindings b;
  b.set_int("n", 128);
  const double r = f.run(prog, 2, b).detail.printed.at("r");
  // x(i) = 1 + i/n in [1,2] => sum(1/x) in [n/2, n]
  EXPECT_GT(r, 64.0);
  EXPECT_LT(r, 128.0);
}

TEST(Executor, LaplaceBoundaryPropagates) {
  SimFixture f;
  const auto& app = suite::app("laplace_bb");
  auto prog = compiler::compile_with_directives(app.source, app.directive_overrides);
  front::Bindings b;
  b.set_int("n", 16);  // boundary heat reaches the centre within 10 sweeps
  const auto r = f.run(prog, 4, b);
  // interior starts at 0, boundaries at 1; after sweeps the centre is
  // strictly between
  const double centre = r.detail.printed.at("u((n / 2),(n / 2))");
  EXPECT_GT(centre, 0.0);
  EXPECT_LT(centre, 1.0);
}

TEST(Executor, FinanceLatticeGrowsByU) {
  SimFixture f;
  auto prog = comp(suite::app("finance").source);
  const auto r = f.run(prog, 2);
  // after nstep multiplications by u=1.01: s = 50*1.01^16, payoff-discounted
  const double expected = (50.0 * std::pow(1.01, 16) - 50.0) * 0.95;
  EXPECT_NEAR(r.detail.printed.at("w(1)"), expected, 1e-6 * expected);
}

TEST(Executor, DeterministicGivenSeed) {
  SimFixture f;
  auto prog = comp(suite::app("lfk22").source);
  front::Bindings b;
  b.set_int("n", 128);
  const auto r1 = f.run(prog, 4, b, 1);
  const auto r2 = f.run(prog, 4, b, 1);
  EXPECT_DOUBLE_EQ(r1.stats.mean, r2.stats.mean);
}

TEST(Executor, NoiseCreatesVarianceAcrossRuns) {
  SimFixture f;
  auto prog = comp(suite::app("lfk1").source);
  front::Bindings b;
  b.set_int("n", 512);
  compiler::LayoutOptions lo;
  lo.nprocs = 4;
  const auto r = measure(f.machine, prog, b, lo, {}, 5);
  EXPECT_EQ(r.stats.samples.size(), 5u);
  EXPECT_GT(r.stats.stddev, 0.0);
  EXPECT_LT(r.stats.stddev / r.stats.mean, 0.05);  // small, paper-like
  EXPECT_LE(r.stats.min, r.stats.mean);
  EXPECT_GE(r.stats.max, r.stats.mean);
}

TEST(Executor, MoreProcessorsReduceLargeProblemTime) {
  SimFixture f;
  auto prog = comp(suite::app("lfk9").source);
  front::Bindings b;
  b.set_int("n", 4096);
  const double t1 = f.run(prog, 1, b).stats.mean;
  const double t8 = f.run(prog, 8, b).stats.mean;
  EXPECT_LT(t8, t1);
  // speedup may exceed P when per-processor working sets start fitting in
  // the 8 KB D-cache; it stays within a sane envelope
  EXPECT_GT(t8, t1 / 16.0);
}

TEST(Executor, MaskedForallCountsOnlyTrueIterations) {
  SimFixture f;
  auto masked = comp(R"f90(
program t
  parameter (n = 2048)
  real v(n), w(n)
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ align w(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) v(i) = real(i)
  forall (i = 1:n, v(i) .gt. real(n)) w(i) = v(i)*2.0 + 1.0
end program t
)f90");
  auto full = comp(R"f90(
program t
  parameter (n = 2048)
  real v(n), w(n)
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ align w(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) v(i) = real(i)
  forall (i = 1:n, v(i) .gt. 0.0) w(i) = v(i)*2.0 + 1.0
end program t
)f90");
  // mask never true (v <= n) vs always true: the all-true variant is slower
  const double t_masked = f.run(masked, 1).stats.mean;
  const double t_full = f.run(full, 1).stats.mean;
  EXPECT_LT(t_masked, t_full);
}

TEST(Executor, WhileLoopTripLimitGuards) {
  SimFixture f;
  auto prog = comp(R"f90(
program t
  x = 1.0
  do while (x .gt. 0.0)
    x = x + 1.0
  end do
end program t
)f90");
  compiler::LayoutOptions lo;
  lo.nprocs = 1;
  sim::SimOptions so;
  so.max_while_trips = 100;
  EXPECT_THROW((void)measure(f.machine, prog, {}, lo, so, 1), support::CompileError);
}

TEST(Executor, ReusedArenaMatchesAFreshExecutorBitForBit) {
  SimFixture f;
  const auto& app = suite::app("laplace_bb");
  auto prog = comp(app.source);
  compiler::LayoutOptions lo;
  lo.nprocs = 4;
  const compiler::DataLayout layout(prog.directives, prog.symbols, app.bindings(32), lo);
  sim::SimOptions so;

  const sim::SimResult reference = run_fresh(prog, layout, f.machine, so, app.bindings(32));

  // a reused arena with stale contents from a first measurement must
  // produce the identical result after rebind + record + retime_into
  sim::Executor arena;
  sim::ValueTape tape;
  sim::SimResult out;
  for (int fill = 0; fill < 2; ++fill) {  // the second fill reuses every buffer
    arena.rebind(prog, layout, f.machine, so, app.bindings(32));
    arena.record(tape);
    arena.retime_into(tape, so.seed, out);
  }
  EXPECT_EQ(out.total, reference.total);
  EXPECT_EQ(out.proc_clock, reference.proc_clock);
  EXPECT_EQ(out.comp, reference.comp);
  EXPECT_EQ(out.comm, reference.comm);
  EXPECT_EQ(out.overhead, reference.overhead);
  EXPECT_EQ(out.printed, reference.printed);
  EXPECT_EQ(out.scalars, reference.scalars);
  ASSERT_EQ(out.per_node.size(), reference.per_node.size());
  for (std::size_t i = 0; i < out.per_node.size(); ++i) {
    EXPECT_EQ(out.per_node[i].comp, reference.per_node[i].comp) << i;
    EXPECT_EQ(out.per_node[i].comm, reference.per_node[i].comm) << i;
    EXPECT_EQ(out.per_node[i].overhead, reference.per_node[i].overhead) << i;
    EXPECT_EQ(out.per_node[i].visits, reference.per_node[i].visits) << i;
  }
}

TEST(Executor, MeasureIntoDiscardsStaleResultsBitForBit) {
  SimFixture f;
  const auto& app = suite::app("pi");
  auto prog = comp(app.source);
  const front::Bindings bindings = app.bindings(256);
  compiler::LayoutOptions lo;
  lo.nprocs = 4;
  const compiler::DataLayout layout(prog.directives, prog.symbols, bindings, lo);
  const sim::MeasuredResult reference = measure(f.machine, prog, bindings, layout, {}, 3);

  // the arena's result slot first holds another point's measurement (other
  // bindings, seed and run count), which the second call must discard
  api::EngineArena arena;
  api::ValueTapeStore tapes;
  api::NoiseStreamStore streams;
  const front::Bindings stale_bindings = app.bindings(128);
  const compiler::DataLayout stale_layout(prog.directives, prog.symbols, stale_bindings, lo);
  sim::SimOptions stale_opts;
  stale_opts.seed = 7;
  const core::BatchLane stale{&stale_layout, &stale_bindings, nullptr};
  const compiler::LayoutDigest stale_key =
      compiler::value_tape_key(prog, stale_bindings, stale_opts.max_while_trips);
  (void)arena.measure_batch_into(prog, f.machine, stale_opts, 5, {&stale, 1}, {&stale_key, 1},
                                 &tapes, streams);
  const core::BatchLane lane{&layout, &bindings, nullptr};
  const compiler::LayoutDigest key =
      compiler::value_tape_key(prog, bindings, sim::SimOptions{}.max_while_trips);
  const sim::MeasuredResult& out =
      arena.measure_batch_into(prog, f.machine, {}, 3, {&lane, 1}, {&key, 1}, &tapes,
                               streams)[0];
  EXPECT_EQ(out.stats.mean, reference.stats.mean);
  EXPECT_EQ(out.stats.min, reference.stats.min);
  EXPECT_EQ(out.stats.max, reference.stats.max);
  EXPECT_EQ(out.stats.stddev, reference.stats.stddev);
  EXPECT_EQ(out.stats.samples, reference.stats.samples);
  EXPECT_EQ(out.detail.total, reference.detail.total);
  EXPECT_EQ(out.detail.proc_clock, reference.detail.proc_clock);
  EXPECT_EQ(out.detail.printed, reference.detail.printed);
  EXPECT_EQ(out.detail.scalars, reference.detail.scalars);
}

// An unmasked distributed loop counts each processor's iterations from
// per-dimension ownership histograms instead of visiting points. With noise
// off, a program of one such loop leaves processor p's clock at
// setup + iters_p * per_iteration (0 when it owns nothing), so the clocks
// must order and tie exactly as point-by-point ownership counts do.
struct OwnershipCase {
  const char* source;
  int nprocs;
  std::vector<int> grid_shape;
  std::vector<std::array<long long, 3>> space;  // lo, hi, step per forall index
};

std::vector<long long> point_by_point_iterations(const compiler::CompiledProgram& prog,
                                                 const compiler::DataLayout& layout,
                                                 const OwnershipCase& c) {
  const compiler::SpmdNode* loop = nullptr;
  for (const auto& n : prog.root->children) {
    if (n->kind == compiler::SpmdKind::LocalLoop) loop = n.get();
  }
  if (loop == nullptr) {
    ADD_FAILURE() << "program has no top-level LocalLoop";
    return {};
  }
  const compiler::ArrayMap* home = layout.map_for(loop->home_symbol);
  if (home == nullptr) {
    ADD_FAILURE() << "loop is replicated";
    return {};
  }
  std::vector<long long> iters(static_cast<std::size_t>(c.nprocs), 0);
  std::vector<long long> point;
  std::function<void(std::size_t)> visit = [&](std::size_t d) {
    if (d == c.space.size()) {
      std::vector<int> coords(layout.grid().shape.size(), 0);
      for (std::size_t h = 0; h < loop->home_driver.size(); ++h) {
        const int drv = loop->home_driver[h];
        const auto& dd = home->dims[h];
        if (drv < 0 || dd.grid_dim < 0) continue;
        coords[static_cast<std::size_t>(dd.grid_dim)] =
            dd.owner_coord(point[static_cast<std::size_t>(drv)] + loop->home_driver_offset[h]);
      }
      ++iters[static_cast<std::size_t>(layout.grid().linear(coords))];
      return;
    }
    const auto [lo, hi, step] = c.space[d];
    for (long long v = lo; step > 0 ? v <= hi : v >= hi; v += step) {
      point.push_back(v);
      visit(d + 1);
      point.pop_back();
    }
  };
  visit(0);
  return iters;
}

TEST(Executor, UnmaskedLoopChargesFollowOwnership) {
  const std::vector<OwnershipCase> cases = {
      {R"f90(
program t
  parameter (n = 10)
  real a(n)
!hpf$ template d(n)
!hpf$ align a(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n-1) a(i+1) = real(i)
end program t
)f90",
       4, {4}, {{1, 9, 1}}},
      {R"f90(
program t
  parameter (n = 23)
  real a(n)
!hpf$ template d(n)
!hpf$ align a(i) with d(i)
!hpf$ distribute d(cyclic)
  forall (i = n:2:-3) a(i) = real(i)
end program t
)f90",
       8, {8}, {{23, 2, -3}}},
      {R"f90(
program t
  parameter (n = 9, m = 7)
  real a(n,m)
!hpf$ template d(n,m)
!hpf$ align a(i,j) with d(i,j)
!hpf$ distribute d(block,block)
  forall (i = 1:n:2, j = 2:m) a(i,j) = real(i+j)
end program t
)f90",
       4, {2, 2}, {{1, 9, 2}, {2, 7, 1}}},
      {R"f90(
program t
  parameter (n = 12, m = 5)
  real a(n,m)
!hpf$ template d(n,m)
!hpf$ align a(i,j) with d(i,j)
!hpf$ distribute d(block,*)
  forall (i = 2:n, j = 1:m) a(i,j) = real(i*j)
end program t
)f90",
       8, {8}, {{2, 12, 1}, {1, 5, 1}}},
  };
  const machine::MachineModel machine = machine::make_ipsc860();
  sim::SimOptions so;
  so.noise = false;
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const OwnershipCase& c = cases[k];
    const compiler::CompiledProgram prog = comp(c.source);
    compiler::LayoutOptions lo;
    lo.nprocs = c.nprocs;
    lo.grid_shape = c.grid_shape;
    const compiler::DataLayout layout = compiler::make_layout(prog, {}, lo);
    const std::vector<long long> iters = point_by_point_iterations(prog, layout, c);
    const sim::SimResult r = run_fresh(prog, layout, machine, so, {});
    ASSERT_EQ(r.proc_clock.size(), iters.size()) << "case " << k;
    for (std::size_t p = 0; p < iters.size(); ++p) {
      EXPECT_EQ(r.proc_clock[p] == 0.0, iters[p] == 0) << "case " << k << " P" << p;
      for (std::size_t q = 0; q < iters.size(); ++q) {
        EXPECT_EQ(r.proc_clock[p] == r.proc_clock[q], iters[p] == iters[q])
            << "case " << k << " P" << p << " vs P" << q;
        EXPECT_EQ(r.proc_clock[p] < r.proc_clock[q], iters[p] < iters[q])
            << "case " << k << " P" << p << " vs P" << q;
      }
    }
  }
}

// A masked loop re-tallies each processor's mask-true iterations from the
// value tape's mask bits. With noise off and ten iterations on every
// processor, two processors' clocks tie exactly when their true counts do.
TEST(Executor, MaskedLoopChargesFollowOwnedTrues) {
  const compiler::CompiledProgram prog = comp(R"f90(
program t
  parameter (n = 40)
  real v(n), w(n)
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ align w(i) with d(i)
!hpf$ distribute d(cyclic)
  forall (i = 1:n) v(i) = real(mod(i * 7, 11))
  forall (i = 1:n, v(i) .gt. 5.0) w(i) = v(i) * 2.0 + 1.0
end program t
)f90");
  // cyclic over 4 processors: p owns the i with (i - 1) mod 4 == p
  std::vector<long long> trues(4, 0);
  for (long long i = 1; i <= 40; ++i) {
    if ((i * 7) % 11 > 5) ++trues[static_cast<std::size_t>((i - 1) % 4)];
  }
  ASSERT_NE(*std::min_element(trues.begin(), trues.end()),
            *std::max_element(trues.begin(), trues.end()));
  const machine::MachineModel machine = machine::make_ipsc860();
  sim::SimOptions so;
  so.noise = false;
  compiler::LayoutOptions lo;
  lo.nprocs = 4;
  const compiler::DataLayout layout = compiler::make_layout(prog, {}, lo);
  const sim::SimResult r = run_fresh(prog, layout, machine, so, {});
  ASSERT_EQ(r.proc_clock.size(), trues.size());
  for (std::size_t p = 0; p < trues.size(); ++p) {
    for (std::size_t q = 0; q < trues.size(); ++q) {
      EXPECT_EQ(r.proc_clock[p] == r.proc_clock[q], trues[p] == trues[q])
          << "P" << p << " vs P" << q;
    }
  }
}

// --- timing replay ---------------------------------------------------------------
//
// A measurement runs the program once and re-times runs 1.. from its value
// tape. The oracle: every sample equals, bit for bit, the total of a fresh
// executor's run under that run's seed, and the detail equals run 0.

/// The per-run seed a measurement derives for run `r` (sim::run_seed).
std::uint64_t run_seed(std::uint64_t seed, int r) {
  return seed + static_cast<std::uint64_t>(r) * 0x9e3779b97f4a7c15ULL;
}

void expect_replay_matches_fresh_runs(const compiler::CompiledProgram& prog,
                                      const front::Bindings& bindings,
                                      const compiler::LayoutOptions& lo,
                                      const sim::SimOptions& so,
                                      const machine::MachineModel& machine,
                                      const std::string& label) {
  constexpr int kRuns = 4;
  const compiler::DataLayout layout = compiler::make_layout(prog, bindings, lo);
  const sim::MeasuredResult measured =
      measure(machine, prog, bindings, layout, so, kRuns);
  ASSERT_EQ(measured.stats.samples.size(), static_cast<std::size_t>(kRuns)) << label;
  for (int r = 0; r < kRuns; ++r) {
    sim::SimOptions run_opts = so;
    run_opts.seed = run_seed(so.seed, r);
    const sim::SimResult fresh =
        run_fresh(prog, layout, machine, run_opts, bindings);
    EXPECT_EQ(measured.stats.samples[static_cast<std::size_t>(r)], fresh.total)
        << label << " run " << r;
    if (r != 0) continue;
    const sim::SimResult& d = measured.detail;
    EXPECT_EQ(d.total, fresh.total) << label;
    EXPECT_EQ(d.proc_clock, fresh.proc_clock) << label;
    EXPECT_EQ(d.comp, fresh.comp) << label;
    EXPECT_EQ(d.comm, fresh.comm) << label;
    EXPECT_EQ(d.overhead, fresh.overhead) << label;
    EXPECT_EQ(d.printed, fresh.printed) << label;
    EXPECT_EQ(d.scalars, fresh.scalars) << label;
    ASSERT_EQ(d.per_node.size(), fresh.per_node.size()) << label;
    for (std::size_t i = 0; i < d.per_node.size(); ++i) {
      EXPECT_EQ(d.per_node[i].comp, fresh.per_node[i].comp) << label << " node " << i;
      EXPECT_EQ(d.per_node[i].comm, fresh.per_node[i].comm) << label << " node " << i;
      EXPECT_EQ(d.per_node[i].overhead, fresh.per_node[i].overhead) << label << " node " << i;
      EXPECT_EQ(d.per_node[i].visits, fresh.per_node[i].visits) << label << " node " << i;
    }
  }
}

/// Every (collective, noise, contention) combination at each nprocs.
void expect_replay_oracle(const compiler::CompiledProgram& prog,
                          const front::Bindings& bindings, const std::string& name,
                          std::optional<int> grid_rank = std::nullopt) {
  const machine::MachineModel machine = machine::make_ipsc860();
  for (int nprocs : suite::paper_system_sizes()) {
    compiler::LayoutOptions lo;
    lo.nprocs = nprocs;
    if (grid_rank) lo.grid_shape = compiler::ProcGrid::factorized(nprocs, *grid_rank).shape;
    for (auto collective :
         {machine::CollectiveAlgo::RecursiveTree, machine::CollectiveAlgo::Linear}) {
      for (bool noise : {true, false}) {
        for (bool contention : {true, false}) {
          sim::SimOptions so;
          so.collective = collective;
          so.noise = noise;
          so.contention = contention;
          const std::string label =
              name + " P=" + std::to_string(nprocs) +
              (collective == machine::CollectiveAlgo::Linear ? " linear" : " tree") +
              (noise ? " noise" : "") + (contention ? " contention" : "");
          expect_replay_matches_fresh_runs(prog, bindings, lo, so, machine, label);
        }
      }
    }
  }
}

constexpr const char* kIfInDo = R"f90(
program t
  parameter (n = 32)
  real a(n), b(n)
!hpf$ template d(n)
!hpf$ align a(i) with d(i)
!hpf$ align b(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) a(i) = real(i) / real(n)
  do k = 1, 12
    s = sum(a)
    if (s .gt. 20.0) then
      forall (i = 1:n) a(i) = a(i) * 0.5
      b = cshift(a, k, 1)
    else
      forall (i = 1:n) a(i) = a(i) * 1.7
    end if
  end do
  print *, s
end program t
)f90";

constexpr const char* kDoWhile = R"f90(
program t
  parameter (n = 24)
  real a(n)
!hpf$ template d(n)
!hpf$ align a(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) a(i) = 1.0 + real(i) / real(n)
  acc = 1000.0
  do while (acc .gt. 1.0)
    forall (i = 1:n) a(i) = a(i) * 1.1
    acc = acc / maxval(a)
  end do
  print *, acc
end program t
)f90";

constexpr const char* kMaskedForall = R"f90(
program t
  parameter (n = 40)
  real v(n), w(n)
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ align w(i) with d(i)
!hpf$ distribute d(cyclic)
  forall (i = 1:n) v(i) = real(mod(i * 7, 11))
  forall (i = 1:n, v(i) .gt. 5.0) w(i) = v(i) * 2.0 + 1.0
  forall (i = 1:n, v(i) .gt. 100.0) w(i) = v(i)
end program t
)f90";

constexpr const char* kInvariantOverlap = R"f90(
program t
  parameter (n = 64)
  real a(n), b(n)
!hpf$ template d(n)
!hpf$ align a(i) with d(i)
!hpf$ align b(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) a(i) = real(i)
  do k = 1, 6
    forall (i = 2:n) b(i) = a(i-1) + b(i)
  end do
end program t
)f90";

TEST(TimingReplay, SuiteAppsMatchFreshRunsBitForBit) {
  for (const auto& app : suite::validation_suite()) {
    const compiler::CompiledProgram prog =
        app.directive_overrides.empty()
            ? comp(app.source)
            : compiler::compile_with_directives(app.source, app.directive_overrides);
    // the smallest Table 2 size
    const long long size = app.problem_sizes.front();
    expect_replay_oracle(prog, app.bindings(size), app.id, app.grid_rank);
  }
}

TEST(TimingReplay, DataDependentIfInsideDo) {
  auto prog = comp(kIfInDo);
  expect_replay_oracle(prog, {}, "if-in-do");
}

TEST(TimingReplay, DataDependentDoWhile) {
  auto prog = comp(kDoWhile);
  expect_replay_oracle(prog, {}, "do-while");
}

TEST(TimingReplay, MaskedForall) {
  auto prog = comp(kMaskedForall);
  expect_replay_oracle(prog, {}, "masked-forall");
}

TEST(TimingReplay, ReissuedInvariantOverlap) {
  auto prog = comp(kInvariantOverlap);
  // the exchange of a(i-1) is re-issued with unchanged data every trip
  std::function<bool(const compiler::SpmdNode&)> has_invariant_overlap =
      [&](const compiler::SpmdNode& n) {
        if (n.kind == compiler::SpmdKind::OverlapComm && n.comm_src_invariant) return true;
        for (const auto& c : n.children) {
          if (has_invariant_overlap(*c)) return true;
        }
        return false;
      };
  ASSERT_TRUE(has_invariant_overlap(*prog.root));
  expect_replay_oracle(prog, {}, "invariant-overlap");
}

TEST(TimingReplay, WhileTripLimitStillThrows) {
  auto prog = comp(R"f90(
program t
  parameter (n = 16)
  real a(n)
!hpf$ template d(n)
!hpf$ align a(i) with d(i)
!hpf$ distribute d(block)
  x = 1.0
  do while (x .gt. 0.0)
    forall (i = 1:n) a(i) = x
    x = x + 1.0
  end do
end program t
)f90");
  const machine::MachineModel machine = machine::make_ipsc860();
  compiler::LayoutOptions lo;
  lo.nprocs = 4;
  sim::SimOptions so;
  so.max_while_trips = 100;
  EXPECT_THROW((void)measure(machine, prog, {}, lo, so, 4), support::CompileError);
}

// --- cross-configuration re-timing ----------------------------------------------
//
// A value tape depends only on (program, bindings). The oracle: a tape
// recorded under (nprocs 2, ipsc860) and re-timed under any other layout
// and machine equals, bit for bit, a fresh Executor run there — total,
// processor clocks, per-node times and visits, phase sums, printed values
// and scalars — and so does a second seed re-timed from the derived counts.

void expect_same_result(const sim::SimResult& got, const sim::SimResult& want,
                        const std::string& label) {
  EXPECT_EQ(got.total, want.total) << label;
  EXPECT_EQ(got.proc_clock, want.proc_clock) << label;
  EXPECT_EQ(got.comp, want.comp) << label;
  EXPECT_EQ(got.comm, want.comm) << label;
  EXPECT_EQ(got.overhead, want.overhead) << label;
  EXPECT_EQ(got.printed, want.printed) << label;
  EXPECT_EQ(got.scalars, want.scalars) << label;
  ASSERT_EQ(got.per_node.size(), want.per_node.size()) << label;
  for (std::size_t i = 0; i < got.per_node.size(); ++i) {
    EXPECT_EQ(got.per_node[i].comp, want.per_node[i].comp) << label << " node " << i;
    EXPECT_EQ(got.per_node[i].comm, want.per_node[i].comm) << label << " node " << i;
    EXPECT_EQ(got.per_node[i].overhead, want.per_node[i].overhead) << label << " node " << i;
    EXPECT_EQ(got.per_node[i].visits, want.per_node[i].visits) << label << " node " << i;
  }
}

void expect_cross_config_oracle(const compiler::CompiledProgram& prog,
                                const front::Bindings& bindings, const std::string& name) {
  const machine::MachineModel ipsc = machine::make_ipsc860();
  const machine::MachineModel paragon = machine::make_paragon();
  machine::WhatIfParams knobs;
  knobs.latency_scale = 0.25;
  knobs.bandwidth_scale = 4.0;
  const machine::MachineModel whatif = machine::make_whatif(8, knobs);
  const std::vector<std::pair<const char*, const machine::MachineModel*>> machines = {
      {"ipsc860", &ipsc}, {"paragon", &paragon}, {"whatif", &whatif}};

  compiler::LayoutOptions recorded_lo;
  recorded_lo.nprocs = 2;
  const compiler::DataLayout recorded_layout = compiler::make_layout(prog, bindings, recorded_lo);
  const sim::ValueTape tape = record_fresh(prog, recorded_layout, ipsc, {}, bindings);

  std::vector<compiler::LayoutOptions> layouts;
  for (int nprocs : suite::paper_system_sizes()) {
    compiler::LayoutOptions lo;
    lo.nprocs = nprocs;
    layouts.push_back(lo);
  }
  compiler::LayoutOptions grid;  // a forced 2-D grid
  grid.nprocs = 4;
  grid.grid_shape = std::vector<int>{2, 2};
  layouts.push_back(grid);

  sim::Executor arena;
  sim::SimResult retimed;
  for (const compiler::LayoutOptions& lo : layouts) {
    const compiler::DataLayout layout = compiler::make_layout(prog, bindings, lo);
    for (const auto& [machine_name, machine] : machines) {
      for (bool noise : {true, false}) {
        for (bool contention : {true, false}) {
          sim::SimOptions so;
          so.noise = noise;
          so.contention = contention;
          const std::string label =
              name + " P=" + std::to_string(lo.nprocs) + (lo.grid_shape ? " 2x2" : "") +
              " " + machine_name + (noise ? " noise" : "") + (contention ? " contention" : "");
          const sim::MeasuredResult want = measure(*machine, prog, bindings, layout, so, 2);
          arena.rebind(prog, layout, *machine, so, bindings);
          arena.retime_into(tape, so.seed, retimed);
          expect_same_result(retimed, want.detail, label);
          // a second seed re-times from the counts the first walk derived
          EXPECT_EQ(arena.retime(tape, run_seed(so.seed, 1)), want.stats.samples[1]) << label;
        }
      }
      // the tape this layout records is the same tape
      const sim::ValueTape own = record_fresh(prog, layout, *machine, {}, bindings);
      EXPECT_EQ(own.words, tape.words) << name << " P=" << lo.nprocs;
      EXPECT_EQ(own.printed, tape.printed) << name << " P=" << lo.nprocs;
      EXPECT_EQ(own.scalars, tape.scalars) << name << " P=" << lo.nprocs;
    }
  }
}

TEST(CrossConfigRetime, SuiteAppsMatchFreshRunsBitForBit) {
  for (const auto& app : suite::validation_suite()) {
    const compiler::CompiledProgram prog =
        app.directive_overrides.empty()
            ? comp(app.source)
            : compiler::compile_with_directives(app.source, app.directive_overrides);
    expect_cross_config_oracle(prog, app.bindings(app.problem_sizes.front()), app.id);
  }
}

TEST(CrossConfigRetime, DataDependentControlFlow) {
  expect_cross_config_oracle(comp(kIfInDo), {}, "if-in-do");
  expect_cross_config_oracle(comp(kDoWhile), {}, "do-while");
}

TEST(CrossConfigRetime, MaskedForall) {
  expect_cross_config_oracle(comp(kMaskedForall), {}, "masked-forall");
}

TEST(CrossConfigRetime, ReissuedInvariantOverlap) {
  expect_cross_config_oracle(comp(kInvariantOverlap), {}, "invariant-overlap");
}

TEST(CrossConfigRetime, UnseparableHomeMappingWalksTheOwners) {
  // a(i, i): one forall index drives both grid axes of a (block, block)
  // home, so per-axis histograms cannot count it and the timing walk
  // visits the recorded space point by point; the masked loop does too
  auto prog = comp(R"f90(
program t
  parameter (n = 12)
  real a(n, n)
!hpf$ template d(n, n)
!hpf$ align a(i, j) with d(i, j)
!hpf$ distribute d(block, block)
  forall (i = 1:n, j = 1:n) a(i, j) = real(i * j)
  do k = 1, 3
    forall (i = 1:n) a(i, i) = a(i, i) + real(k)
    forall (i = 1:n, j = 1:n, a(i, j) .gt. 40.0) a(i, j) = a(i, j) * 0.5
  end do
  s = sum(a)
  print *, s
end program t
)f90");
  bool diagonal = false;
  std::function<void(const compiler::SpmdNode&)> scan = [&](const compiler::SpmdNode& n) {
    if (n.kind == compiler::SpmdKind::LocalLoop && n.home_driver.size() == 2 &&
        n.home_driver[0] == 0 && n.home_driver[1] == 0) {
      diagonal = true;
    }
    for (const auto& c : n.children) scan(*c);
  };
  scan(*prog.root);
  ASSERT_TRUE(diagonal);
  expect_cross_config_oracle(prog, {}, "diagonal");
}

TEST(CrossConfigRetime, TapeRecordedUnderALargerTripLimitStillThrows) {
  auto prog = comp(kDoWhile);
  const machine::MachineModel machine = machine::make_ipsc860();
  compiler::LayoutOptions lo;
  lo.nprocs = 2;
  const compiler::DataLayout layout = compiler::make_layout(prog, {}, lo);
  sim::SimOptions generous;
  generous.max_while_trips = 1000;
  const sim::ValueTape tape = record_fresh(prog, layout, machine, generous, {});
  sim::SimOptions tight;
  tight.max_while_trips = 3;  // the loop runs more trips than this
  sim::Executor executor;
  executor.rebind(prog, layout, machine, tight, {});
  try {
    (void)executor.retime(tape, tight.seed);
    ADD_FAILURE() << "re-timed past the trip limit";
  } catch (const support::CompileError& e) {
    EXPECT_NE(std::string(e.what()).find("do while exceeded the simulation trip limit"),
              std::string::npos)
        << e.what();
  }
  // and through the session: a tape stored under the generous limit is not
  // served to a lookup under the tight one
  api::Session session;
  const auto handle = session.compile(kDoWhile);
  api::RunConfig cfg;
  cfg.nprocs = 2;
  cfg.runs = 2;
  cfg.sim.max_while_trips = 1000;
  EXPECT_NO_THROW((void)session.measure(handle, cfg));
  cfg.nprocs = 4;
  cfg.sim.max_while_trips = 3;
  try {
    (void)session.measure(handle, cfg);
    ADD_FAILURE() << "measured past the trip limit";
  } catch (const support::CompileError& e) {
    EXPECT_NE(std::string(e.what()).find("do while exceeded the simulation trip limit"),
              std::string::npos)
        << e.what();
  }
}

// --- value digest ---------------------------------------------------------------
//
// HPF directives never change a program's values: the Laplace variants
// compile to one value digest, and a tape recorded under any of them re-times
// under every other variant exactly as a fresh run there.

std::vector<compiler::CompiledProgram> laplace_variants() {
  std::vector<compiler::CompiledProgram> progs;
  for (const char* id : {"laplace_bb", "laplace_bx", "laplace_xb"}) {
    const auto& app = suite::app(id);
    progs.push_back(compiler::compile_with_directives(app.source, app.directive_overrides));
  }
  return progs;
}

TEST(ValueDigest, DistributionVariantsShareOneTape) {
  const std::vector<compiler::CompiledProgram> progs = laplace_variants();
  const char* const names[] = {"bb", "bx", "xb"};
  for (const auto& prog : progs) {
    EXPECT_EQ(prog.value_digest, progs[0].value_digest);
    EXPECT_NE(prog.value_digest, compiler::LayoutDigest{});
  }
  const front::Bindings bindings = suite::app("laplace_bb").bindings(16);
  for (const auto& prog : progs) {
    EXPECT_EQ(compiler::value_tape_key(prog, bindings, 1000000),
              compiler::value_tape_key(progs[0], bindings, 1000000));
  }
  const machine::MachineModel ipsc = machine::make_ipsc860();
  const machine::MachineModel paragon = machine::make_paragon();
  sim::Executor arena;
  sim::SimResult retimed;
  for (std::size_t r = 0; r < progs.size(); ++r) {
    compiler::LayoutOptions recorded_lo;
    recorded_lo.nprocs = 4;
    const compiler::DataLayout recorded_layout =
        compiler::make_layout(progs[r], bindings, recorded_lo);
    const sim::ValueTape tape = record_fresh(progs[r], recorded_layout, ipsc, {}, bindings);
    for (std::size_t t = 0; t < progs.size(); ++t) {
      for (const int nprocs : {1, 2, 4, 8}) {
        compiler::LayoutOptions lo;
        lo.nprocs = nprocs;
        const compiler::DataLayout layout = compiler::make_layout(progs[t], bindings, lo);
        for (const auto& [machine_name, machine] :
             {std::pair{"ipsc860", &ipsc}, std::pair{"paragon", &paragon}}) {
          const std::string label = std::string("recorded ") + names[r] + ", re-timed " +
                                    names[t] + " P=" + std::to_string(nprocs) + " " +
                                    machine_name;
          const sim::SimOptions so;
          const sim::SimResult want = run_fresh(progs[t], layout, *machine, so, bindings);
          arena.rebind(progs[t], layout, *machine, so, bindings);
          arena.retime_into(tape, so.seed, retimed);
          expect_same_result(retimed, want, label);
        }
      }
    }
  }
}

/// `src` with its first `from` replaced by `to`.
std::string edited(std::string src, std::string_view from, std::string_view to) {
  const std::size_t at = src.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return at == std::string::npos ? src : src.replace(at, from.size(), to);
}

TEST(ValueDigest, EveryValueChangeChangesTheDigest) {
  constexpr const char* kBase = R"f90(
program t
  parameter (n = 16)
  real a(n), b(n)
  integer ix(n)
!hpf$ template d(n)
!hpf$ align a(i) with d(i)
!hpf$ align b(i) with d(i)
!hpf$ align ix(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) ix(i) = n + 1 - i
  forall (i = 1:n) b(i) = 0.5 * real(i)
  forall (i = 2:n, b(i) .gt. 2.0) a(i) = b(i) + 1.0
  print *, a(n)
end program t
)f90";
  const auto digest = [&](std::string_view from, std::string_view to) {
    return comp(edited(kBase, from, to)).value_digest;
  };
  const compiler::LayoutDigest base = comp(kBase).value_digest;
  // a pure function of the program's values, blind to the mapping
  EXPECT_EQ(comp(kBase).value_digest, base);
  EXPECT_EQ(digest("d(block)", "d(cyclic)"), base);
  // a constant
  EXPECT_NE(digest("b(i) + 1.0", "b(i) + 2.0"), base);
  EXPECT_NE(digest("n = 16", "n = 17"), base);
  // a loop bound
  EXPECT_NE(digest("forall (i = 2:n,", "forall (i = 3:n,"), base);
  // a forall mask
  EXPECT_NE(digest("b(i) .gt. 2.0", "b(i) .ge. 2.0"), base);
  EXPECT_NE(digest("forall (i = 2:n, b(i) .gt. 2.0)", "forall (i = 2:n)"), base);
  // a fused subscript's offset, read or target (every later column kept)
  EXPECT_NE(digest("a(i) = b(i) + 1.0", "a(i) = b(i-1)+1.0"), base);
  EXPECT_NE(digest("a(i) = b(i) + 1.0", "a(i-1)=b(i) + 1.0"), base);
  // an irregular gather
  const compiler::CompiledProgram gathered =
      comp(edited(kBase, "a(i) = b(i) + 1.0", "a(i) = b(ix(i)) + 1.0"));
  EXPECT_TRUE(std::any_of(gathered.root->children.begin(), gathered.root->children.end(),
                          [](const compiler::SpmdNodePtr& n) {
                            return n->kind == compiler::SpmdKind::GatherComm;
                          }));
  EXPECT_NE(gathered.value_digest, base);
  // the bindings and the WHILE trip limit are part of the tape key
  const compiler::CompiledProgram prog = comp(kBase);
  front::Bindings small;
  small.set_int("n", 8);
  EXPECT_NE(compiler::value_tape_key(prog, small, 100), compiler::value_tape_key(prog, {}, 100));
  EXPECT_NE(compiler::value_tape_key(prog, {}, 100), compiler::value_tape_key(prog, {}, 101));
}

TEST(TimingReplay, ReplayIsRepeatableAfterOneRun) {
  const auto& app = suite::app("lfk2");
  auto prog = comp(app.source);
  compiler::LayoutOptions lo;
  lo.nprocs = 4;
  const compiler::DataLayout layout = compiler::make_layout(prog, app.bindings(128), lo);
  const machine::MachineModel machine = machine::make_ipsc860();
  sim::SimOptions so;
  sim::Executor executor;
  executor.rebind(prog, layout, machine, so, app.bindings(128));
  sim::ValueTape tape;
  executor.record(tape);
  sim::SimResult first;
  executor.retime_into(tape, so.seed, first);
  const double total = first.total;
  // re-timing the run's own seed reproduces it; other seeds are order-free
  EXPECT_EQ(executor.retime(tape, so.seed), total);
  const double other = executor.retime(tape, run_seed(so.seed, 1));
  EXPECT_EQ(executor.retime(tape, so.seed), total);
  EXPECT_EQ(executor.retime(tape, run_seed(so.seed, 1)), other);
}

TEST(Executor, ScalarsReportedForValidation) {
  SimFixture f;
  auto prog = comp(suite::app("lfk2").source);
  const auto r = f.run(prog, 2, suite::app("lfk2").bindings(128));
  // after the level loop ii has halved log2(128)=7 times: 128 -> 1
  ASSERT_TRUE(r.detail.scalars.contains("ii"));
  EXPECT_DOUBLE_EQ(r.detail.scalars.at("ii"), 1.0);
}

// --- functional pass pins -------------------------------------------------------
//
// The functional pass's whole output — every tape word, printed value and
// final scalar — pinned by an FNV-1a digest per suite app at its two
// smallest Table 2 sizes. The constants were taken from the tree-walking
// evaluator the bytecode replaced; a change to any of them is a change to
// what the simulator measures.

std::uint64_t tape_digest(const sim::ValueTape& tape) {
  std::string text;
  for (const long long w : tape.words) text += std::to_string(w) + ',';
  text += '|';
  for (const auto& [name, value] : tape.printed) {
    text += name + '=' + support::format_g17(value) + ';';
  }
  text += '|';
  for (const auto& [name, value] : tape.scalars) {
    text += name + '=' + support::format_g17(value) + ';';
  }
  return support::fnv1a64(text);
}

sim::ValueTape record_tape(const compiler::CompiledProgram& prog,
                           const front::Bindings& bindings) {
  const compiler::DataLayout layout =
      compiler::make_layout(prog, bindings, compiler::LayoutOptions{1, {}});
  const machine::MachineModel machine = machine::make_ipsc860();
  return record_fresh(prog, layout, machine, {}, bindings);
}

constexpr const char* kReductions = R"f90(
program t
  parameter (n = 12)
  real a(n, n), v(n), w(n), q(n)
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ align w(i) with d(i)
!hpf$ align q(i) with d(i)
!hpf$ distribute d(cyclic)
  forall (i = 1:n, j = 1:n) a(i, j) = real(mod(i * j, 7)) - 2.5
  v = sum(a, 2)
  q = product(a, 2)
  w = 0.0
  forall (i = 1:n, v(i) .gt. 0.0) w(i) = maxval(a(i, :), 2)
  forall (i = 1:n, v(i) .le. 0.0) w(i) = minval(a(i, :), 2)
  forall (i = 1:n) w(i) = sum(a(:, i), 1)
  x = maxval(v)
  y = minval(w)
  m = maxloc(v)
  p = product(q)
  print *, x, y, m, p
end program t
)f90";

TEST(FunctionalPass, ProgramTapeDigestsArePinned) {
  const std::map<std::string, std::uint64_t> expected = {
      {"if in do", 12686879210436330025ULL},
      {"do while", 9180697761612394038ULL},
      {"masked forall", 17021995721414245206ULL},
      {"invariant overlap", 11389580724613032935ULL},
      {"reductions", 9927525250884943998ULL},
  };
  const std::vector<std::pair<std::string, const char*>> programs = {
      {"if in do", kIfInDo},
      {"do while", kDoWhile},
      {"masked forall", kMaskedForall},
      {"invariant overlap", kInvariantOverlap},
      {"reductions", kReductions},
  };
  for (const auto& [key, src] : programs) {
    const std::uint64_t digest = tape_digest(record_tape(comp(src), {}));
    const auto it = expected.find(key);
    if (it == expected.end()) {
      ADD_FAILURE() << "{\"" << key << "\", " << digest << "ULL},";
      continue;
    }
    EXPECT_EQ(digest, it->second) << key;
  }
}

TEST(FunctionalPass, SuiteTapeDigestsArePinned) {
  const std::map<std::string, std::uint64_t> expected = {
      {"lfk1 128", 13869189835969572967ULL},
      {"lfk1 256", 9730408517827684403ULL},
      {"lfk2 128", 8529537527876145725ULL},
      {"lfk2 256", 10019292231056416408ULL},
      {"lfk3 128", 9659320653631592919ULL},
      {"lfk3 256", 779095842747363332ULL},
      {"lfk9 128", 2016058909857008306ULL},
      {"lfk9 256", 5608568603115478566ULL},
      {"lfk14 128", 451900368105982460ULL},
      {"lfk14 256", 10449704645784463996ULL},
      {"lfk22 128", 9501220839007065442ULL},
      {"lfk22 256", 13889774751652337134ULL},
      {"pbs1 128", 11648824507293340071ULL},
      {"pbs1 256", 15708772606794948835ULL},
      {"pbs2 16", 12458185579026336381ULL},
      {"pbs2 64", 2927819750583930970ULL},
      {"pbs3 16", 11195498355349631654ULL},
      {"pbs3 64", 5037176361825554160ULL},
      {"pbs4 128", 15100783919988879383ULL},
      {"pbs4 256", 6463323747341453832ULL},
      {"pi 128", 18346846155952212855ULL},
      {"pi 256", 10687812922495977723ULL},
      {"nbody 16", 5485486548101769364ULL},
      {"nbody 64", 908299374465405390ULL},
      {"finance 32", 27511558137389173ULL},
      {"finance 64", 10605204536240818770ULL},
      {"laplace_bb 16", 2488080557474141799ULL},
      {"laplace_bb 32", 12748393315996929953ULL},
      {"laplace_bx 16", 2488080557474141799ULL},
      {"laplace_bx 32", 12748393315996929953ULL},
      {"laplace_xb 16", 2488080557474141799ULL},
      {"laplace_xb 32", 12748393315996929953ULL},
  };
  for (const auto& app : suite::validation_suite()) {
    const compiler::CompiledProgram prog =
        app.directive_overrides.empty()
            ? comp(app.source)
            : compiler::compile_with_directives(app.source, app.directive_overrides);
    for (std::size_t i = 0; i < 2 && i < app.problem_sizes.size(); ++i) {
      const long long size = app.problem_sizes[i];
      const std::string key = app.id + " " + std::to_string(size);
      const std::uint64_t digest = tape_digest(record_tape(prog, app.bindings(size)));
      const auto it = expected.find(key);
      if (it == expected.end()) {
        ADD_FAILURE() << "{\"" << key << "\", " << digest << "ULL},";
        continue;
      }
      EXPECT_EQ(digest, it->second) << key;
    }
  }
}

/// The diagnostic (message, location) the functional pass throws for `src`.
std::pair<std::string, support::SourceLoc> pass_failure(std::string_view src) {
  try {
    (void)record_tape(comp(src), {});
  } catch (const support::CompileError& e) {
    return {e.what(), e.loc()};
  }
  ADD_FAILURE() << "the functional pass did not fail";
  return {};
}

TEST(FunctionalPass, OutOfBoundsSubscriptIsReportedWithItsValue) {
  const auto [message, loc] = pass_failure(R"f90(
program t
  parameter (n = 64)
  real u(n), v(n)
!hpf$ template d(n)
!hpf$ align u(i) with d(i)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) v(i) = u(i - 1)
end program t
)f90");
  EXPECT_NE(message.find("subscript out of bounds for 'u' dim 1: 0 not in 1..64"),
            std::string::npos)
      << message;
  EXPECT_EQ(message, "<unknown>: subscript out of bounds for 'u' dim 1: 0 not in 1..64");
  EXPECT_FALSE(loc.valid());
}

TEST(FunctionalPass, IntegerDivisionByZeroIsLocated) {
  const auto [message, loc] = pass_failure(R"f90(
program t
  parameter (n = 8)
  integer iv(n)
!hpf$ template d(n)
!hpf$ align iv(i) with d(i)
!hpf$ distribute d(block)
  k = 0
  forall (i = 1:n) iv(i) = i / k
end program t
)f90");
  EXPECT_NE(message.find("integer division by zero or overflow"), std::string::npos)
      << message;
  EXPECT_EQ(loc.line, 9u);
  EXPECT_EQ(loc.column, 28u);
}

TEST(FunctionalPass, MaskGuardsOutOfBoundsReadsAndZeroDivisors) {
  const compiler::CompiledProgram prog = comp(R"f90(
program t
  parameter (n = 64)
  real u(n), v(n)
  integer iw(n)
!hpf$ template d(n)
!hpf$ align u(i) with d(i)
!hpf$ align v(i) with d(i)
!hpf$ align iw(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) iw(i) = mod(i, 4)
  forall (i = 1:n) v(i) = 0.0
  forall (i = 1:n, i .gt. 1 .and. iw(i) .ne. 0) v(i) = u(i - 1) + real(i / iw(i))
  s = sum(v)
  print *, s
end program t
)f90");
  const sim::ValueTape tape = record_tape(prog, {});
  ASSERT_TRUE(tape.printed.contains("s"));
  EXPECT_EQ(support::format_g17(tape.printed.at("s")), "969.30340418667799");
}

TEST(FunctionalPass, UnloweredIntrinsicFailsAtItsCall) {
  const auto [message, loc] = pass_failure(R"f90(
program t
  parameter (n = 8)
  real a(n, n), w(n)
!hpf$ template d(n)
!hpf$ align w(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) w(i) = 1.0 + minval(a(i, :), 2)
end program t
)f90");
  EXPECT_EQ(message, "8:33: intrinsic 'minval' cannot be evaluated here");
}

TEST(FunctionalPass, NintRoundsHalfAwayFromZero) {
  const sim::ValueTape tape = record_tape(comp(R"f90(
program t
  print *, nint(0.5), nint(-0.5), nint(2.5), nint(-2.5), nint(3.5)
end program t
)f90"), {});
  const std::map<std::string, double> expected = {
      {"nint(0.5)", 1.0}, {"nint((-0.5))", -1.0}, {"nint(2.5)", 3.0},
      {"nint((-2.5))", -3.0}, {"nint(3.5)", 4.0}};
  EXPECT_EQ(tape.printed, expected);
}

TEST(FunctionalPass, FirstFailingPointInOdometerOrderWins) {
  // u(20*j - 10*i) leaves 1..64 first at (i, j) = (1, 4) (value 70) in
  // odometer order, last index fastest; (2, 1) (value 0) fails earlier in
  // any column-major order
  const auto [message, loc] = pass_failure(R"f90(
program t
  parameter (n = 64)
  real u(n), a(4, 4)
!hpf$ template d(n)
!hpf$ align u(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:4, j = 1:4) a(i, j) = u(20 * j - 10 * i)
end program t
)f90");
  EXPECT_NE(message.find("subscript out of bounds for 'u' dim 1: 70 not in 1..64"),
            std::string::npos)
      << message;
}

TEST(FunctionalPass, SelfReadingForallKeepsSnapshotSemantics) {
  // 66 points a row: 64-point chunks end mid-row, so a store committed
  // before a later chunk's reads would change what a(i - 1, j) or
  // a(i, j + 1) sees
  const sim::ValueTape tape = record_tape(comp(R"f90(
program t
  parameter (n = 67)
  real a(n, n)
!hpf$ template d(n, n)
!hpf$ align a(i, j) with d(i, j)
!hpf$ distribute d(block, block)
  forall (i = 1:n, j = 1:n) a(i, j) = real(mod(i * j, 7))
  forall (i = 2:n, j = 1:n - 1) a(i, j) = a(i - 1, j) + a(i, j + 1)
  s = sum(a)
  print *, s, a(3, 65), a(67, 66)
end program t
)f90"), {});
  constexpr int n = 67;
  const auto at = [](int i, int j) { return static_cast<std::size_t>((i - 1) * n + (j - 1)); };
  std::vector<double> before(static_cast<std::size_t>(n * n));
  for (int i = 1; i <= n; ++i) {
    for (int j = 1; j <= n; ++j) before[at(i, j)] = static_cast<double>(i * j % 7);
  }
  std::vector<double> after = before;
  for (int i = 2; i <= n; ++i) {
    for (int j = 1; j <= n - 1; ++j) after[at(i, j)] = before[at(i - 1, j)] + before[at(i, j + 1)];
  }
  double s = 0.0;  // whole numbers: exact in any order
  for (const double x : after) s += x;
  const std::map<std::string, double> expected = {
      {"s", s}, {"a(3,65)", after[at(3, 65)]}, {"a(67,66)", after[at(67, 66)]}};
  EXPECT_EQ(tape.printed, expected);
}

TEST(FunctionalPass, FusedSubscriptDiagnosticsAreTheUnfusedOnes) {
  // an undefined variable fails at its own Var, before any bounds test of
  // its access, even one in an earlier dimension
  EXPECT_EQ(pass_failure(R"f90(
program t
  parameter (n = 64)
  real u(n), v(n)
!hpf$ template d(n)
!hpf$ align u(i) with d(i)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) v(i) = u(i + k)
end program t
)f90").first,
            "9:33: value of 'k' is not available (unresolved critical variable?)");
  constexpr const char* kTwoDims = R"f90(
program t
  parameter (n = 8)
  real a(n, n), v(n)
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) v(i) = a(i + 70, k - 1)
end program t
)f90";
  EXPECT_EQ(pass_failure(kTwoDims).first,
            "8:37: value of 'k' is not available (unresolved critical variable?)");
  EXPECT_EQ(pass_failure(edited(kTwoDims, "a(i + 70,", "a(m + 1,")).first,
            "8:29: value of 'm' is not available (unresolved critical variable?)");
  EXPECT_EQ(pass_failure(edited(kTwoDims, "v(i) = a(i + 70, k - 1)", "a(i, m) = v(i)")).first,
            "8:25: value of 'm' is not available (unresolved critical variable?)");
  // out of bounds: the first failing dimension, unlocated, with its value
  EXPECT_EQ(pass_failure(edited(kTwoDims, "a(i + 70, k - 1)", "a(i + 1, 2 + i)")).first,
            "<unknown>: subscript out of bounds for 'a' dim 2: 9 not in 1..8");
  EXPECT_EQ(pass_failure(edited(kTwoDims, "a(i + 70, k - 1)", "a(i + 8, 8 + i)")).first,
            "<unknown>: subscript out of bounds for 'a' dim 1: 9 not in 1..8");
  EXPECT_EQ(pass_failure(edited(kTwoDims, "a(i + 70, k - 1)", "a(i, 9)")).first,
            "<unknown>: subscript out of bounds for 'a' dim 2: 9 not in 1..8");
  EXPECT_EQ(pass_failure(edited(kTwoDims, "forall (i = 1:n) v(i) = a(i + 70, k - 1)",
                                "forall (i = 1:n, j = 1:n) a(i, j + 1) = v(i)"))
                .first,
            "<unknown>: subscript out of bounds for 'a' dim 2: 9 not in 1..8");
}

TEST(FunctionalPass, NonIntegralSubscriptVariableRoundsHalfAwayFromZero) {
  const compiler::CompiledProgram prog = comp(R"f90(
program t
  parameter (n = 16)
  real u(n), v(n)
  integer k
!hpf$ template d(n)
!hpf$ align u(i) with d(i)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) u(i) = 10.0 * real(i)
  forall (i = 1:n) v(i) = 0.0
  forall (i = 1:n - 3) v(i) = u(i + k)
  forall (i = 1:n - 3) v(i) = v(i) + u(k - 1) + u(k)
  print *, v(1), v(2), v(13)
end program t
)f90");
  // a binding reaches the environment as given, INTEGER or not
  front::Bindings half;
  half.set("k", 2.5);
  const int k = prog.symbols.find("k");
  const compiler::SeededValues seeded = compiler::seed_values(prog.symbols, half);
  EXPECT_NE(std::find(seeded.defined.begin(), seeded.defined.end(), std::pair<int, double>{k, 2.5}),
            seeded.defined.end());
  // i + 2.5 reads u(i + 3), k - 1 reads u(2) and k reads u(3)
  const std::map<std::string, double> expected = {
      {"v(1)", 90.0}, {"v(2)", 100.0}, {"v(13)", 210.0}};
  EXPECT_EQ(record_tape(prog, half).printed, expected);
  // k - 1 = -1.5 rounds to -2
  front::Bindings negative;
  negative.set("k", -0.5);
  try {
    (void)record_tape(prog, negative);
    ADD_FAILURE() << "the functional pass did not fail";
  } catch (const support::CompileError& e) {
    EXPECT_STREQ(e.what(), "<unknown>: subscript out of bounds for 'u' dim 1: -2 not in 1..16");
  }
}

TEST(FunctionalPass, ShiftedReadLeavingItsRangeInTheLastChunkFails) {
  // 67 x 21 points: the last 64-lane chunk holds rows 65..67, and only row
  // 67 reads u(68, j). Every earlier chunk keeps i + 1 inside 1..67, so the
  // bounds test that fails is the screen of that last chunk alone.
  const auto [message, loc] = pass_failure(R"f90(
program t
  parameter (n = 67)
  real u(n, n), v(n, n)
!hpf$ template d(n, n)
!hpf$ align u(i, j) with d(i, j)
!hpf$ align v(i, j) with d(i, j)
!hpf$ distribute d(block, block)
  forall (i = 1:n, j = 1:21) v(i, j) = u(i + 1, j)
end program t
)f90");
  EXPECT_EQ(message, "<unknown>: subscript out of bounds for 'u' dim 1: 68 not in 1..67");
  EXPECT_FALSE(loc.valid());
}

TEST(FunctionalPass, NegativeStepForallMatchesAHandLoop) {
  const sim::ValueTape tape = record_tape(comp(R"f90(
program t
  parameter (n = 67)
  real u(n), v(n)
!hpf$ template d(n)
!hpf$ align u(i) with d(i)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) u(i) = real(mod(i * 13, 31))
  forall (i = 1:n) v(i) = 0.0
  forall (i = n:2:-1) v(i) = u(i - 1)
  s = sum(v)
  print *, s, v(1), v(2), v(66), v(67)
end program t
)f90"), {});
  constexpr int n = 67;
  std::vector<double> u(n + 1), v(n + 1, 0.0);
  for (int i = 1; i <= n; ++i) u[i] = static_cast<double>(i * 13 % 31);
  for (int i = n; i >= 2; --i) v[i] = u[i - 1];
  double s = 0.0;  // whole numbers: exact in any order
  for (int i = 1; i <= n; ++i) s += v[i];
  const std::map<std::string, double> expected = {
      {"s", s}, {"v(1)", v[1]}, {"v(2)", v[2]}, {"v(66)", v[66]}, {"v(67)", v[67]}};
  EXPECT_EQ(tape.printed, expected);
}

TEST(FunctionalPass, IndexLeftLargeByAnEarlierForallReadsAsBefore) {
  // the first forall leaves i = 100 in every lane; the second's 37 points
  // fill one chunk of width 40, whose three padding lanes held that 100
  const sim::ValueTape tape = record_tape(comp(R"f90(
program t
  parameter (n = 37, m = 100)
  real u(n), w(n), big(m)
!hpf$ template d(m)
!hpf$ align big(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:m) big(i) = real(i)
  forall (i = 1:n) u(i) = real(2 * i)
  forall (i = 1:n - 1) w(i) = big(i + 1) + u(i + 1)
  k = i
  s = sum(w)
  print *, k, w(1), w(36), s
end program t
)f90"), {});
  // w(i) = (i + 1) + 2 (i + 1) for i < 37; w(37) keeps its fill, so s is
  // pinned as the pass printed it before index intervals existed
  const std::map<std::string, double> expected = {
      {"k", 36.0}, {"w(1)", 6.0}, {"w(36)", 111.0}, {"s", 2106.9451539471584}};
  EXPECT_EQ(tape.printed, expected);
}

// --- run lists and the run path of a fused element access -------------------------

/// Whether every lane `slot`'s runs cover holds its run's value, defined,
/// and the runs start at lane 0 without a gap.
bool runs_hold(const compiler::BatchEnv& env, int slot) {
  std::size_t lane = 0;
  for (const compiler::BatchEnv::Run& run : env.runs(slot)) {
    if (run.lane != lane || run.count == 0 || (run.count == 1 && run.step != 0.0)) return false;
    for (std::size_t j = 0; j < run.count; ++j, ++lane) {
      if (env.values(slot)[lane] != run.first + static_cast<double>(j) * run.step ||
          env.defined(slot)[lane] == 0) {
        return false;
      }
    }
  }
  return lane <= env.stride();
}

using RunTuple = std::tuple<std::uint32_t, std::uint32_t, double, double>;

std::vector<RunTuple> runs_of(const compiler::BatchEnv& env, int slot) {
  std::vector<RunTuple> out;
  for (const compiler::BatchEnv::Run& r : env.runs(slot)) out.emplace_back(r.lane, r.count, r.first, r.step);
  return out;
}

TEST(RunList, ResetBroadcastAndDefine) {
  compiler::BatchEnv env;
  env.reset(3, 20);  // stride 24
  for (int slot = 0; slot < 3; ++slot) EXPECT_TRUE(env.runs(slot).empty());
  env.broadcast(0, 7.0);  // one step-0 run over every lane, padding included
  EXPECT_EQ(runs_of(env, 0), (std::vector<RunTuple>{{0, 24, 7.0, 0.0}}));
  EXPECT_TRUE(runs_hold(env, 0));
  env.broadcast(0, -3.0, false);  // undefined lanes have no run
  EXPECT_TRUE(env.runs(0).empty());
  for (const double x : {2.5, std::nan(""), HUGE_VAL, -HUGE_VAL, 0x1p52, -0x1p60}) {
    env.broadcast(1, 4.0);
    env.broadcast(1, x);
    EXPECT_TRUE(env.runs(1).empty()) << x;
  }
  env.broadcast(1, 4.0);  // a later broadcast makes a run again
  EXPECT_EQ(runs_of(env, 1), (std::vector<RunTuple>{{0, 24, 4.0, 0.0}}));
  env.define(1, 5, 4.0);  // even the value the run gave the lane
  EXPECT_TRUE(env.runs(1).empty());
  env.define_run(1, 3, 2, 1, 1);  // a run past lane 0 does not start a list
  EXPECT_TRUE(env.runs(1).empty());
}

TEST(RunList, DefineRunExtendsOrEmpties) {
  compiler::BatchEnv env;
  env.reset(1, 64);
  env.broadcast(0, 9.0);
  env.define_run(0, 0, 5, 3, 2);  // lane 0 starts a new list: 3, 5, ..., 11
  EXPECT_EQ(runs_of(env, 0), (std::vector<RunTuple>{{0, 5, 3.0, 2.0}}));
  env.define_run(0, 5, 4, 10, -3);  // contiguous: 10, 7, 4, 1
  env.define_run(0, 9, 1, 12, 5);   // one lane: step 0
  env.define_run(0, 10, 0, 1000, 1);  // no lanes, no change
  env.define_run(0, 10, 3, -4, 0);  // held still
  EXPECT_EQ(runs_of(env, 0), (std::vector<RunTuple>{
                                 {0, 5, 3.0, 2.0}, {5, 4, 10.0, -3.0}, {9, 1, 12.0, 0.0},
                                 {10, 3, -4.0, 0.0}}));
  EXPECT_TRUE(runs_hold(env, 0));
  env.define_run(0, 14, 2, 1, 1);  // a gap at lane 13
  EXPECT_TRUE(env.runs(0).empty());
  env.define_run(0, 0, 4, 1, 1);
  env.define_run(0, 2, 4, 1, 1);  // overlapping
  EXPECT_TRUE(env.runs(0).empty());
  env.define_run(0, 0, 8, 6, -1);  // lane 0 starts over
  EXPECT_EQ(runs_of(env, 0), (std::vector<RunTuple>{{0, 8, 6.0, -1.0}}));

  // a run reaching 2^52 could not be read back exactly as first + j step
  constexpr long long kTop = 1LL << 52;
  env.define_run(0, 8, 3, kTop - 3, 1);  // ends just below: kept
  EXPECT_EQ(runs_of(env, 0).size(), 2u);
  EXPECT_TRUE(runs_hold(env, 0));
  env.define_run(0, 11, 2, kTop - 1, 1);  // ends at 2^52
  EXPECT_TRUE(env.runs(0).empty());
  env.define_run(0, 0, 2, -kTop, 1);
  EXPECT_TRUE(env.runs(0).empty());
}

/// A one-instruction program: a fused ArrayLoad or ArrayOffset of a rank-`rank`
/// array whose subscript d reads slot d plus offsets[d], or offsets[d]
/// alone where constant[d].
compiler::CostProgram fused_access(compiler::CostOp op, int rank, const std::vector<double>& offsets,
                                   const std::vector<bool>& constant) {
  compiler::CostProgram cp;
  cp.arrays.push_back(compiler::CostArray{0, rank, -1});
  for (int d = 0; d < rank; ++d) {
    compiler::AffineSubscript sub;
    sub.slot = constant[static_cast<std::size_t>(d)] ? -1 : d;
    sub.offset = offsets[static_cast<std::size_t>(d)];
    cp.subscripts.push_back(sub);
  }
  cp.code.push_back(compiler::CostInstr{op, 0, 0, 0, 1});
  cp.sources.emplace_back();
  cp.exprs.push_back(compiler::ExprCode{0, 1, 0, 1, 0, 0});
  cp.slots = static_cast<std::size_t>(rank);
  cp.max_regs = 1;
  return cp;
}

TEST(RunAccess, SameBitsAndFlagsAsTheScreen) {
  // Each case loads lanes [0, m) of a width-S chunk as runs of random
  // lengths, as load_points would: per dimension, each run a random first
  // subscript and a step of -2..2 that keep it inside its extent, or one of
  // these draws: a run one past the low or high edge, a skipped run
  // (undefined lanes: a gap), a lane defined alone, or the subscript held
  // by a broadcast; a dimension may also be a constant subscript, in range
  // or one past. The lanes past m hold an earlier loop's leftovers. The
  // same values are evaluated with their runs as built and with the runs
  // emptied (define() of a lane past the evaluated width, its value
  // unchanged), which takes the screen.
  enum Draw { Inside, PastLow, PastHigh, Gap, Alone, Held, kDraws };
  std::mt19937_64 rng(20261019);
  const auto pick = [&](long long lo, long long hi) {
    return std::uniform_int_distribution<long long>(lo, hi)(rng);
  };
  std::vector<double> regs_file(8 + 64);
  const auto raw = reinterpret_cast<std::uintptr_t>(regs_file.data());
  double* const regs = reinterpret_cast<double*>((raw + 63) & ~std::uintptr_t{63});
  int run_path = 0;
  int cases = 0;
  for (const std::size_t width : {std::size_t{8}, std::size_t{64}}) {
    for (int rank = 1; rank <= 3; ++rank) {
      for (int trial = 0; trial < 300; ++trial) {
        const auto m = static_cast<std::size_t>(
            pick(0, 2) == 0 ? pick(1, static_cast<long long>(width)) : static_cast<long long>(width));
        std::vector<std::size_t> cuts{0};  // run boundaries over [0, m)
        const auto longest = static_cast<long long>(m / static_cast<std::size_t>(pick(1, 4)));
        while (cuts.back() < m) {
          cuts.push_back(std::min(m, cuts.back() + static_cast<std::size_t>(pick(1, std::max(1LL, longest)))));
        }
        std::vector<double> extents, strides, offsets;
        std::vector<bool> constant;
        for (int d = 0; d < rank; ++d) {
          extents.push_back(static_cast<double>(pick(1, 12)));
          offsets.push_back(static_cast<double>(pick(-3, 3)));
          constant.push_back(pick(0, 5) == 0);
        }
        strides.assign(static_cast<std::size_t>(rank), 1.0);
        for (int d = rank - 1; d > 0; --d) strides[d - 1] = strides[d] * extents[d];
        std::vector<double> data(static_cast<std::size_t>(strides[0] * extents[0]));
        for (double& x : data) x = std::uniform_real_distribution<double>(-1.0, 1.0)(rng);
        const compiler::ArrayView view{data.data(), extents.data(), strides.data()};

        // the same draws build both envs; the spare last lane is never evaluated
        compiler::BatchEnv envs[2];
        for (compiler::BatchEnv& env : envs) env.reset(static_cast<std::size_t>(rank), width + 1);
        bool runs_inside = true;  // whether the run path should take the access
        for (int d = 0; d < rank; ++d) {
          const auto ext = static_cast<long long>(extents[d]);
          const auto k = static_cast<long long>(offsets[d]);
          if (constant[d]) {  // k itself is the subscript: in range, or one past
            offsets[d] = static_cast<double>(pick(0, ext + 1));
            runs_inside = runs_inside && offsets[d] >= 1.0 && offsets[d] <= extents[d];
            continue;
          }
          const auto draw = pick(0, 1) == 0 ? Inside : static_cast<Draw>(pick(0, kDraws - 1));
          // the run a draw changes; a gap is never the last of several, whose
          // lanes would then be padding lanes
          const auto runs = static_cast<long long>(cuts.size()) - 1;
          const auto odd = static_cast<std::size_t>(pick(0, draw == Gap && runs > 1 ? runs - 2 : runs - 1));
          if (draw == Held) {
            const long long v = pick(0, ext + 1);
            for (compiler::BatchEnv& env : envs) env.broadcast(d, static_cast<double>(v - k));
            runs_inside = runs_inside && v >= 1 && v <= ext;
            envs[1].define(d, width, envs[1].values(d)[width]);
            continue;
          }
          const auto leftover = static_cast<double>(pick(-5, 20));
          for (compiler::BatchEnv& env : envs) env.broadcast(d, leftover, draw != Gap);
          for (std::size_t r = 0; r + 1 < cuts.size(); ++r) {
            const auto count = static_cast<long long>(cuts[r + 1] - cuts[r]);
            long long step = pick(-2, 2);
            if (std::abs(step) * (count - 1) > ext - 1) step = 0;
            const long long span = std::abs(step) * (count - 1);
            long long low = pick(1, ext - span);  // the run's least subscript
            if (r == odd && draw == PastLow) low = 0;
            if (r == odd && draw == PastHigh) low = ext - span + 1;
            const long long first = step >= 0 ? low : low + span;
            if (r == odd && draw == Gap) continue;
            for (compiler::BatchEnv& env : envs) {
              env.define_run(d, cuts[r], static_cast<std::size_t>(count), first - k, step);
            }
            if (r == odd && draw == Alone) {
              for (compiler::BatchEnv& env : envs) env.define(d, cuts[r], env.values(d)[cuts[r]]);
            }
          }
          runs_inside = runs_inside && (draw == Inside || draw == Held);
          envs[1].define(d, width, envs[1].values(d)[width]);
          ASSERT_TRUE(runs_hold(envs[0], d));
        }
        run_path += runs_inside ? 1 : 0;
        ++cases;

        for (const compiler::CostOp op : {compiler::CostOp::ArrayLoad, compiler::CostOp::ArrayOffset}) {
          const compiler::CostProgram cp = fused_access(op, rank, offsets, constant);
          const std::vector<compiler::ArrayView> views{view};
          std::vector<double> out[2];
          std::vector<unsigned char> ok[2];
          for (int e = 0; e < 2; ++e) {
            out[e].assign(width, 0.0);
            ok[e].assign(width, 0);
            (void)compiler::eval_code_batch(cp, cp.exprs[0], envs[e], views, regs, out[e].data(),
                                            ok[e].data(), width);
          }
          for (std::size_t l = 0; l < m; ++l) {
            ASSERT_EQ(ok[0][l], ok[1][l]) << "rank " << rank << " trial " << trial << " lane " << l;
            ASSERT_EQ(std::bit_cast<std::uint64_t>(out[0][l]), std::bit_cast<std::uint64_t>(out[1][l]))
                << "rank " << rank << " trial " << trial << " lane " << l;
          }
          for (std::size_t l = m; runs_inside && l < width; ++l) {  // padding: lane 0's element
            ASSERT_EQ(std::bit_cast<std::uint64_t>(out[0][l]), std::bit_cast<std::uint64_t>(out[0][0]))
                << "rank " << rank << " trial " << trial << " lane " << l;
          }
        }
      }
    }
  }
  // both paths are exercised
  EXPECT_GT(run_path, cases / 5);
  EXPECT_LT(run_path, cases - cases / 5);
}

/// A 2-D forall over (i, j) with innermost extent `inner`, reading
/// shifted neighbours of `a`; `via_index` routes every subscript through
/// ix(x) = x, which keeps the reads off the run path.
std::string one_run_per_row(int inner, bool via_index) {
  const std::string i = via_index ? "ix(i)" : "i";
  const std::string j = via_index ? "ix(j)" : "j";
  return support::strfmt(R"f90(
program t
  parameter (n = 150, m = %d)
  real a(n, m), b(n, m)
  integer ix(n)
  forall (k = 1:n) ix(k) = k
  forall (i = 1:n, j = 1:m) a(i, j) = real(i * 7 + j * 3) * 0.5
  forall (i = 2:n - 1, j = 1:m) b(%s, %s) = a(%s - 1, %s) - a(%s + 1, %s) * 2.0 + a(%s, %s)
  s = sum(b)
  print *, s, b(2, 1), b(n - 1, m)
end program t
)f90",
                           inner, i.c_str(), j.c_str(), i.c_str(), j.c_str(), i.c_str(),
                           j.c_str(), i.c_str(), j.c_str());
}

TEST(FunctionalPass, ShortInnermostRunsRecordTheScreensTape) {
  for (const int inner : {1, 3}) {
    const sim::ValueTape runs = record_tape(comp(one_run_per_row(inner, false)), {});
    const sim::ValueTape screened = record_tape(comp(one_run_per_row(inner, true)), {});
    EXPECT_EQ(runs.words, screened.words) << inner;
    EXPECT_EQ(runs.printed, screened.printed) << inner;
    EXPECT_EQ(runs.scalars, screened.scalars) << inner;
    EXPECT_EQ(runs.printed.size(), 3u);
  }
}

TEST(FunctionalPass, OnlyTheLastLaneOfAChunkFailing) {
  // 64 points, one chunk: only lane 63 (i = 64) reads u(65)
  const auto [message, loc] = pass_failure(R"f90(
program t
  parameter (n = 64)
  real u(n), v(n)
!hpf$ template d(n)
!hpf$ align u(i) with d(i)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) v(i) = u(i + 1)
end program t
)f90");
  EXPECT_EQ(message, "<unknown>: subscript out of bounds for 'u' dim 1: 65 not in 1..64");
  EXPECT_FALSE(loc.valid());
}

// --- timing walk pins and plan invalidation ----------------------------------------
//
// A measurement's whole timing output — every sample, the detail's
// total, processor clocks and per-node comp/comm/overhead/visits — pinned by
// an FNV-1a digest of their bits per suite app at its two smallest Table 2
// sizes over P = 1, 2, 4, 8 and 3 runs. The constants were taken before the
// timing walk derived its charges once per (tape, layout); a change to any of
// them is a change to what the simulator measures.

void append_bits(std::string& bytes, std::uint64_t bits) {
  for (int b = 0; b < 8; ++b) bytes += static_cast<char>((bits >> (8 * b)) & 0xff);
}
void append_bits(std::string& bytes, double v) {
  append_bits(bytes, std::bit_cast<std::uint64_t>(v));
}

void append_measured(std::string& bytes, const sim::MeasuredResult& m) {
  for (const double s : m.stats.samples) append_bits(bytes, s);
  append_bits(bytes, m.detail.total);
  for (const double c : m.detail.proc_clock) append_bits(bytes, c);
  for (const sim::NodeMetric& n : m.detail.per_node) {
    append_bits(bytes, n.comp);
    append_bits(bytes, n.comm);
    append_bits(bytes, n.overhead);
    append_bits(bytes, static_cast<std::uint64_t>(n.visits));
  }
}

/// The digest of a fresh measurement over P = 1, 2, 4, 8 and 3 runs.
std::uint64_t measured_digest(const compiler::CompiledProgram& prog,
                              const front::Bindings& bindings) {
  const machine::MachineModel machine = machine::make_ipsc860();
  std::string bytes;
  for (const int nprocs : {1, 2, 4, 8}) {
    compiler::LayoutOptions lo;
    lo.nprocs = nprocs;
    append_measured(bytes, measure(machine, prog, bindings, lo, {}, 3));
  }
  return support::fnv1a64(bytes);
}

// The first forall's mask admits fewer points every trip; the second's
// stays the same while the values under it change.
constexpr const char* kMaskChangesInDo = R"f90(
program t
  parameter (n = 48)
  real a(n), b(n)
!hpf$ template d(n)
!hpf$ align a(i) with d(i)
!hpf$ align b(i) with d(i)
!hpf$ distribute d(cyclic)
  forall (i = 1:n) a(i) = real(mod(i * 5, 13))
  forall (i = 1:n) b(i) = 0.0
  do k = 1, 10
    forall (i = 1:n, a(i) .gt. real(k)) b(i) = b(i) + a(i) * 2.0
    forall (i = 1:n, a(i) .gt. 6.0) b(i) = b(i) * 0.5
  end do
  s = sum(b)
  print *, s
end program t
)f90";

TEST(TimingWalk, ProgramDigestsArePinned) {
  const std::map<std::string, std::uint64_t> expected = {
      {"if in do", 1451877038911535473ULL},
      {"do while", 17971709384729842580ULL},
      {"masked forall", 17045961448033786019ULL},
      {"invariant overlap", 6429078965416776439ULL},
      {"reductions", 15823415108093721013ULL},
      {"mask changes in do", 470045586281691381ULL},
  };
  const std::vector<std::pair<std::string, const char*>> programs = {
      {"if in do", kIfInDo},
      {"do while", kDoWhile},
      {"masked forall", kMaskedForall},
      {"invariant overlap", kInvariantOverlap},
      {"reductions", kReductions},
      {"mask changes in do", kMaskChangesInDo},
  };
  for (const auto& [key, src] : programs) {
    const std::uint64_t digest = measured_digest(comp(src), {});
    const auto it = expected.find(key);
    if (it == expected.end()) {
      ADD_FAILURE() << "{\"" << key << "\", " << digest << "ULL},";
      continue;
    }
    EXPECT_EQ(digest, it->second) << key;
  }
}

TEST(TimingWalk, SuiteDigestsArePinned) {
  const std::map<std::string, std::uint64_t> expected = {
      {"lfk1 128", 9783924136995202352ULL},
      {"lfk1 256", 4695336861097031281ULL},
      {"lfk2 128", 4888586958756683944ULL},
      {"lfk2 256", 9383331853594350895ULL},
      {"lfk3 128", 1479074471751732028ULL},
      {"lfk3 256", 585414506396436615ULL},
      {"lfk9 128", 10450660904678188827ULL},
      {"lfk9 256", 15131848576697089355ULL},
      {"lfk14 128", 4868131347854936991ULL},
      {"lfk14 256", 13538537179012852187ULL},
      {"lfk22 128", 11770899457115602734ULL},
      {"lfk22 256", 17771062210223923788ULL},
      {"pbs1 128", 4648761292243053672ULL},
      {"pbs1 256", 16348547142397655006ULL},
      {"pbs2 16", 14549193926738415407ULL},
      {"pbs2 64", 329167157569890501ULL},
      {"pbs3 16", 6508506204979709165ULL},
      {"pbs3 64", 1651932548750522802ULL},
      {"pbs4 128", 2617121840452288549ULL},
      {"pbs4 256", 13846527114381884782ULL},
      {"pi 128", 4601311509425155909ULL},
      {"pi 256", 12354741453828200075ULL},
      {"nbody 16", 943512850351417250ULL},
      {"nbody 64", 11260965002126097853ULL},
      {"finance 32", 15190030856947332652ULL},
      {"finance 64", 7574170547916508690ULL},
      {"laplace_bb 16", 14758028481931659423ULL},
      {"laplace_bb 32", 13887382886132448420ULL},
      {"laplace_bx 16", 13675551710302207394ULL},
      {"laplace_bx 32", 8601155402135940682ULL},
      {"laplace_xb 16", 4580533895499089102ULL},
      {"laplace_xb 32", 11069887770393954146ULL},
  };
  for (const auto& app : suite::validation_suite()) {
    const compiler::CompiledProgram prog =
        app.directive_overrides.empty()
            ? comp(app.source)
            : compiler::compile_with_directives(app.source, app.directive_overrides);
    for (std::size_t i = 0; i < 2 && i < app.problem_sizes.size(); ++i) {
      const long long size = app.problem_sizes[i];
      const std::string key = app.id + " " + std::to_string(size);
      const std::uint64_t digest = measured_digest(prog, app.bindings(size));
      const auto it = expected.find(key);
      if (it == expected.end()) {
        ADD_FAILURE() << "{\"" << key << "\", " << digest << "ULL},";
        continue;
      }
      EXPECT_EQ(digest, it->second) << key;
    }
  }
}

/// Re-times `tape` through `arena`, rebound to (layout, machine), under the
/// first three run seeds, and expects each result to equal a fresh run of
/// that seed bit for bit: the first walk derives the plan, the others read
/// it back.
void expect_arena_matches_fresh(sim::Executor& arena, const sim::ValueTape& tape,
                                const compiler::CompiledProgram& prog,
                                const front::Bindings& bindings,
                                const compiler::DataLayout& layout,
                                const machine::MachineModel& machine,
                                const std::string& label) {
  const sim::SimOptions so;
  arena.rebind(prog, layout, machine, so, bindings);
  sim::SimResult got;
  for (int r = 0; r < 3; ++r) {
    sim::SimOptions run_opts = so;
    run_opts.seed = run_seed(so.seed, r);
    arena.retime_into(tape, run_opts.seed, got);
    const sim::SimResult want = run_fresh(prog, layout, machine, run_opts, bindings);
    expect_same_result(got, want, label + " run " + std::to_string(r));
  }
}

TEST(TimingWalk, PlanFollowsTheLayoutAcrossRebinds) {
  // one arena, one tape: layouts A, B, A of the same processor count
  const auto& app = suite::app("laplace_bb");
  const compiler::CompiledProgram prog =
      compiler::compile_with_directives(app.source, app.directive_overrides);
  const front::Bindings bindings = app.bindings(16);
  const machine::MachineModel machine = machine::make_ipsc860();
  compiler::LayoutOptions line;
  line.nprocs = 4;
  line.grid_shape = std::vector<int>{4, 1};
  compiler::LayoutOptions square;
  square.nprocs = 4;
  square.grid_shape = std::vector<int>{2, 2};
  const compiler::DataLayout a = compiler::make_layout(prog, bindings, line);
  const compiler::DataLayout b = compiler::make_layout(prog, bindings, square);
  const sim::ValueTape tape = record_fresh(prog, a, machine, {}, bindings);
  sim::Executor arena;
  expect_arena_matches_fresh(arena, tape, prog, bindings, a, machine, "A");
  expect_arena_matches_fresh(arena, tape, prog, bindings, b, machine, "B");
  expect_arena_matches_fresh(arena, tape, prog, bindings, a, machine, "A again");
}

TEST(TimingWalk, TwoMachinesShareOneLayout) {
  const auto& app = suite::app("lfk9");
  const compiler::CompiledProgram prog = comp(app.source);
  const front::Bindings bindings = app.bindings(app.problem_sizes.front());
  compiler::LayoutOptions lo;
  lo.nprocs = 4;
  const compiler::DataLayout layout = compiler::make_layout(prog, bindings, lo);
  const machine::MachineModel ipsc = machine::make_ipsc860();
  const machine::MachineModel paragon = machine::make_paragon();
  const sim::ValueTape tape = record_fresh(prog, layout, ipsc, {}, bindings);
  sim::Executor arena;
  expect_arena_matches_fresh(arena, tape, prog, bindings, layout, ipsc, "ipsc860");
  expect_arena_matches_fresh(arena, tape, prog, bindings, layout, paragon, "paragon");
  expect_arena_matches_fresh(arena, tape, prog, bindings, layout, ipsc, "ipsc860 again");
}

TEST(TimingWalk, DoWhoseForallSpaceChangesEveryTrip) {
  // lfk2's level loop halves ii every trip, and with it the forall's space
  const auto& app = suite::app("lfk2");
  const compiler::CompiledProgram prog = comp(app.source);
  const machine::MachineModel machine = machine::make_ipsc860();
  sim::Executor arena;
  for (const long long size : {app.problem_sizes[0], app.problem_sizes[1]}) {
    const front::Bindings bindings = app.bindings(size);
    sim::ValueTape tape;
    for (const int nprocs : {1, 2, 4, 8}) {
      compiler::LayoutOptions lo;
      lo.nprocs = nprocs;
      const compiler::DataLayout layout = compiler::make_layout(prog, bindings, lo);
      if (tape.words.empty()) tape = record_fresh(prog, layout, machine, {}, bindings);
      expect_arena_matches_fresh(arena, tape, prog, bindings, layout, machine,
                                 "lfk2 " + std::to_string(size) + " P=" +
                                     std::to_string(nprocs));
    }
  }
}

TEST(TimingWalk, MaskedForallWhoseMaskChangesEveryTrip) {
  const compiler::CompiledProgram prog = comp(kMaskChangesInDo);
  const machine::MachineModel machine = machine::make_ipsc860();
  sim::ValueTape tape;
  sim::Executor arena;
  for (const int nprocs : {1, 2, 4, 8}) {
    compiler::LayoutOptions lo;
    lo.nprocs = nprocs;
    const compiler::DataLayout layout = compiler::make_layout(prog, {}, lo);
    if (tape.words.empty()) tape = record_fresh(prog, layout, machine, {}, {});
    expect_arena_matches_fresh(arena, tape, prog, {}, layout, machine,
                               "P=" + std::to_string(nprocs));
  }
}

TEST(TimingWalk, SharedNoiseStreamsKeepEveryBit) {
  // a walk reading its seed's stream equals one seeding its own engine;
  // nbody's walks (about 19k words at n=256, P=8) run far past the memo
  const machine::MachineModel machine = machine::make_ipsc860();
  for (const auto& [name, size] : {std::pair{"nbody", 256LL}, {"laplace_bb", 64LL}, {"pi", 256LL}}) {
    const auto& app = suite::app(name);
    const compiler::CompiledProgram prog = comp(app.source);
    const front::Bindings bindings = app.bindings(size);
    compiler::LayoutOptions lo;
    lo.nprocs = 8;
    const compiler::DataLayout layout = compiler::make_layout(prog, bindings, lo);
    const sim::SimOptions so;
    constexpr int kRuns = 3;
    const sim::MeasuredResult alone = measure(machine, prog, bindings, layout, so, kRuns);
    const sim::ValueTape tape = record_fresh(prog, layout, machine, so, bindings);
    sim::Executor arena;
    arena.rebind(prog, layout, machine, so, bindings);
    sim::SimResult detail;
    for (int r = 0; r < kRuns; ++r) {
      const std::uint64_t seed = sim::run_seed(so.seed, r);
      const sim::NoiseStream stream(seed);
      double total = 0;
      if (r == 0) {
        arena.retime_into(tape, seed, detail, &stream);
        total = detail.total;
      } else {
        total = arena.retime(tape, seed, &stream);
      }
      EXPECT_EQ(total, alone.stats.samples[static_cast<std::size_t>(r)]) << name << " run " << r;
    }
    EXPECT_EQ(detail.proc_clock, alone.detail.proc_clock) << name;
    EXPECT_EQ(detail.comp, alone.detail.comp) << name;
    EXPECT_EQ(detail.comm, alone.detail.comm) << name;
  }
}

TEST(TimingWalk, LaterSeedsAllocateNothing) {
  const auto& app = suite::app("nbody");
  const compiler::CompiledProgram prog = comp(app.source);
  const front::Bindings bindings = app.bindings(64);
  compiler::LayoutOptions lo;
  lo.nprocs = 8;
  const compiler::DataLayout layout = compiler::make_layout(prog, bindings, lo);
  const machine::MachineModel machine = machine::make_ipsc860();
  const sim::ValueTape tape = record_fresh(prog, layout, machine, {}, bindings);
  sim::Executor arena;
  arena.rebind(prog, layout, machine, {}, bindings);
  const double first = arena.retime(tape, run_seed(42, 0));
  g_news.store(0);
  g_count_news.store(true);
  const double second = arena.retime(tape, run_seed(42, 1));
  const double third = arena.retime(tape, run_seed(42, 2));
  g_count_news.store(false);
  EXPECT_EQ(g_news.load(), 0);
  EXPECT_GT(first, 0.0);
  EXPECT_NE(second, third);
}

}  // namespace
}  // namespace hpf90d
