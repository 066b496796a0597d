// Core interpretation framework tests: AAG/SAAG abstraction, critical
// variables, interpretation functions, engine behaviour, output module.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "compiler/pipeline.hpp"
#include "core/aag.hpp"
#include "core/batch_engine.hpp"
#include "core/critical.hpp"
#include "core/engine.hpp"
#include "core/output.hpp"
#include "machine/ipsc860.hpp"
#include "suite/suite.hpp"
#include "support/diagnostics.hpp"

namespace hpf90d {
namespace {

struct CoreFixture {
  machine::MachineModel machine = machine::make_ipsc860();

  core::PredictionResult predict(const compiler::CompiledProgram& prog, int nprocs,
                                 const front::Bindings& bindings = {},
                                 core::PredictOptions options = {}) {
    // the calls Session::predict makes: critical variables before the
    // layout, so a missing binding is the curated diagnostic
    compiler::LayoutOptions lo;
    lo.nprocs = nprocs;
    core::require_critical_complete(prog, bindings);
    return core::interpret_one(prog, bindings, compiler::make_layout(prog, bindings, lo),
                               machine, options);
  }
};

TEST(AAG, ClassifiesSuiteConstructs) {
  auto prog = compiler::compile(suite::app("pi").source);
  core::SynchronizedAAG saag(prog);
  int iter_d = 0, reduct = 0, io = 0, seq = 0;
  for (const auto& aau : saag.aaus()) {
    switch (aau.kind) {
      case core::AAUKind::IterD: ++iter_d; break;
      case core::AAUKind::Reduct: ++reduct; break;
      case core::AAUKind::IO: ++io; break;
      case core::AAUKind::Seq: ++seq; break;
      default: break;
    }
  }
  EXPECT_EQ(iter_d, 1);
  EXPECT_EQ(reduct, 1);
  EXPECT_EQ(io, 1);
  EXPECT_GE(seq, 2);  // program + scalar assigns
}

TEST(AAG, MaskedForallIsCondtD) {
  auto prog = compiler::compile(R"f90(
program t
  parameter (n = 32)
  real v(n)
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n, v(i) .gt. 0.0) v(i) = 1.0/v(i)
end program t
)f90");
  core::SynchronizedAAG saag(prog);
  bool found = false;
  for (const auto& aau : saag.aaus()) {
    found = found || aau.kind == core::AAUKind::CondtD;
  }
  EXPECT_TRUE(found);
}

TEST(AAG, CommTableListsEveryCommAau) {
  const auto& app = suite::app("laplace_bb");
  auto prog = compiler::compile_with_directives(app.source, app.directive_overrides);
  core::SynchronizedAAG saag(prog);
  EXPECT_EQ(saag.comm_table().size(), 4u);  // the four overlap exchanges
  for (const auto& entry : saag.comm_table()) {
    EXPECT_EQ(entry.pattern, "nearest neighbour");
    EXPECT_GE(entry.array_symbol, 0);
  }
}

TEST(AAG, SyncEdgesConnectComputePhases) {
  auto prog = compiler::compile(suite::app("nbody").source);
  core::SynchronizedAAG saag(prog);
  // the rendering's last line counts them
  const std::string text = saag.str();
  const std::size_t at = text.rfind("sync edges: ");
  ASSERT_NE(at, std::string::npos);
  EXPECT_GT(std::stoi(text.substr(at + 12)), 0);
}

TEST(AAG, PerLineIndexAndSubtree) {
  auto prog = compiler::compile(suite::app("pi").source);
  core::SynchronizedAAG saag(prog);
  // line 11 of the pi source holds the forall
  bool any_line = false;
  for (const auto& aau : saag.aaus()) {
    if (aau.loc.valid()) {
      EXPECT_FALSE(saag.aaus_on_line(aau.loc.line).empty());
      any_line = true;
    }
  }
  EXPECT_TRUE(any_line);
  const auto whole = saag.subtree(saag.root());
  EXPECT_EQ(whole.size(), saag.aaus().size());
}

// --- critical variables -------------------------------------------------------

TEST(Critical, ParametersResolveByTracing) {
  auto prog = compiler::compile(suite::app("lfk1").source);
  const auto report = core::analyze_critical(prog, {});
  EXPECT_TRUE(report.complete());
  // n and niter steer control flow
  EXPECT_NE(std::find(report.critical.begin(), report.critical.end(), "n"),
            report.critical.end());
  EXPECT_NE(std::find(report.critical.begin(), report.critical.end(), "niter"),
            report.critical.end());
}

TEST(Critical, ScalarDefinitionPathsTraced) {
  // LFK2's ii/ipnt/ipntp are computed scalars feeding loop bounds
  auto prog = compiler::compile(suite::app("lfk2").source);
  const auto report = core::analyze_critical(prog, {});
  EXPECT_TRUE(report.complete());
  EXPECT_NE(std::find(report.traced.begin(), report.traced.end(), "ii"),
            report.traced.end());
}

TEST(Critical, DataDependentBoundRequiresBinding) {
  auto prog = compiler::compile(R"f90(
program t
  parameter (n = 32)
  real v(n)
  integer k
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  k = int(sum(v))
  forall (i = 1:k) v(i) = 0.0
end program t
)f90");
  const auto report = core::analyze_critical(prog, {});
  EXPECT_FALSE(report.complete());
  EXPECT_EQ(report.unresolved, std::vector<std::string>{"k"});

  front::Bindings b;
  b.set_int("k", 16);
  const auto bound = core::analyze_critical(prog, b);
  EXPECT_TRUE(bound.complete());
  EXPECT_EQ(bound.bound, std::vector<std::string>{"k"});
}

TEST(Critical, PredictThrowsOnUnresolved) {
  CoreFixture f;
  auto prog = compiler::compile(R"f90(
program t
  parameter (n = 32)
  real v(n)
  integer k
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  k = int(sum(v))
  forall (i = 1:k) v(i) = 0.0
end program t
)f90");
  EXPECT_THROW((void)f.predict(prog, 2), support::CompileError);
  front::Bindings b;
  b.set_int("k", 16);
  EXPECT_NO_THROW((void)f.predict(prog, 2, b));
}

// --- interpretation functions ----------------------------------------------------

TEST(InterpFn, IterDScalesLinearlyInIterations) {
  const machine::MachineModel m = machine::make_ipsc860();
  core::InterpretationFunctions fn(m.node());
  compiler::OpCounts ops;
  ops.fadd = 2;
  ops.fmul = 1;
  ops.loads = 2;
  ops.stores = 1;
  const auto e1 = fn.iter_cost(ops, 4, 1 << 20).at(100);
  const auto e2 = fn.iter_cost(ops, 4, 1 << 20).at(200);
  EXPECT_NEAR(e2.comp, 2.0 * e1.comp, 1e-12);
  EXPECT_GT(e1.overhead, 0.0);
}

TEST(InterpFn, MaskProbabilityScalesBody) {
  const machine::MachineModel m = machine::make_ipsc860();
  core::InterpretationFunctions fn(m.node());
  compiler::OpCounts body;
  body.fmul = 4;
  body.loads = 4;
  compiler::OpCounts mask;
  mask.fadd = 1;
  const auto full = fn.condt_cost(body, mask, 1.0, 4, 1 << 20).at(1000);
  const auto half = fn.condt_cost(body, mask, 0.5, 4, 1 << 20).at(1000);
  const auto none = fn.condt_cost(body, mask, 0.0, 4, 1 << 20).at(1000);
  EXPECT_GT(full.comp, half.comp);
  EXPECT_GT(half.comp, none.comp);
  EXPECT_GT(none.comp, 0.0);  // mask evaluation itself is charged
}

TEST(InterpFn, MemoryHeuristicCapacityDiscount) {
  const machine::MachineModel m = machine::make_ipsc860();
  core::InterpretationFunctions fn(m.node());
  const double in_cache = fn.memory_per_iteration(4, 4, 4 * 1024);
  const double out_of_cache = fn.memory_per_iteration(4, 4, 1 << 22);
  EXPECT_LT(in_cache, out_of_cache);
}

// --- engine ------------------------------------------------------------------------

TEST(Engine, PredictionScalesWithProblemSize) {
  CoreFixture f;
  auto prog = compiler::compile(suite::app("lfk22").source);
  front::Bindings small, big;
  small.set_int("n", 256);
  big.set_int("n", 4096);
  const double t_small = f.predict(prog, 1, small).total;
  const double t_big = f.predict(prog, 1, big).total;
  EXPECT_NEAR(t_big / t_small, 16.0, 2.0);
}

TEST(Engine, ParallelSpeedupOnComputeBoundKernel) {
  CoreFixture f;
  auto prog = compiler::compile(suite::app("lfk9").source);
  front::Bindings b;
  b.set_int("n", 4096);
  const double t1 = f.predict(prog, 1, b).total;
  const double t8 = f.predict(prog, 8, b).total;
  EXPECT_GT(t1 / t8, 4.0);
  EXPECT_LT(t1 / t8, 8.5);
}

TEST(Engine, CommChargedOnlyWhenDistributed) {
  CoreFixture f;
  const auto& app = suite::app("laplace_bb");
  auto prog = compiler::compile_with_directives(app.source, app.directive_overrides);
  const auto p1 = f.predict(prog, 1);
  const auto p4 = f.predict(prog, 4);
  // at P=1 only the host print communicates; the P=4 boundary exchanges
  // add substantially on top of that fixed cost
  EXPECT_GT(p4.comm, p1.comm + 500e-6);
}

TEST(Engine, MaskProbabilityBindingHonoured) {
  CoreFixture f;
  auto prog = compiler::compile(R"f90(
program t
  parameter (n = 4096)
  real v(n)
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n, v(i) .gt. 0.0) v(i) = v(i)*2.0
end program t
)f90");
  front::Bindings all, none;
  all.set("mask__prob", 1.0);
  none.set("mask__prob", 0.0);
  EXPECT_GT(f.predict(prog, 1, all).total, f.predict(prog, 1, none).total);
}

TEST(Engine, WaitTimeAppearsOnImbalancedLoops) {
  CoreFixture f;
  // iteration space covers only the first half of the template: the upper
  // processors idle until the reduction synchronizes
  auto prog = compiler::compile(R"f90(
program t
  parameter (n = 4096)
  real v(n)
  real q
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n/2) v(i) = real(i)*2.0
  q = sum(v)
  print *, q
end program t
)f90");
  const auto pred = f.predict(prog, 4);
  EXPECT_GT(pred.wait, 0.0);
}

TEST(Engine, TraceRecordsEventsWhenEnabled) {
  CoreFixture f;
  auto prog = compiler::compile(suite::app("pi").source);
  core::PredictOptions opts;
  opts.trace = true;
  const auto pred = f.predict(prog, 4, {}, opts);
  EXPECT_FALSE(pred.trace.empty());
  for (const auto& ev : pred.trace) {
    EXPECT_LE(ev.t_begin, ev.t_end);
    EXPECT_GE(ev.proc, 0);
    EXPECT_LT(ev.proc, 4);
  }
}

TEST(Engine, PerAauMetricsSumToTotals) {
  CoreFixture f;
  auto prog = compiler::compile(suite::app("finance").source);
  const auto pred = f.predict(prog, 4);
  double comp = 0, comm = 0;
  for (const auto& m : pred.per_aau) {
    comp += m.comp;
    comm += m.comm;
  }
  EXPECT_NEAR(comp, pred.comp, 1e-12);
  EXPECT_NEAR(comm, pred.comm, 1e-12);
}

TEST(Engine, NintTripCountsRoundHalfAwayFromZero) {
  CoreFixture f;
  const auto prog = compiler::compile(R"f90(
program t
  real v(8)
!hpf$ template d(8)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  do k = 1, nint(x) + 4
    forall (j = 1:8) v(j) = 1.0
  end do
end program t
)f90");
  const compiler::SpmdNode& loop = *prog.root->children.at(0);
  ASSERT_EQ(loop.kind, compiler::SpmdKind::DoLoop);
  const int forall = loop.children.at(0)->id;
  for (const auto& [x, trips] : {std::pair{0.5, 5}, std::pair{-0.5, 3}, std::pair{2.5, 7},
                                 std::pair{-2.5, 1}, std::pair{3.5, 8}}) {
    front::Bindings b;
    b.set("x", x);
    EXPECT_EQ(f.predict(prog, 2, b).per_aau.at(static_cast<std::size_t>(forall)).visits, trips)
        << "nint(" << x << ")";
  }
}

// --- output module -------------------------------------------------------------------

TEST(Output, ProfileContainsBreakdownAndTopAaus) {
  CoreFixture f;
  auto prog = compiler::compile(suite::app("pi").source);
  core::SynchronizedAAG saag(prog);
  const auto pred = f.predict(prog, 4);
  core::OutputModule out(saag, pred);
  const std::string profile = out.profile();
  EXPECT_NE(profile.find("computation:"), std::string::npos);
  EXPECT_NE(profile.find("communication:"), std::string::npos);
  EXPECT_NE(profile.find("sum reduction"), std::string::npos);
}

TEST(Output, WholeProgramEqualsSubAagOfRoot) {
  CoreFixture f;
  auto prog = compiler::compile(suite::app("finance").source);
  core::SynchronizedAAG saag(prog);
  const auto pred = f.predict(prog, 4);
  core::OutputModule out(saag, pred);
  const auto whole = out.whole_program();
  const auto root = out.sub_aag(saag.root());
  EXPECT_NEAR(whole.total(), root.total(), 1e-12);
}

TEST(Output, LineQueryReturnsWork) {
  CoreFixture f;
  auto prog = compiler::compile(suite::app("pi").source);
  core::SynchronizedAAG saag(prog);
  const auto pred = f.predict(prog, 2);
  core::OutputModule out(saag, pred);
  // find the forall's line and expect nonzero computation there
  for (const auto& aau : saag.aaus()) {
    if (aau.kind == core::AAUKind::IterD) {
      EXPECT_GT(out.line(aau.loc.line).comp, 0.0);
    }
  }
}

TEST(Output, ParagraphTraceFormat) {
  CoreFixture f;
  auto prog = compiler::compile(suite::app("pi").source);
  core::SynchronizedAAG saag(prog);
  core::PredictOptions opts;
  opts.trace = true;
  const auto pred = f.predict(prog, 2, {}, opts);
  core::OutputModule out(saag, pred);
  const std::string trace = out.paragraph_trace();
  EXPECT_NE(trace.find("-3 "), std::string::npos);   // compute begin
  EXPECT_NE(trace.find("-21 "), std::string::npos);  // comm begin
}

}  // namespace
}  // namespace hpf90d
