// End-to-end validation: the paper's §5.1 accuracy experiment as a test —
// predicted vs simulated-measured times across the suite, plus the §5.2
// directive-selection and performance-debugging use cases.
#include <gtest/gtest.h>

#include <chrono>

#include "core/aag.hpp"
#include "core/output.hpp"
#include "api/session.hpp"
#include "suite/suite.hpp"

namespace hpf90d {
namespace {

api::Session& session() {
  static api::Session s;
  return s;
}

api::Session::ProgramHandle compile_app(const suite::BenchmarkApp& app) {
  return app.directive_overrides.empty()
             ? session().compile(app.source)
             : session().compile_with_directives(app.source, app.directive_overrides);
}

/// The validation experiments all run on the paper's testbed.
api::RunConfig ipsc860() {
  api::RunConfig cfg;
  cfg.machine = "ipsc860";
  return cfg;
}

// Paper §5.1: "in the worst case, the interpreted performance is within 20%
// of the measured value". We assert a conservative 30% bound per point and
// a 22% bound for the regular applications.
class AccuracyEnvelope : public ::testing::TestWithParam<const char*> {};

TEST_P(AccuracyEnvelope, PredictionWithinPaperEnvelope) {
  const auto& app = suite::app(GetParam());
  auto prog = compile_app(app);
  const long long size = app.problem_sizes[app.problem_sizes.size() / 2];
  for (int nprocs : {1, 2, 4, 8}) {
    api::RunConfig cfg = ipsc860();
    cfg.nprocs = nprocs;
    cfg.bindings = app.bindings(size);
    cfg.runs = 2;
    const api::Comparison cmp = session().compare(prog, cfg);
    EXPECT_GT(cmp.estimated, 0.0);
    EXPECT_GT(cmp.measured_mean, 0.0);
    EXPECT_LT(cmp.abs_error_pct(), 30.0)
        << app.id << " n=" << size << " P=" << nprocs;
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, AccuracyEnvelope,
                         ::testing::Values("lfk1", "lfk2", "lfk3", "lfk9", "lfk14",
                                           "lfk22", "pbs1", "pbs2", "pbs3", "pbs4",
                                           "pi", "finance", "laplace_bb",
                                           "laplace_bx", "laplace_xb"));

TEST(Accuracy, RegularAppsAreTight) {
  // the non-kernel applications predict within single-digit percent; the
  // LFK kernels are allowed their paper-sized errors elsewhere
  for (const char* id : {"pi", "pbs1", "pbs4", "finance"}) {
    const auto& app = suite::app(id);
    auto prog = compile_app(app);
    api::RunConfig cfg = ipsc860();
    cfg.nprocs = 4;
    cfg.bindings = app.bindings(app.problem_sizes.back());
    cfg.runs = 2;
    const api::Comparison cmp = session().compare(prog, cfg);
    EXPECT_LT(cmp.abs_error_pct(), 10.0) << id;
  }
  const auto& lfk3 = suite::app("lfk3");
  auto prog = compile_app(lfk3);
  api::RunConfig cfg = ipsc860();
  cfg.nprocs = 4;
  cfg.bindings = lfk3.bindings(lfk3.problem_sizes.back());
  cfg.runs = 2;
  EXPECT_LT(session().compare(prog, cfg).abs_error_pct(), 13.0);
}

TEST(Accuracy, SweepAggregationMatchesTable2Shape) {
  // the compiler-taxing kernels must show larger max errors than the
  // regular applications (the paper's central observation)
  auto max_err = [&](const char* id) {
    const auto& app = suite::app(id);
    auto prog = compile_app(app);
    double worst = 0;
    for (long long size : {app.problem_sizes.front(), app.problem_sizes.back()}) {
      for (int nprocs : {1, 4}) {
        api::RunConfig cfg = ipsc860();
        cfg.nprocs = nprocs;
        cfg.bindings = app.bindings(size);
        cfg.runs = 2;
        worst = std::max(worst, session().compare(prog, cfg).abs_error_pct());
      }
    }
    return worst;
  };
  EXPECT_GT(max_err("lfk2"), max_err("pi"));
  EXPECT_GT(max_err("lfk9"), max_err("pbs1"));
}

// --- §5.2.1 directive selection -----------------------------------------------

TEST(DirectiveSelection, BlockStarWinsLaplaceAtScale) {
  // the paper selects (BLOCK,*) for the Laplace solver from the predicted
  // times; verify both the prediction and the simulated measurement agree
  const long long n = 128;
  double est[3], meas[3];
  const char* ids[3] = {"laplace_bb", "laplace_bx", "laplace_xb"};
  for (int k = 0; k < 3; ++k) {
    const auto& app = suite::app(ids[k]);
    auto prog = compile_app(app);
    api::RunConfig cfg = ipsc860();
    cfg.nprocs = 4;
    if (app.grid_rank) {
      cfg.grid_shape = compiler::ProcGrid::factorized(cfg.nprocs, *app.grid_rank).shape;
    }
    cfg.bindings = app.bindings(n);
    cfg.runs = 2;
    const auto cmp = session().compare(prog, cfg);
    est[k] = cmp.estimated;
    meas[k] = cmp.measured_mean;
  }
  // (Blk,*) beats (*,Blk): its boundary slabs are contiguous rows
  EXPECT_LT(est[1], est[2]);
  EXPECT_LT(meas[1], meas[2]);
  // and the estimated ranking matches the measured ranking for the winner
  const int est_best = static_cast<int>(std::min_element(est, est + 3) - est);
  const int meas_best = static_cast<int>(std::min_element(meas, meas + 3) - meas);
  EXPECT_EQ(est_best, meas_best);
  EXPECT_EQ(est_best, 1);
}

// --- §5.2.2 performance debugging -----------------------------------------------

TEST(PerformanceDebugging, FinancialPhasesSeparate) {
  const auto& app = suite::app("finance");
  auto prog = compile_app(app);
  core::SynchronizedAAG saag(*prog);
  api::RunConfig cfg = ipsc860();
  cfg.nprocs = 4;
  cfg.bindings = app.bindings(256);
  const auto pred = session().predict(prog, cfg);
  core::OutputModule out(saag, pred);

  // phase 1 = the lattice do-loop (contains the shift comm); phase 2 = the
  // payoff foralls. Identify them via the AAG.
  core::AAUMetric phase1, phase2;
  for (const auto& aau : saag.aaus()) {
    if (aau.kind == core::AAUKind::Iter) phase1 = out.sub_aag(aau.id);
  }
  for (const auto& aau : saag.aaus()) {
    if (aau.kind == core::AAUKind::IterD && aau.parent == saag.root()) {
      phase2.add(out.sub_aag(aau.id));
    }
  }
  EXPECT_GT(phase1.comm, 0.0);          // phase 1 communicates (cshift)
  EXPECT_NEAR(phase2.comm, 0.0, 1e-12); // phase 2 requires no communication
  EXPECT_GT(phase2.comp, 0.0);
}

// --- §5.3 usability / cost-effectiveness ------------------------------------------

TEST(CostEffectiveness, InterpretationIsFasterThanSimulation) {
  const auto& app = suite::app("laplace_bx");
  auto prog = compile_app(app);
  api::RunConfig cfg = ipsc860();
  cfg.nprocs = 8;
  cfg.bindings = app.bindings(256);
  cfg.runs = 1;

  const auto t0 = std::chrono::steady_clock::now();
  (void)session().predict(prog, cfg);
  const auto t1 = std::chrono::steady_clock::now();
  (void)session().measure(prog, cfg);
  const auto t2 = std::chrono::steady_clock::now();
  // source-driven interpretation avoids element-level execution entirely
  EXPECT_LT((t1 - t0).count() * 5, (t2 - t1).count());
}

TEST(Framework, VaryingProblemSizeFromInterface) {
  // the framework varies sizes via bindings without editing source
  const auto& app = suite::app("pi");
  auto prog = compile_app(app);
  double prev = 0;
  for (long long n : {256LL, 1024LL, 4096LL}) {
    api::RunConfig cfg = ipsc860();
    cfg.nprocs = 4;
    cfg.bindings = app.bindings(n);
    const double t = session().predict(prog, cfg).total;
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(Framework, Table1InventoryComplete) {
  const auto& apps = suite::validation_suite();
  EXPECT_EQ(apps.size(), 16u);
  int lfk = 0, pbs = 0;
  for (const auto& a : apps) {
    if (a.id.starts_with("lfk")) ++lfk;
    if (a.id.starts_with("pbs")) ++pbs;
  }
  EXPECT_EQ(lfk, 6);
  EXPECT_EQ(pbs, 4);
  EXPECT_EQ(suite::paper_system_sizes(), (std::vector<int>{1, 2, 4, 8}));
  EXPECT_THROW((void)suite::app("nope"), std::out_of_range);
}

TEST(Framework, WithinVarianceFlagComputed) {
  api::Comparison cmp;
  cmp.estimated = 1.0;
  cmp.measured_mean = 1.0;
  cmp.measured_min = 0.99;
  cmp.measured_max = 1.01;
  cmp.measured_stddev = 0.01;
  EXPECT_TRUE(cmp.within_variance());
  cmp.estimated = 2.0;
  EXPECT_FALSE(cmp.within_variance());
}

}  // namespace
}  // namespace hpf90d
