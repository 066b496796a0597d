// Oracle tests for the lockstep batch interpreter: for every batch size —
// including one-lane windows (batch_size 1) and a whole-sweep batch — and
// every worker count, Session::run must produce a RunReport whose ASCII and
// CSV exports are byte-identical to the one-lane run's, on all registered
// machines, with measurement enabled, and in the presence of divergent
// lanes (binding-dependent DO trip counts, masked loops, per-lane critical
// variables steering branches). The batch telemetry itself must stay out
// of the exports. CI also runs this binary under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "compiler/cost_program.hpp"
#include "compiler/pipeline.hpp"
#include "obs/obs.hpp"
#include "study/study.hpp"
#include "suite/suite.hpp"

namespace hpf90d {
namespace {

// The settings the oracle sweeps: batch sizes 1 (one lane), 8, 64, and "the
// whole sweep in one chunk cap", crossed with one and four workers.
const std::vector<int> kWorkerCounts = {1, 4};

std::vector<int> batch_sizes(std::size_t point_count) {
  return {1, 8, 64, static_cast<int>(point_count)};
}

/// Runs the plan at (batch_size, workers) on a fresh session and returns
/// the exports. wall_seconds is the one legitimately nondeterministic
/// field in ascii(), so it is zeroed before rendering.
struct Exports {
  std::string ascii;
  std::string csv;
  api::BatchStats batch;
};

Exports run_once(const api::ExperimentPlan& plan, int batch_size, int workers) {
  api::Session session;
  api::RunOptions opts;
  opts.workers = workers;
  opts.batch_size = batch_size;
  api::RunReport report = session.run(plan, opts);
  report.wall_seconds = 0.0;
  return Exports{report.ascii(), report.csv(), report.batch};
}

void expect_oracle(const api::ExperimentPlan& plan, std::size_t point_count,
                   bool expect_divergence = false) {
  const Exports baseline = run_once(plan, /*batch_size=*/1, /*workers=*/1);
  EXPECT_EQ(baseline.batch.batched_points, 0u);
  EXPECT_EQ(baseline.batch.scalar_points, point_count);

  bool saw_batched = false;
  bool saw_evicted = false;
  for (const int batch : batch_sizes(point_count)) {
    for (const int workers : kWorkerCounts) {
      const Exports e = run_once(plan, batch, workers);
      EXPECT_EQ(e.ascii, baseline.ascii)
          << "ascii diverged at batch_size=" << batch << " workers=" << workers;
      EXPECT_EQ(e.csv, baseline.csv)
          << "csv diverged at batch_size=" << batch << " workers=" << workers;
      // every point is accounted for exactly once: finished in a window of
      // two or more lanes, alone in a fresh one-lane window, or alone after
      // an eviction
      EXPECT_EQ(
          e.batch.batched_points + e.batch.scalar_points + e.batch.replayed_points,
          point_count)
          << "batch_size=" << batch << " workers=" << workers;
      // evicted lanes run again in later windows, and a point finishes
      // alone after an eviction only where no wider window was left
      EXPECT_GE(e.batch.evicted_lanes, e.batch.replayed_points)
          << "batch_size=" << batch << " workers=" << workers;
      if (e.batch.batched_points > 0) saw_batched = true;
      if (e.batch.evicted_lanes > 0) saw_evicted = true;
    }
  }
  EXPECT_TRUE(saw_batched) << "no setting ever took the lockstep path";
  if (expect_divergence) {
    EXPECT_TRUE(saw_evicted) << "expected divergent lanes to be evicted";
  }
}

// --- the full-surface oracle --------------------------------------------------

TEST(BatchOracle, AllRegisteredMachinesMeasuredSweep) {
  // Every registered machine x 4 processor counts x 3 problem sizes, with
  // measurement on (runs > 0), so the oracle covers predict + measure +
  // record assembly end to end.
  const suite::BenchmarkApp& app = suite::app("pi");
  api::ExperimentPlan plan("batch oracle: all machines");
  plan.source(app.source)
      .machines({"cluster", "fattree", "ipsc860", "paragon", "whatif"})
      .nprocs({1, 2, 4, 8})
      .problems_from({16, 64, 256}, app.bindings)
      .runs(2);
  expect_oracle(plan, 5u * 4u * 3u);
}

TEST(BatchOracle, DirectiveVariantsSplitChunksDeterministically) {
  // Chunks never span variants: consecutive points agree on the compiled
  // program. Two Laplace distributions exercise that boundary.
  const suite::BenchmarkApp& app = suite::app("laplace_bb");
  api::ExperimentPlan plan("batch oracle: variants");
  plan.source(app.source)
      .machines({"ipsc860", "paragon"})
      .nprocs({2, 4})
      .add_variant("(block,block)", {"distribute d(block,block)"}, 2)
      .add_variant("(block,*)", {"distribute d(block,*)"})
      .problems_from({8, 16}, app.bindings)
      .runs(0);
  expect_oracle(plan, 2u * 2u * 2u * 2u);
}

// --- divergence ---------------------------------------------------------------

TEST(BatchOracle, BindingDependentDoTripsForceReplay) {
  // The outer DO trip count is a per-problem binding: lanes from different
  // problems disagree at the first size-dependent scalar loop, are
  // evicted, finish alone, and must reproduce the one-lane report byte for
  // byte.
  static const char* const source = R"f90(
program levels
  parameter (n = 1024)
  real v(n)
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) v(i) = real(i)
  do it = 1, nlev
    forall (i = 1:n) v(i) = v(i)*0.5 + 1.0
  end do
end program levels
)f90";
  api::ExperimentPlan plan("batch oracle: divergent do");
  plan.source(source).machines({"ipsc860"}).nprocs({1, 2, 4});
  for (const long long nlev : {2, 3, 5, 8}) {
    front::Bindings b;
    b.set_int("nlev", nlev);
    plan.add_problem("nlev=" + std::to_string(nlev), b);
  }
  plan.runs(2);
  expect_oracle(plan, 3u * 4u, /*expect_divergence=*/true);
}

TEST(BatchOracle, PerLaneCriticalVariableSteersBranchesAndMasks) {
  // `w` is a critical variable bound per problem: it steers an IF both
  // ways across lanes (branch divergence) and feeds a masked local loop
  // and a data-dependent DO WHILE (condition divergence). All three evict
  // lanes mid-walk.
  static const char* const source = R"f90(
program masked
  parameter (n = 512)
  real v(n)
  real w, acc
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) v(i) = real(i)*w
  forall (i = 1:n, v(i) .gt. 64.0) v(i) = v(i)*0.5
  if (w .gt. 2.0) then
    forall (i = 1:n) v(i) = v(i) + 1.0
  else
    forall (i = 1:n) v(i) = v(i) - 1.0
  end if
  acc = w
  do while (acc .gt. 1.0)
    acc = acc*0.5
    forall (i = 1:n) v(i) = v(i)*acc
  end do
end program masked
)f90";
  api::ExperimentPlan plan("batch oracle: per-lane critical");
  plan.source(source).machines({"ipsc860", "cluster"}).nprocs({1, 4});
  for (const double w : {0.5, 2.5, 7.0}) {
    front::Bindings b;
    b.set("w", w);
    plan.add_problem("w=" + std::to_string(w), b);
  }
  plan.runs(2);
  expect_oracle(plan, 2u * 2u * 3u, /*expect_divergence=*/true);
}

// --- evicted lanes re-batch -----------------------------------------------------

TEST(BatchOracle, WholeSweepEvictionsRebatchRoundByRound) {
  // 4 nlev groups x 4 system sizes, the whole sweep in one window: the
  // binding-dependent DO keeps the lead lane's nlev group (4 lanes) and
  // evicts the other 12, which run again as one window in point order: it
  // keeps the next group and evicts 8, then 4, and the last group finishes
  // together. Every point finishes in a window of 4 or more lanes.
  static const char* const source = R"f90(
program levels
  parameter (n = 1024)
  real v(n)
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) v(i) = real(i)
  do it = 1, nlev
    forall (i = 1:n) v(i) = v(i)*0.5 + 1.0
  end do
end program levels
)f90";
  api::ExperimentPlan plan("batch oracle: whole-sweep eviction");
  plan.source(source).machines({"ipsc860"}).nprocs({1, 2, 4, 8});
  for (const long long nlev : {2, 3, 5, 8}) {
    front::Bindings b;
    b.set_int("nlev", nlev);
    plan.add_problem("nlev=" + std::to_string(nlev), b);
  }
  plan.runs(2);
  const std::size_t points = 4u * 4u;
  expect_oracle(plan, points, /*expect_divergence=*/true);

  const Exports e = run_once(plan, /*batch_size=*/static_cast<int>(points), /*workers=*/1);
  EXPECT_EQ(e.batch.evicted_lanes, 12u + 8u + 4u);
  EXPECT_EQ(e.batch.replayed_points, 0u);
  EXPECT_EQ(e.batch.batched_points, 16u);
  EXPECT_EQ(e.batch.scalar_points, 0u);
}

TEST(BatchOracle, TwoDivergenceSitesRebatchUntilEveryLaneFinishes) {
  // Two sequential binding-dependent DOs: the first keeps the lead lane's
  // na group, the second the lead lane's nb subgroup. The evicted lanes
  // re-batch in point order, so a lane may leave a window at either DO
  // more than once; the exports stay byte-identical across batch size and
  // workers.
  static const char* const source = R"f90(
program levels2
  parameter (n = 512)
  real v(n)
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) v(i) = real(i)
  do it = 1, na
    forall (i = 1:n) v(i) = v(i)*0.5 + 1.0
  end do
  do jt = 1, nb
    forall (i = 1:n) v(i) = v(i)*0.25 + 2.0
  end do
end program levels2
)f90";
  api::ExperimentPlan plan("batch oracle: two-site divergence");
  plan.source(source).machines({"ipsc860"}).nprocs({1, 2, 4});
  for (const long long na : {2, 5}) {
    for (const long long nb : {3, 7}) {
      front::Bindings b;
      b.set_int("na", na);
      b.set_int("nb", nb);
      plan.add_problem("na=" + std::to_string(na) + ",nb=" + std::to_string(nb), b);
    }
  }
  plan.runs(2);
  const std::size_t points = 2u * 2u * 3u;
  expect_oracle(plan, points, /*expect_divergence=*/true);

  // one window: 6 lanes leave at the first DO and 3 more at the second.
  // The 9 re-batch (na=2,nb=7 leads): the 6 of na=5 leave at the first DO.
  // Those 6 re-batch: the 3 of nb=7 leave at the second, and finish last.
  const Exports e = run_once(plan, /*batch_size=*/static_cast<int>(points),
                             /*workers=*/1);
  EXPECT_EQ(e.batch.evicted_lanes, 9u + 6u + 3u);
  EXPECT_EQ(e.batch.replayed_points, 0u);
  EXPECT_EQ(e.batch.batched_points, 12u);
}

TEST(BatchOracle, LanesThatLeaveEveryWindowEndAlone) {
  // Every problem binds the DO step k to 0, so every lane of every window
  // fails the bound and leaves: a round in which no lane finishes hands the
  // lanes to one-lane windows, where the first throws its located
  // diagnostic, as with one-lane windows throughout.
  static const char* const source = R"f90(
program stuck
  parameter (n = 64)
  real v(n)
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  do it = 1, 4, k
    forall (i = 1:n) v(i) = real(i) * w
  end do
end program stuck
)f90";
  api::ExperimentPlan plan("batch oracle: every lane leaves");
  plan.source(source).machines({"ipsc860"}).nprocs({1, 2, 4, 8});
  for (const double w : {1.0, 2.0, 3.0}) {
    front::Bindings b;
    b.set_int("k", 0);
    b.set("w", w);
    plan.add_problem("w=" + std::to_string(w), b);
  }
  plan.runs(0);
  const auto failure = [&](int batch, int workers) {
    try {
      (void)run_once(plan, batch, workers);
    } catch (const support::CompileError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string alone = failure(/*batch=*/1, /*workers=*/1);
  EXPECT_EQ(alone, "8:3: do loop step is zero");
  for (const int batch : {2, 5, 12}) {
    for (const int workers : kWorkerCounts) {
      EXPECT_EQ(failure(batch, workers), alone) << "batch_size=" << batch << " workers=" << workers;
    }
  }
}

// --- chunk boundaries ---------------------------------------------------------

TEST(BatchOracle, LoneLanesInDifferentChunksReplayScalar) {
  // 258 single-nprocs points of one (machine, variant) group: the 256-point
  // chunk granule splits them into two chunks. Exactly one point per chunk
  // carries nlev = 9 (the rest nlev = 2), so each chunk evicts one lane,
  // which finishes alone in that chunk. The exports stay byte-identical to
  // the one-lane run, with telemetry identical for every worker count.
  static const char* const source = R"f90(
program split
  parameter (n = 512)
  real v(n)
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) v(i) = real(i)
  do it = 1, nlev
    forall (i = 1:n) v(i) = v(i)*0.5 + 1.0
  end do
end program split
)f90";
  constexpr std::size_t kPoints = 258;  // chunk granule 256 -> two chunks
  api::ExperimentPlan plan("batch oracle: chunk boundary");
  plan.source(source).machines({"ipsc860"}).nprocs({1});
  for (std::size_t i = 0; i < kPoints; ++i) {
    front::Bindings b;
    // one divergent point per chunk: 10 in the first, 257 in the second
    b.set_int("nlev", (i == 10 || i == 257) ? 9 : 2);
    b.set("pad", static_cast<double>(i));  // distinct bindings per point
    std::string name = "p";
    name += std::to_string(i);
    plan.add_problem(name, b);
  }
  plan.runs(1);

  const Exports baseline = run_once(plan, /*batch_size=*/1, /*workers=*/1);

  const Exports serial = run_once(plan, /*batch_size=*/64, /*workers=*/1);
  EXPECT_EQ(serial.ascii, baseline.ascii);
  EXPECT_EQ(serial.csv, baseline.csv);
  EXPECT_EQ(serial.batch.replayed_points, 2u)
      << "each chunk should replay exactly its lone divergent lane";
  EXPECT_EQ(serial.batch.batched_points, kPoints - 2);
  EXPECT_EQ(serial.batch.evicted_lanes, 2u);

  // Each chunk's schedule depends only on its own points, so telemetry —
  // not just the payload — is identical under concurrent chunk execution.
  const Exports parallel = run_once(plan, /*batch_size=*/64, /*workers=*/4);
  EXPECT_EQ(parallel.ascii, baseline.ascii);
  EXPECT_EQ(parallel.csv, baseline.csv);
  EXPECT_EQ(parallel.batch.replayed_points, serial.batch.replayed_points);
  EXPECT_EQ(parallel.batch.batched_points, serial.batch.batched_points);
  EXPECT_EQ(parallel.batch.evicted_lanes, serial.batch.evicted_lanes);
  EXPECT_EQ(parallel.batch.ir_visits, serial.batch.ir_visits);
  EXPECT_EQ(parallel.batch.lane_visits, serial.batch.lane_visits);
}

// --- more divergent inputs ----------------------------------------------------

TEST(BatchOracle, InterleavedDivergenceAxis) {
  // The plan interleaves a divergence axis (nlev, a critical loop bound)
  // with a benign axis (w, a value-only coefficient): plan order alternates
  // nlev = 2, 7, 2, 7, ... so every lockstep window mixes both trip counts
  // and must evict.
  static const char* const source = R"f90(
program interleaved
  parameter (n = 512)
  real v(n)
  real w
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) v(i) = real(i)*w
  do it = 1, nlev
    forall (i = 1:n) v(i) = v(i)*0.5 + 1.0
  end do
end program interleaved
)f90";
  api::ExperimentPlan plan("batch oracle: interleaved sweep");
  plan.source(source).machines({"ipsc860"}).nprocs({1, 2});
  for (const double w : {1.0, 2.0}) {
    for (const long long nlev : {2, 7}) {
      front::Bindings b;
      b.set("w", w);
      b.set_int("nlev", nlev);
      plan.add_problem("w=" + std::to_string(w) + ",nlev=" + std::to_string(nlev),
                       b);
    }
  }
  plan.runs(2);
  expect_oracle(plan, 2u * 2u * 2u, /*expect_divergence=*/true);
}

TEST(BatchOracle, MeasuredScaledPlan) {
  // Weak-scaling plans couple problem and nprocs; with measurement on the
  // records carry measured stats assembled per chunk.
  const suite::BenchmarkApp& app = suite::app("pi");
  api::ExperimentPlan plan("batch oracle: measured scaled");
  plan.source(app.source).machines({"ipsc860", "cluster"});
  std::vector<api::ScaledCase> cases;
  for (const auto& [size, np] : std::vector<std::pair<long long, int>>{
           {16, 1}, {64, 2}, {16, 4}, {64, 8}}) {
    api::ScaledCase sc;
    sc.problem.name = "n=" + std::to_string(size);
    sc.problem.bindings = app.bindings(size);
    sc.nprocs = np;
    cases.push_back(std::move(sc));
  }
  plan.scaled_cases(std::move(cases));
  plan.runs(3);
  expect_oracle(plan, 2u * 4u);
}

TEST(BatchOracle, CheapDataDependentIfArms) {
  // `w` steers a loop-free-armed IF both ways across lanes; the arms write
  // DIFFERENT masked arrays, so mispricing either subset would show up in
  // the estimates.
  static const char* const source = R"f90(
program cheapif
  parameter (n = 512)
  real a(n), b(n)
  real w
!hpf$ template d(n)
!hpf$ align a(i) with d(i)
!hpf$ align b(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) a(i) = real(i)*w
  forall (i = 1:n) b(i) = real(i) + w
  if (w .gt. 2.0) then
    forall (i = 1:n, a(i) .gt. 32.0) a(i) = a(i)*0.5
  else
    forall (i = 1:n, b(i) .gt. 16.0) b(i) = b(i)*0.25
  end if
end program cheapif
)f90";
  api::ExperimentPlan plan("batch oracle: cheap if");
  plan.source(source).machines({"ipsc860", "cluster"}).nprocs({1, 4});
  for (const double w : {0.5, 1.5, 2.5, 7.0}) {
    front::Bindings b;
    b.set("w", w);
    plan.add_problem("w=" + std::to_string(w), b);
  }
  plan.runs(2);
  expect_oracle(plan, 2u * 2u * 4u, /*expect_divergence=*/true);
}

TEST(BatchOracle, IfArmsWithLoopsRebatchEvictedLanes) {
  // The first IF's else-arm contains a DO; the second IF is loop-free.
  // Every u group holds both w values, so the lanes that survive the first
  // IF still disagree at the second.
  static const char* const source = R"f90(
program mixed
  parameter (n = 256)
  real v(n)
  real u, w
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) v(i) = real(i)
  if (u .gt. 4.0) then
    forall (i = 1:n) v(i) = v(i) + 1.0
  else
    do it = 1, nlev
      forall (i = 1:n) v(i) = v(i)*0.5 + 1.0
    end do
  end if
  if (w .gt. 2.0) then
    forall (i = 1:n) v(i) = v(i)*2.0
  else
    forall (i = 1:n) v(i) = v(i)*3.0
  end if
end program mixed
)f90";
  api::ExperimentPlan plan("batch oracle: if arms with loops");
  plan.source(source).machines({"ipsc860"}).nprocs({1, 2, 4});
  for (const double u : {1.0, 9.0}) {
    for (const double w : {0.5, 3.0}) {
      front::Bindings b;
      b.set("u", u);
      b.set("w", w);
      b.set_int("nlev", 3);
      plan.add_problem("u=" + std::to_string(u) + ",w=" + std::to_string(w), b);
    }
  }
  plan.runs(2);
  const std::size_t points = 2u * 2u * 3u;
  expect_oracle(plan, points, /*expect_divergence=*/true);

  // Whole-sweep batch: the first IF evicts the 6 lanes of the other u, the
  // second the 3 survivors of the other w. The 9 re-batch (u=1,w=3 leads):
  // the first IF evicts the 6 of u=9; of those, re-batched, the second IF
  // evicts the 3 of w=3, which finish together last.
  const Exports e = run_once(plan, static_cast<int>(points), /*workers=*/1);
  EXPECT_EQ(e.batch.evicted_lanes, 9u + 6u + 3u);
  EXPECT_EQ(e.batch.replayed_points, 0u);
  EXPECT_EQ(e.batch.batched_points, 12u);
}

// --- every plan runs lockstep ---------------------------------------------------

TEST(BatchOracle, RunTimeSizeDimensionRunsLockstep) {
  // size() with a run-time dim argument selects each lane's extent slot in
  // the cost bytecode, and the shift amount it feeds prices differently
  // per problem.
  static const char* const source = R"f90(
program sizes
  parameter (n = 64)
  real v(n, 2*n), w(n, 2*n)
!hpf$ template d(n, 2*n)
!hpf$ align v(i, j) with d(i, j)
!hpf$ align w(i, j) with d(i, j)
!hpf$ distribute d(block, *)
  m = size(v, k) / 32
  do it = 1, 3
    w = cshift(v, m, 1)
    v = w
  end do
end program sizes
)f90";
  api::ExperimentPlan plan("batch oracle: run-time size dimension");
  plan.source(source).machines({"ipsc860"}).nprocs({1, 2, 4}).runs(0);
  for (const long long k : {1, 2}) {
    front::Bindings b;
    b.set_int("k", k);
    plan.add_problem("k=" + std::to_string(k), b);
  }
  const Exports alone = run_once(plan, /*batch_size=*/1, /*workers=*/1);
  const Exports batched = run_once(plan, /*batch_size=*/64, /*workers=*/1);
  EXPECT_EQ(batched.batch.batched_points, 6u);
  EXPECT_EQ(batched.ascii, alone.ascii);
  EXPECT_EQ(batched.csv, alone.csv);
  // the two problems really price differently on more than one processor
  const api::RunReport report = api::RunReport::from_csv(alone.csv);
  ASSERT_EQ(report.records.size(), 6u);
  EXPECT_NE(report.records[1].comparison.estimated, report.records[4].comparison.estimated);
}

TEST(BatchOracle, TracedPlanRunsLockstep) {
  const suite::BenchmarkApp& app = suite::app("pi");
  api::ExperimentPlan untraced("batch oracle: traced");
  untraced.source(app.source)
      .machines({"ipsc860", "paragon"})
      .nprocs({1, 2, 4, 8})
      .problems_from({16, 64}, app.bindings)
      .runs(0);
  core::PredictOptions traced;
  traced.trace = true;
  api::ExperimentPlan plan = untraced;
  plan.predict_options(traced);
  const Exports alone = run_once(plan, /*batch_size=*/1, /*workers=*/1);
  const Exports batched = run_once(plan, /*batch_size=*/64, /*workers=*/1);
  EXPECT_GT(batched.batch.batched_points, 0u);
  EXPECT_EQ(batched.ascii, alone.ascii);
  EXPECT_EQ(batched.csv, alone.csv);
  // a sweep predicts untraced whatever the plan says: same bytes
  const Exports plain = run_once(untraced, /*batch_size=*/64, /*workers=*/1);
  EXPECT_EQ(batched.ascii, plain.ascii);
  EXPECT_EQ(batched.csv, plain.csv);
}

TEST(BatchOracle, OnePointPlanRecordsOneLockstepWindow) {
  const suite::BenchmarkApp& app = suite::app("pi");
  api::ExperimentPlan plan("batch oracle: one point");
  plan.source(app.source).nprocs({4}).problems_from({64}, app.bindings).runs(0);
  obs::Tracer tracer(64);
  api::Session session;
  api::RunOptions opts;
  opts.trace = &tracer;
  const api::RunReport report = session.run(plan, opts);
  EXPECT_EQ(report.batch.scalar_points, 1u);
  std::vector<obs::SpanRecord> windows;
  for (const obs::SpanRecord& span : tracer.snapshot()) {
    if (span.phase == obs::Phase::LockstepWindow) windows.push_back(span);
  }
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].arg, 1u);
}

// --- telemetry stays out of the exports ---------------------------------------

TEST(BatchOracle, TelemetryExcludedFromExportsAndCsvRoundTrips) {
  const suite::BenchmarkApp& app = suite::app("pi");
  api::ExperimentPlan plan("batch oracle: telemetry");
  plan.source(app.source).nprocs({1, 2, 4, 8}).problems_from({16, 64}, app.bindings).runs(0);

  const Exports batched = run_once(plan, /*batch_size=*/8, /*workers=*/1);
  EXPECT_GT(batched.batch.batched_points, 0u);
  EXPECT_GT(batched.batch.ir_visits, 0u);
  EXPECT_GT(batched.batch.mean_lanes_per_visit(), 1.0);
  // the counters are real but invisible: exports match the one-lane run
  const Exports scalar = run_once(plan, /*batch_size=*/1, /*workers=*/1);
  EXPECT_EQ(batched.ascii, scalar.ascii);
  EXPECT_EQ(batched.csv, scalar.csv);
  // and the CSV still round-trips through the parser
  const api::RunReport parsed = api::RunReport::from_csv(batched.csv);
  EXPECT_EQ(parsed.records.size(), 8u);
  EXPECT_EQ(parsed.batch.batched_points, 0u);  // telemetry is not serialized
}

// --- studies ------------------------------------------------------------------

TEST(BatchOracle, StudyExportsByteIdenticalAcrossBatchSizes) {
  // A design study lowers to one batched Session::run over generated
  // what-if machines; its CSV/JSON/ASCII exports must not depend on the
  // batch size or worker count either.
  const suite::BenchmarkApp& app = suite::app("pi");
  study::StudyPlan plan("batch oracle: study");
  plan.source(app.source)
      .base_machine("ipsc860")
      .knob_axis(study::Knob::Latency, {0.5, 2.0})
      .knob_axis(study::Knob::Bandwidth, {1.0, 4.0})
      .nprocs({2, 4})
      .problems_from({32, 128}, app.bindings)
      .runs(0);

  std::vector<std::string> csvs, jsons, asciis;
  for (const int batch : {1, 4, 64}) {
    for (const int workers : kWorkerCounts) {
      api::Session session;
      api::RunOptions opts;
      opts.workers = workers;
      opts.batch_size = batch;
      const study::StudyResult result = study::run_study(session, plan, opts);
      csvs.push_back(result.csv());
      jsons.push_back(result.json());
      asciis.push_back(result.ascii());
    }
  }
  for (std::size_t i = 1; i < csvs.size(); ++i) {
    EXPECT_EQ(csvs[i], csvs[0]) << "study csv diverged at setting " << i;
    EXPECT_EQ(jsons[i], jsons[0]) << "study json diverged at setting " << i;
    EXPECT_EQ(asciis[i], asciis[0]) << "study ascii diverged at setting " << i;
  }
}

}  // namespace
}  // namespace hpf90d
