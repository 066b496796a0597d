// Study subsystem tests: machine-family grid generation (deterministic
// names), StudyPlan lowering into one batched ExperimentPlan, crossover /
// scalability / bottleneck analysis on synthetic studies, deterministic
// exports across worker counts (the acceptance sweep), and the CSV/JSON
// round-trip parsers.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "study/study.hpp"
#include "suite/suite.hpp"

namespace hpf90d {
namespace {

// --- machine families ---------------------------------------------------------

TEST(MachineFamily, GridNamesAreDeterministic) {
  study::MachineFamily fam("lat-bw", "ipsc860");
  fam.axis(study::Knob::Latency, {0.25, 1, 4}).axis(study::Knob::Bandwidth, {1, 2});
  EXPECT_EQ(fam.size(), 6u);

  const std::vector<study::MachinePoint> pts = fam.points();
  ASSERT_EQ(pts.size(), 6u);
  // earlier axes vary slowest; names embed knob=value pairs with %g
  EXPECT_EQ(pts[0].name, "lat-bw/latency=0.25+bandwidth=1");
  EXPECT_EQ(pts[1].name, "lat-bw/latency=0.25+bandwidth=2");
  EXPECT_EQ(pts[4].name, "lat-bw/latency=4+bandwidth=1");
  EXPECT_EQ(pts[5].name, "lat-bw/latency=4+bandwidth=2");
  EXPECT_DOUBLE_EQ(pts[1].params.latency_scale, 0.25);
  EXPECT_DOUBLE_EQ(pts[1].params.bandwidth_scale, 2.0);
  EXPECT_DOUBLE_EQ(pts[1].params.cpu_scale, 1.0);

  // regenerating yields the identical grid — the determinism contract
  const std::vector<study::MachinePoint> again = fam.points();
  for (std::size_t i = 0; i < pts.size(); ++i) EXPECT_EQ(pts[i].name, again[i].name);

  // re-setting an axis replaces its values but keeps its position
  fam.axis(study::Knob::Latency, {1});
  EXPECT_EQ(fam.size(), 2u);
  EXPECT_EQ(fam.points()[0].name, "lat-bw/latency=1+bandwidth=1");
}

TEST(MachineFamily, ValidatesAxesAndBase) {
  study::MachineFamily fam("bad");
  fam.axis(study::Knob::Latency, {});
  EXPECT_THROW(fam.validate(), std::invalid_argument);
  fam.axis(study::Knob::Latency, {0.0});
  EXPECT_THROW(fam.validate(), std::invalid_argument);
  fam.axis(study::Knob::Latency, {1.0});
  EXPECT_NO_THROW(fam.validate());

  api::MachineRegistry registry;
  study::MachineFamily unknown("u", "sp2");
  unknown.axis(study::Knob::Cpu, {2});
  EXPECT_THROW((void)unknown.register_into(registry), std::out_of_range);
}

TEST(MachineFamily, RegisterIntoProducesScaledDerivatives) {
  api::MachineRegistry registry;
  study::MachineFamily fam("f", "ipsc860");
  fam.axis(study::Knob::Latency, {0.5});
  const std::vector<std::string> names = fam.register_into(registry);
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "f/latency=0.5");
  ASSERT_TRUE(registry.contains(names[0]));
  EXPECT_FALSE(registry.description(names[0]).empty());

  const machine::MachineModel& stock = registry.get("ipsc860", 4);
  const machine::MachineModel& scaled = registry.get(names[0], 4);
  EXPECT_DOUBLE_EQ(scaled.node().comm.latency_short,
                   0.5 * stock.node().comm.latency_short);
  EXPECT_DOUBLE_EQ(scaled.node().comm.per_byte, stock.node().comm.per_byte);

  // any registered machine works as the base — here the fat tree
  study::MachineFamily ft("ft", "fattree");
  ft.axis(study::Knob::Bandwidth, {2});
  const std::vector<std::string> ft_names = ft.register_into(registry);
  const machine::MachineModel& ft_stock = registry.get("fattree", 8);
  const machine::MachineModel& ft_scaled = registry.get(ft_names[0], 8);
  EXPECT_DOUBLE_EQ(ft_scaled.node().comm.per_byte, ft_stock.node().comm.per_byte / 2.0);
}

// --- study plans --------------------------------------------------------------

TEST(StudyPlan, LowersToOneBatchedPlanWithGeneratedMachineAxis) {
  api::Session session;
  const auto& app = suite::app("pi");

  study::StudyPlan plan("lowering check");
  plan.source(app.source)
      .add_reference_machine("ipsc860")
      .knob_axis(study::Knob::Latency, {0.25, 1, 4})
      .knob_axis(study::Knob::Bandwidth, {1, 2})
      .problems_from({256}, app.bindings)
      .nprocs({1, 4})
      .runs(0);

  // 1 reference + 3x2 family points, one variant, one problem, two nprocs
  EXPECT_EQ(plan.machine_count(), 7u);
  EXPECT_EQ(plan.point_count(), 14u);

  const api::ExperimentPlan lowered = plan.lower(session);
  EXPECT_EQ(lowered.point_count(), plan.point_count());
  ASSERT_EQ(lowered.machine_names().size(), 7u);
  EXPECT_EQ(lowered.machine_names()[0], "ipsc860");
  EXPECT_EQ(lowered.machine_names()[1], "lowering-check/latency=0.25+bandwidth=1");
  // lowering registered every family point — no manual register_whatif
  for (const auto& name : lowered.machine_names()) {
    EXPECT_TRUE(session.machines().contains(name)) << name;
  }
}

TEST(StudyPlan, KnoblessStudyFallsBackToBaseMachine) {
  api::Session session;
  study::StudyPlan plan("plain");
  plan.source(suite::app("pi").source).runs(0);
  EXPECT_FALSE(plan.has_knob_axes());
  const api::ExperimentPlan lowered = plan.lower(session);
  EXPECT_EQ(lowered.machine_names(), (std::vector<std::string>{"ipsc860"}));

  const study::StudyResult result = study::run_study(session, plan);
  ASSERT_EQ(result.report.records.size(), 1u);
  EXPECT_TRUE(result.machine_points.empty());
}

// --- analysis on synthetic studies --------------------------------------------

study::StudyResult synthetic_two_variant_study() {
  study::StudyResult s;
  s.title = "synthetic";
  const auto add = [&s](const char* m, const char* v, int np, double t) {
    api::RunRecord r;
    r.machine = m;
    r.variant = v;
    r.problem = "n=1";
    r.nprocs = np;
    r.comparison.estimated = t;
    s.report.records.push_back(std::move(r));
  };
  // variant A leads at P=1 and P=2, B overtakes at P=4
  add("m", "A", 1, 1.0);
  add("m", "B", 1, 2.0);
  add("m", "A", 2, 0.9);
  add("m", "B", 2, 1.0);
  add("m", "A", 4, 0.8);
  add("m", "B", 4, 0.5);
  return s;
}

TEST(StudyResult, DetectsVariantCrossoverAlongNprocs) {
  const study::StudyResult s = synthetic_two_variant_study();
  const std::vector<study::Crossover> flips = s.crossovers();
  ASSERT_EQ(flips.size(), 1u);
  const study::Crossover& x = flips[0];
  EXPECT_EQ(x.axis, "variant");
  EXPECT_EQ(x.a, "A");
  EXPECT_EQ(x.b, "B");
  EXPECT_EQ(x.context, "m");
  EXPECT_EQ(x.problem, "n=1");
  EXPECT_EQ(x.nprocs_before, 2);
  EXPECT_EQ(x.nprocs_after, 4);
  EXPECT_DOUBLE_EQ(x.a_before, 0.9);
  EXPECT_DOUBLE_EQ(x.b_after, 0.5);
  // the rendering names the winner on each side of the flip
  EXPECT_NE(x.str().find("A wins at P=2"), std::string::npos);
  EXPECT_NE(x.str().find("B wins at P=4"), std::string::npos);
}

TEST(StudyResult, CrossoverSpanningATieAnchorsAtDecisivePoints) {
  study::StudyResult s;
  const auto add = [&s](const char* v, int np, double t) {
    api::RunRecord r;
    r.machine = "m";
    r.variant = v;
    r.problem = "p";
    r.nprocs = np;
    r.comparison.estimated = t;
    s.report.records.push_back(std::move(r));
  };
  // A leads at P=1, dead heat at P=2, B leads at P=4: the flip is reported
  // between the two decisive points, never anchored at the tie
  add("A", 1, 1.0);
  add("B", 1, 2.0);
  add("A", 2, 1.5);
  add("B", 2, 1.5);
  add("A", 4, 2.0);
  add("B", 4, 1.0);
  const std::vector<study::Crossover> flips = s.crossovers();
  ASSERT_EQ(flips.size(), 1u);
  EXPECT_EQ(flips[0].nprocs_before, 1);
  EXPECT_EQ(flips[0].nprocs_after, 4);
  EXPECT_DOUBLE_EQ(flips[0].a_before, 1.0);
  EXPECT_NE(flips[0].str().find("A wins at P=1"), std::string::npos);
}

TEST(StudyResult, MonotoneOrderingHasNoCrossover) {
  study::StudyResult s = synthetic_two_variant_study();
  // make B strictly slower everywhere: ordering never flips
  for (auto& r : s.report.records) {
    if (r.variant == "B") r.comparison.estimated += 10.0;
  }
  EXPECT_TRUE(s.crossovers().empty());
}

TEST(StudyResult, DetectsMachineCrossover) {
  study::StudyResult s;
  const auto add = [&s](const char* m, int np, double t) {
    api::RunRecord r;
    r.machine = m;
    r.variant = "v";
    r.problem = "p";
    r.nprocs = np;
    r.comparison.estimated = t;
    s.report.records.push_back(std::move(r));
  };
  // the cluster's fast nodes win serially; the cube wins at scale
  add("cube", 1, 4.0);
  add("lan", 1, 2.0);
  add("cube", 8, 1.0);
  add("lan", 8, 3.0);
  const std::vector<study::Crossover> flips = s.crossovers();
  ASSERT_EQ(flips.size(), 1u);
  EXPECT_EQ(flips[0].axis, "machine");
  EXPECT_EQ(flips[0].a, "cube");
  EXPECT_EQ(flips[0].b, "lan");
  EXPECT_EQ(flips[0].context, "v");
}

TEST(StudyResult, ScalabilityCurvesRelativeToSmallestP) {
  study::StudyResult s;
  const auto add = [&s](int np, double t) {
    api::RunRecord r;
    r.machine = "m";
    r.variant = "v";
    r.problem = "p";
    r.nprocs = np;
    r.comparison.estimated = t;
    s.report.records.push_back(std::move(r));
  };
  add(1, 8.0);
  add(2, 4.0);
  add(8, 2.0);
  const std::vector<study::ScalabilityCurve> curves = s.scalability();
  ASSERT_EQ(curves.size(), 1u);
  ASSERT_EQ(curves[0].points.size(), 3u);
  EXPECT_DOUBLE_EQ(curves[0].points[0].speedup, 1.0);
  EXPECT_DOUBLE_EQ(curves[0].points[0].efficiency, 1.0);
  EXPECT_DOUBLE_EQ(curves[0].points[1].speedup, 2.0);
  EXPECT_DOUBLE_EQ(curves[0].points[1].efficiency, 1.0);  // perfect to P=2
  EXPECT_DOUBLE_EQ(curves[0].points[2].speedup, 4.0);
  EXPECT_DOUBLE_EQ(curves[0].points[2].efficiency, 0.5);  // 4x on 8x procs
}

TEST(StudyResult, BottleneckAttributionReadsThePhaseDecomposition) {
  study::StudyResult s;
  api::RunRecord r;
  r.machine = "m";
  r.variant = "v";
  r.problem = "p";
  r.nprocs = 4;
  r.comparison.estimated = 1.0;
  r.phases = api::PhaseBreakdown{0.2, 0.6, 0.1, 0.1};
  s.report.records.push_back(r);
  const std::vector<study::BottleneckRecord> b = s.bottlenecks();
  ASSERT_EQ(b.size(), 1u);
  EXPECT_STREQ(b[0].phases.dominant(), "comm");
  EXPECT_DOUBLE_EQ(b[0].phases.dominant_fraction(), 0.6);
  EXPECT_NE(s.ascii().find("comm 60%"), std::string::npos);
}

// --- the acceptance sweep -----------------------------------------------------

study::StudyPlan acceptance_plan() {
  const auto& app = suite::app("laplace_bb");
  study::StudyPlan plan("acceptance study");
  plan.source(app.source)
      .knob_axis(study::Knob::Latency, {0.5, 2})
      .knob_axis(study::Knob::Bandwidth, {1, 2})
      .knob_axis(study::Knob::Cpu, {1, 2})
      .add_variant("(block,block)", suite::app("laplace_bb").directive_overrides, 2)
      .add_variant("(block,*)", suite::app("laplace_bx").directive_overrides)
      .problems_from({16}, app.bindings)
      .nprocs({2, 4})
      .runs(1);
  return plan;
}

TEST(Study, AcceptanceSweepRunsBatchedWithDeterministicExports) {
  // >= 3 knobs x >= 2 variants x >= 2 nprocs through ONE batched
  // Session::run, zero manual register_whatif calls, and byte-identical
  // exports for any worker count.
  const study::StudyPlan plan = acceptance_plan();
  EXPECT_EQ(plan.machine_count(), 8u);   // 2x2x2 knob grid
  EXPECT_EQ(plan.point_count(), 32u);    // x 2 variants x 1 problem x 2 nprocs

  std::vector<std::string> csvs, jsons, asciis;
  for (const int workers : {1, 4}) {
    api::Session session;
    api::RunOptions opts;
    opts.workers = workers;
    const study::StudyResult result = study::run_study(session, plan, opts);
    EXPECT_EQ(result.report.records.size(), 32u);
    EXPECT_EQ(result.machine_points.size(), 8u);
    csvs.push_back(result.csv());
    jsons.push_back(result.json());
    asciis.push_back(result.ascii());
  }
  EXPECT_EQ(csvs[0], csvs[1]);
  EXPECT_EQ(jsons[0], jsons[1]);
  EXPECT_EQ(asciis[0], asciis[1]);
}

TEST(Study, KnobSettingsAreRecoverablePerMachine) {
  api::Session session;
  const study::StudyPlan plan = acceptance_plan();
  const study::StudyResult result = study::run_study(session, plan);
  EXPECT_EQ(result.base_machine, "ipsc860");
  const auto params_for = [&](std::string_view name) -> const machine::WhatIfParams* {
    for (const auto& pt : result.machine_points) {
      if (pt.name == name) return &pt.params;
    }
    return nullptr;
  };
  const machine::WhatIfParams* p =
      params_for("acceptance-study/latency=0.5+bandwidth=2+cpu=1");
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p->latency_scale, 0.5);
  EXPECT_DOUBLE_EQ(p->bandwidth_scale, 2.0);
  EXPECT_DOUBLE_EQ(p->cpu_scale, 1.0);
  EXPECT_EQ(params_for("ipsc860"), nullptr);  // reference machines have no knobs
}

// --- export round trips -------------------------------------------------------

study::StudyResult small_real_study() {
  api::Session session;
  const auto& app = suite::app("pi");
  study::StudyPlan plan("round trip");
  plan.source(app.source)
      .add_reference_machine("ipsc860")
      .knob_axis(study::Knob::Latency, {0.5, 2})
      .problems_from({256}, app.bindings)
      .nprocs({1, 2})
      .runs(1);
  return study::run_study(session, plan);
}

TEST(StudyResult, CsvRoundTripsByteIdentically) {
  const study::StudyResult result = small_real_study();
  const std::string csv = result.csv();
  const study::StudyResult parsed = study::StudyResult::from_csv(csv);
  EXPECT_EQ(parsed.title, result.title);
  EXPECT_EQ(parsed.base_machine, result.base_machine);
  ASSERT_EQ(parsed.machine_points.size(), result.machine_points.size());
  ASSERT_EQ(parsed.report.records.size(), result.report.records.size());
  for (std::size_t i = 0; i < result.report.records.size(); ++i) {
    const api::RunRecord& a = result.report.records[i];
    const api::RunRecord& b = parsed.report.records[i];
    EXPECT_EQ(a.comparison.estimated, b.comparison.estimated);
    EXPECT_EQ(a.comparison.measured_mean, b.comparison.measured_mean);
    EXPECT_EQ(a.phases.comm, b.phases.comm);
    EXPECT_EQ(a.phases.wait, b.phases.wait);
  }
  EXPECT_EQ(parsed.csv(), csv);  // byte-identical re-export
}

TEST(StudyResult, JsonRoundTripsByteIdentically) {
  const study::StudyResult result = small_real_study();
  const std::string json = result.json();
  const study::StudyResult parsed = study::StudyResult::from_json(json);
  EXPECT_EQ(parsed.title, result.title);
  ASSERT_EQ(parsed.machine_points.size(), result.machine_points.size());
  for (std::size_t i = 0; i < result.machine_points.size(); ++i) {
    EXPECT_EQ(parsed.machine_points[i].name, result.machine_points[i].name);
    EXPECT_EQ(parsed.machine_points[i].params.latency_scale,
              result.machine_points[i].params.latency_scale);
  }
  ASSERT_EQ(parsed.report.records.size(), result.report.records.size());
  EXPECT_EQ(parsed.json(), json);  // byte-identical re-export
}

TEST(StudyResult, ParsersRejectMalformedInput) {
  EXPECT_THROW((void)study::StudyResult::from_csv(""), std::invalid_argument);
  EXPECT_THROW((void)study::StudyResult::from_csv("machine,variant\n"),
               std::invalid_argument);
  // corrupted numeric cells surface as the documented invalid_argument:
  // trailing junk and out-of-range values alike
  const study::StudyResult tiny = small_real_study();
  std::string junk = tiny.csv();
  junk.replace(junk.rfind('\n', junk.size() - 2) + 1, std::string::npos,
               "m,v,p,4,1,12abc,0,0,0,0,0,0,0,0\n");
  EXPECT_THROW((void)study::StudyResult::from_csv(junk), std::invalid_argument);
  std::string huge = tiny.csv();
  huge.replace(huge.rfind('\n', huge.size() - 2) + 1, std::string::npos,
               "m,v,p,4,1,1e999999,0,0,0,0,0,0,0,0\n");
  EXPECT_THROW((void)study::StudyResult::from_csv(huge), std::invalid_argument);
  EXPECT_THROW((void)study::StudyResult::from_json(""), std::invalid_argument);
  EXPECT_THROW((void)study::StudyResult::from_json("{\"bogus\": 1}"),
               std::invalid_argument);
  EXPECT_THROW((void)study::StudyResult::from_json("{\"title\": \"x\"} trailing"),
               std::invalid_argument);
  // nprocs is a strict integer in int range (1e300 used to convert to int
  // with undefined behaviour)
  for (const char* bad : {"1e300", "99999999999", "2.5"}) {
    const std::string text =
        std::string("{\"records\": [{\"machine\": \"m\", \"nprocs\": ") + bad + "}]}";
    EXPECT_THROW((void)study::StudyResult::from_json(text), std::invalid_argument) << bad;
  }
  EXPECT_EQ(study::StudyResult::from_json("{\"records\": [{\"nprocs\": 8}]}")
                .report.records.at(0)
                .nprocs,
            8);
}

// --- weak-scaling axis --------------------------------------------------------

/// The weak-scaling pairs (64 * P, P) for P = 1 and 4.
std::vector<api::ScaledCase> weak_scaling(const suite::BenchmarkApp& app) {
  return {{{"n=64", app.bindings(64)}, 1}, {{"n=256", app.bindings(256)}, 4}};
}

TEST(StudyPlan, WeakScalingAxisCouplesProblemSizeToNprocs) {
  api::Session session;
  const auto& app = suite::app("pi");
  api::ExperimentPlan axes("weak scaling");
  axes.source(app.source).nprocs({1, 4}).runs(0).scaled_cases(weak_scaling(app));
  study::StudyPlan plan("weak scaling");
  plan.add_reference_machine("ipsc860").replace_inner(axes);
  // the scaled pairs replace the problems x nprocs cross product
  EXPECT_EQ(plan.point_count(), 2u);

  const study::StudyResult result = study::run_study(session, plan);
  ASSERT_EQ(result.report.records.size(), 2u);
  EXPECT_EQ(result.report.records[0].nprocs, 1);
  EXPECT_EQ(result.report.records[0].problem, "n=64");
  EXPECT_EQ(result.report.records[1].nprocs, 4);
  EXPECT_EQ(result.report.records[1].problem, "n=256");  // 64 * P at P=4
}

TEST(StudyPlan, WeakScalingAxisIsValidated) {
  const auto& app = suite::app("pi");
  api::ExperimentPlan axes("bad");
  axes.source(app.source).nprocs({1, 4});
  axes.add_problem("fixed", app.bindings(64)).scaled_cases(weak_scaling(app));
  study::StudyPlan mixed("bad");
  mixed.add_reference_machine("ipsc860").replace_inner(axes);
  EXPECT_THROW(mixed.validate(), std::invalid_argument);  // mutually exclusive
}

// --- study-vs-study diff ------------------------------------------------------

TEST(StudyDiff, IdenticalStudiesHaveIdenticalConclusions) {
  const study::StudyResult s = synthetic_two_variant_study();
  const study::StudyDiff d = s.diff(s);
  EXPECT_TRUE(d.identical_conclusions());
  EXPECT_NE(d.ascii().find("identical conclusions"), std::string::npos);
}

TEST(StudyDiff, ReportsLostCrossoverAndSignificantDeltas) {
  const study::StudyResult before = synthetic_two_variant_study();
  study::StudyResult after = before;
  // make B strictly slower everywhere: the P=4 overtake disappears
  for (auto& r : after.report.records) {
    if (r.variant == "B") r.comparison.estimated += 10.0;
  }
  const study::StudyDiff d = before.diff(after);
  EXPECT_TRUE(d.gained.empty());
  ASSERT_EQ(d.lost.size(), 1u);
  EXPECT_EQ(d.lost[0].a, "A");
  EXPECT_EQ(d.lost[0].b, "B");
  EXPECT_EQ(d.deltas.size(), 3u);  // every B point moved >= 5%
  EXPECT_EQ(d.only_in_before, 0u);
  EXPECT_FALSE(d.identical_conclusions());

  // the inverse diff reports the same flip as gained
  const study::StudyDiff inverse = after.diff(before);
  EXPECT_EQ(inverse.gained.size(), 1u);
  EXPECT_TRUE(inverse.lost.empty());
}

TEST(StudyDiff, DriftBelowThresholdIsQuiet) {
  const study::StudyResult before = synthetic_two_variant_study();
  study::StudyResult after = before;
  // 1% uniform drift: same crossover anchors, no significant deltas at 5%
  for (auto& r : after.report.records) r.comparison.estimated *= 1.01;
  EXPECT_TRUE(before.diff(after).identical_conclusions());
  EXPECT_FALSE(before.diff(after, 0.005).identical_conclusions());
}

TEST(StudyDiff, CountsUnmatchedPointsAndRendersDeterministically) {
  const study::StudyResult before = synthetic_two_variant_study();
  study::StudyResult after = before;
  after.report.records.pop_back();  // B@4 vanishes from the candidate
  const study::StudyDiff d = before.diff(after);
  EXPECT_EQ(d.only_in_before, 1u);
  EXPECT_EQ(d.only_in_after, 0u);
  EXPECT_EQ(d.lost.size(), 1u);  // and with it the overtake
  EXPECT_FALSE(d.identical_conclusions());
  EXPECT_EQ(d.ascii(), before.diff(after).ascii());
  EXPECT_NE(d.ascii().find("crossovers lost: 1\n"), std::string::npos);
}

}  // namespace
}  // namespace hpf90d
