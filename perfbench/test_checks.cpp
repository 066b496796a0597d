// test_checks — shows that the benchmark's output checks catch a corrupted
// output: one corrupted record or study CSV among good ones lowers ok_frac.
#include <cmath>
#include <cstdio>
#include <limits>

#include "common.hpp"
#include "study/study.hpp"

namespace {

int failures = 0;

void expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  using namespace perfbench;
  const auto& app = suite::app("pi");
  const long long size = table2_sizes(app).front();

  api::Session session;
  api::ExperimentPlan plan(app.name);
  plan.source(app.source).nprocs({2}).add_variant(variant_for(app)).problems_from(
      {size}, app.bindings);
  api::RunOptions opts;
  opts.workers = 1;
  const api::RunRecord good = session.run(plan, opts).records.at(0);

  api::RunOptions scalar = opts;
  scalar.batch_size = 1;
  api::ExperimentPlan predict_only = plan;
  predict_only.runs(0);
  const double ref_estimate = session.run(predict_only, scalar).records.at(0).comparison.estimated;
  api::RunConfig cfg;
  cfg.nprocs = 2;
  cfg.bindings = app.bindings(size);
  const api::Comparison measured_ref =
      session.compare(compile_app(session, app, app.source), cfg);

  expect(table2_record_ok(good, ref_estimate, &measured_ref), "good record passes");

  api::RunRecord off_by_ulp = good;
  off_by_ulp.comparison.estimated =
      std::nextafter(good.comparison.estimated, std::numeric_limits<double>::infinity());
  api::RunRecord bad_mean = good;
  bad_mean.comparison.measured_mean *= 1.0000001;
  api::RunRecord nan_max = good;
  nan_max.comparison.measured_max = std::numeric_limits<double>::quiet_NaN();
  expect(!table2_record_ok(off_by_ulp, ref_estimate, &measured_ref), "estimate off by 1 ulp");
  expect(!table2_record_ok(bad_mean, ref_estimate, &measured_ref), "measured mean differs");
  expect(!table2_record_ok(nan_max, ref_estimate, nullptr), "non-finite measurement");

  Tally tally;
  tally.record(table2_record_ok(good, ref_estimate, &measured_ref));
  tally.record(table2_record_ok(off_by_ulp, ref_estimate, &measured_ref));
  tally.record(table2_record_ok(good, ref_estimate, &measured_ref));
  expect(tally.attempted == 3 && tally.ok == 2, "one corrupted record of three fails");
  expect(tally.ok_frac() < 1.0, "a corrupted record lowers ok_frac");

  // a study CSV checked against its batch_size=1 reference
  hpf90d::study::StudyPlan study("test");
  study.source(app.source)
      .knob_axis(hpf90d::study::Knob::Latency, {0.5, 2})
      .add_reference_machine("ipsc860")
      .add_variant(variant_for(app))
      .problems_from({size}, app.bindings)
      .nprocs({1, 4})
      .runs(0);
  const std::string want = hpf90d::study::run_study(session, study, scalar).csv();
  std::string got = hpf90d::study::run_study(session, study, opts).csv();
  Tally csv_tally;
  csv_tally.record(got == want);
  got[got.size() / 2] ^= 1;
  csv_tally.record(got == want);
  expect(csv_tally.ok == 1 && csv_tally.ok_frac() == 0.5, "a corrupted study CSV lowers ok_frac");

  if (failures == 0) std::printf("test_checks: all checks behave\n");
  return failures == 0 ? 0 : 1;
}
