// Support-library and reporting tests: diagnostics, text utilities, table
// rendering, series rendering, F77 round-trips, and the cluster machine
// abstraction (§7 extension).
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "compiler/pipeline.hpp"
#include "driver/report.hpp"
#include "machine/cluster.hpp"
#include "machine/ipsc860.hpp"
#include "suite/suite.hpp"
#include "support/diagnostics.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

namespace hpf90d {
namespace {

TEST(Diagnostics, LocationsRender) {
  support::SourceLoc loc{12, 7};
  EXPECT_EQ(loc.str(), "12:7");
  EXPECT_EQ(support::SourceLoc{}.str(), "<unknown>");
  EXPECT_FALSE(support::SourceLoc{}.valid());
}

TEST(Diagnostics, EngineCollectsAndChecks) {
  support::DiagnosticEngine diags;
  diags.warning({1, 1}, "w");
  EXPECT_FALSE(diags.has_errors());
  EXPECT_NO_THROW(diags.check("stage"));
  diags.error({2, 3}, "boom");
  diags.error({4, 5}, "again");
  EXPECT_EQ(diags.error_count(), 2u);
  EXPECT_THROW(diags.check("stage"), support::CompileError);
  EXPECT_NE(diags.str().find("2:3: error: boom"), std::string::npos);
  EXPECT_NE(diags.str().find("warning: w"), std::string::npos);
}

TEST(Diagnostics, CompileErrorCarriesLocation) {
  support::CompileError err(support::SourceLoc{9, 2}, "bad");
  EXPECT_EQ(err.loc().line, 9u);
  EXPECT_NE(std::string(err.what()).find("9:2"), std::string::npos);
}

TEST(Text, CaseFolding) {
  EXPECT_EQ(support::to_lower("ForAll"), "forall");
  EXPECT_EQ(support::to_upper("block"), "BLOCK");
  EXPECT_TRUE(support::iequals("CSHIFT", "cshift"));
  EXPECT_FALSE(support::iequals("a", "ab"));
}

TEST(Text, TrimAndSplit) {
  EXPECT_EQ(support::trim("  x y \t"), "x y");
  const auto parts = support::split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_TRUE(support::starts_with_ci("!HPF$ align", "!hpf$"));
}

TEST(Text, Formatters) {
  EXPECT_EQ(support::format_seconds(1.5), "1.500 s");
  EXPECT_EQ(support::format_seconds(2.5e-3), "2.500 ms");
  EXPECT_EQ(support::format_seconds(7.0e-6), "7.0 us");
  EXPECT_EQ(support::format_bytes(512), "512 B");
  EXPECT_EQ(support::format_bytes(2048), "2.00 KB");
  EXPECT_EQ(support::strfmt("%d-%s", 4, "x"), "4-x");
}

TEST(Table, AlignmentAndRules) {
  support::TextTable t({"name", "value"});
  t.add_row({"alpha", "1.25"});
  t.add_rule();
  t.add_row({"a-very-long-name", "9"});
  const std::string s = t.str();
  // numeric cells right-aligned, text cells left-aligned
  EXPECT_NE(s.find("| alpha            |"), std::string::npos);
  EXPECT_NE(s.find("|  1.25 |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  // a rule appears between the two data rows (4 rules total)
  std::size_t rules = 0, pos = 0;
  while ((pos = s.find("+-", pos)) != std::string::npos) {
    ++rules;
    pos += 2;
  }
  EXPECT_GE(rules, 4u);
}

TEST(Report, SeriesRendering) {
  api::Comparison cmp;
  cmp.estimated = 0.5;
  cmp.measured_mean = 0.4;
  const std::string s = driver::render_series("ttl", {{64, cmp}});
  EXPECT_NE(s.find("# ttl"), std::string::npos);
  EXPECT_NE(s.find("0.500000"), std::string::npos);
  EXPECT_NE(s.find("25.00"), std::string::npos);  // 25% error
}

// --- §7 extension: second machine abstraction ---------------------------------

TEST(Cluster, DecompositionAndParameters) {
  const machine::MachineModel lan = machine::make_cluster(8);
  EXPECT_GE(lan.sag.find("sparc workstation"), 0);
  EXPECT_GE(lan.sag.find("ethernet segment"), 0);
  // cluster node is faster, network much slower than the cube
  const machine::MachineModel cube = machine::make_ipsc860();
  EXPECT_LT(lan.node().proc.t_fadd, cube.node().proc.t_fadd);
  EXPECT_GT(lan.node().comm.latency_short, 10 * cube.node().comm.latency_short);
}

TEST(Cluster, ChangesTheScalingStory) {
  const auto& app = suite::app("laplace_bx");
  auto prog = compiler::compile_with_directives(app.source, app.directive_overrides);
  const machine::MachineModel cube = machine::make_ipsc860();
  const machine::MachineModel lan = machine::make_cluster();
  const front::Bindings b = app.bindings(64);

  compiler::LayoutOptions p1;
  p1.nprocs = 1;
  compiler::LayoutOptions p8;
  p8.nprocs = 8;

  const double cube1 = core::predict(prog, b, p1, cube).total;
  const double cube8 = core::predict(prog, b, p8, cube).total;
  const double lan1 = core::predict(prog, b, p1, lan).total;
  const double lan8 = core::predict(prog, b, p8, lan).total;

  EXPECT_LT(lan1, cube1);                      // faster node wins serially
  EXPECT_LT(cube8, cube1);                     // the cube scales at n=64
  EXPECT_GT(lan8 / lan1, cube8 / cube1);       // the LAN scales far worse
}

TEST(Cluster, SameProgramSameAnswerDifferentTime) {
  // interpretation is machine-parameterized only: swapping the SAG never
  // touches the program or its abstraction
  auto prog = compiler::compile(suite::app("pi").source);
  const machine::MachineModel cube = machine::make_ipsc860();
  const machine::MachineModel lan = machine::make_cluster();
  compiler::LayoutOptions lo;
  lo.nprocs = 4;
  const auto a = core::predict(prog, {}, lo, cube);
  const auto b = core::predict(prog, {}, lo, lan);
  EXPECT_EQ(a.per_aau.size(), b.per_aau.size());
  EXPECT_NE(a.total, b.total);
}

}  // namespace
}  // namespace hpf90d
