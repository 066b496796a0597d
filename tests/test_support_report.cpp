// Support-library and reporting tests: diagnostics, text utilities, table
// rendering, F77 round-trips, and the cluster machine
// abstraction (§7 extension).
#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/engine.hpp"
#include "compiler/pipeline.hpp"
#include "machine/cluster.hpp"
#include "machine/ipsc860.hpp"
#include "suite/suite.hpp"
#include "support/codec.hpp"
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

// --- codec: the shared field parsers and readers -------------------------------

TEST(Codec, IntegerFieldsAreReadWhole) {
  EXPECT_EQ(support::parse_int("42"), 42);
  EXPECT_EQ(support::parse_int("-7"), -7);
  EXPECT_EQ(support::parse_int("+7"), 7);  // as std::stoll
  EXPECT_EQ(support::parse_int("9223372036854775807"), LLONG_MAX);
  for (const char* bad : {"", "-", "8abc", "4x", "1.5", "1e3", "abc", " ", "9223372036854775808",
                          "-9223372036854775809"}) {
    EXPECT_FALSE(support::parse_int(bad).has_value()) << '"' << bad << '"';
  }
  // an embedded NUL is a trailing byte, not the end of the field
  EXPECT_FALSE(support::parse_int(std::string_view("12\0" "3", 4)).has_value());
  // bounds are inclusive
  EXPECT_EQ(support::parse_int("2147483647", INT_MIN, INT_MAX), INT_MAX);
  EXPECT_FALSE(support::parse_int("2147483648", INT_MIN, INT_MAX).has_value());
  EXPECT_FALSE(support::parse_int("99999999999", INT_MIN, INT_MAX).has_value());
  EXPECT_FALSE(support::parse_int("0", 1, 10).has_value());
  // long fields take the heap path and are still read whole
  EXPECT_EQ(support::parse_int(std::string(80, '0') + "5"), 5);
  EXPECT_FALSE(support::parse_int(std::string(80, '0') + "5x").has_value());
}

TEST(Codec, UnsignedFieldsRejectAMinusSign) {
  EXPECT_EQ(support::parse_uint("18446744073709551615"), ULLONG_MAX);
  EXPECT_EQ(support::parse_uint("0"), 0u);
  for (const char* bad : {"-1", " -1", "-0", "18446744073709551616", "1-", "7z", ""}) {
    EXPECT_FALSE(support::parse_uint(bad).has_value()) << '"' << bad << '"';
  }
}

TEST(Codec, DoubleFieldsRoundTripTheG17Writer) {
  for (const double v : {0.0, -0.0, 1.5, 0.1, 1e-300, 6.02214076e23, -2.5e-7,
                         std::numeric_limits<double>::max()}) {
    const std::string text = support::format_g17(v);
    ASSERT_TRUE(support::parse_double(text).has_value()) << text;
    EXPECT_EQ(*support::parse_double(text), v) << text;
  }
  // the %.17g writers emit inf and nan; they must read back
  EXPECT_EQ(support::parse_double(support::format_g17(HUGE_VAL)), HUGE_VAL);
  EXPECT_TRUE(std::isnan(*support::parse_double(support::format_g17(std::nan("")))));
  for (const char* bad : {"", "1.5xyz", "12abc", "1e999", "-1e999", "x1", "1.5 ", "."}) {
    EXPECT_FALSE(support::parse_double(bad).has_value()) << '"' << bad << '"';
  }
}

TEST(Codec, JsonEscapeAndCsvField) {
  EXPECT_EQ(support::json_escape("a\"b\\c\nd\te\x01"), "a\\\"b\\\\c\\nd\\te\\u0001");
  EXPECT_EQ(support::csv_field("a,b,c"), "a;b;c");
}

TEST(Codec, LineReaderLinesAndPayloads) {
  support::LineReader in("head 1\n5\nhello\nlast", "test",
                         support::raise<std::invalid_argument>);
  EXPECT_EQ(in.next_line(), "head 1");
  EXPECT_EQ(in.take_bytes(static_cast<std::size_t>(in.int_field(in.next_line()))), "hello");
  EXPECT_EQ(in.next_line(), "last");  // the final line may omit its newline
  EXPECT_TRUE(in.at_end());
  EXPECT_THROW((void)in.next_line(), std::invalid_argument);
}

TEST(Codec, LineReaderBoundsNeverWrap) {
  const auto reader = [](std::string_view text) {
    return support::LineReader(text, "test", support::raise<std::invalid_argument>);
  };
  // a payload length past the end, up to SIZE_MAX, is a truncation
  for (const std::size_t n : {std::size_t{6}, std::size_t{1} << 40,
                              std::numeric_limits<std::size_t>::max()}) {
    auto in = reader("abcde");
    EXPECT_THROW((void)in.take_bytes(n), std::invalid_argument) << n;
  }
  auto exact = reader("abcde");
  EXPECT_EQ(exact.take_bytes(5), "abcde");  // the end of the text terminates
  EXPECT_TRUE(exact.at_end());
  auto unterminated = reader("abcdeX");
  EXPECT_THROW((void)unterminated.take_bytes(5), std::invalid_argument);
  // failures carry the caller's context, the reason and the offset, in the
  // caller's error type
  auto in = reader("x\n");
  (void)in.next_line();
  try {
    (void)in.int_field("4x");
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "test: malformed integer \"4x\" at offset 2");
  }
  EXPECT_THROW((void)in.int_field("5", 1, 4), std::invalid_argument);
  EXPECT_THROW((void)in.uint_field("-1"), std::invalid_argument);
  EXPECT_THROW((void)in.double_field("1e999"), std::invalid_argument);
  support::LineReader codec("", "codec", support::raise<std::runtime_error>);
  EXPECT_THROW((void)codec.next_line(), std::runtime_error);
}

TEST(Codec, JsonReaderReadsTheWritersSubset) {
  support::JsonReader in(
      R"({"s": "a\"b\\c\nA", "d": -1.5e-3, "u": 18446744073709551615, "i": -7,)"
      R"( "b": [true, false]} )",
      "Doc");
  in.expect('{');
  in.key("s");
  EXPECT_EQ(in.string(), "a\"b\\c\nA");
  in.expect(',');
  in.key("d");
  EXPECT_EQ(in.number(), -1.5e-3);
  in.expect(',');
  in.key("u");
  EXPECT_EQ(in.unsigned_number(), std::numeric_limits<std::uint64_t>::max());
  in.expect(',');
  EXPECT_EQ(in.string(), "i");  // the order-free form: string() then ':'
  in.expect(':');
  EXPECT_EQ(in.int_number(), -7);
  in.expect(',');
  in.key("b");
  in.expect('[');
  EXPECT_TRUE(in.boolean());
  EXPECT_TRUE(in.consume(','));
  EXPECT_FALSE(in.boolean());
  EXPECT_FALSE(in.consume(','));
  in.expect(']');
  in.expect('}');
  in.end();
}

TEST(Codec, JsonReaderFailsLoudlyWithItsContext) {
  const auto fails = [](const std::string& text, void (*read)(support::JsonReader&)) {
    support::JsonReader in(text, "Doc");
    try {
      read(in);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  EXPECT_EQ(fails(R"({"x":1})", [](support::JsonReader& in) {
              in.expect('{');
              in.key("y");
            }),
            "Doc: expected key \"y\", got \"x\" at offset 4");
  EXPECT_EQ(fails("1e300", [](support::JsonReader& in) { (void)in.int_number(); }),
            "Doc: malformed integer at offset 5");
  EXPECT_EQ(fails("2.5", [](support::JsonReader& in) { (void)in.int_number(); }),
            "Doc: malformed integer at offset 3");
  EXPECT_EQ(fails("1.5e", [](support::JsonReader& in) { (void)in.number(); }),
            "Doc: malformed number at offset 4");
  EXPECT_EQ(fails("-3", [](support::JsonReader& in) { (void)in.unsigned_number(); }),
            "Doc: malformed unsigned integer at offset 2");
  EXPECT_EQ(fails(R"("\u00e9")", [](support::JsonReader& in) { (void)in.string(); }),
            "Doc: non-ASCII \\u escape unsupported at offset 7");
  EXPECT_EQ(fails(R"("\u00)", [](support::JsonReader& in) { (void)in.string(); }),
            "Doc: truncated \\u escape at offset 3");
  EXPECT_EQ(fails(R"("abc)", [](support::JsonReader& in) { (void)in.string(); }),
            "Doc: unterminated string at offset 4");
  EXPECT_EQ(fails("{} x", [](support::JsonReader& in) {
              in.expect('{');
              in.expect('}');
              in.end();
            }),
            "Doc: trailing bytes after document at offset 3");
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
