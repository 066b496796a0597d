// HPF directive parsing and two-level data-mapping resolution tests,
// including parameterized ownership sweeps over BLOCK and CYCLIC.
#include <gtest/gtest.h>

#include <algorithm>

#include "compiler/mapping.hpp"
#include "hpf/directives.hpp"
#include "hpf/parser.hpp"
#include "hpf/sema.hpp"
#include "support/diagnostics.hpp"

namespace hpf90d {
namespace {

front::DirectiveSet parse_dirs(std::initializer_list<const char*> lines) {
  std::vector<front::RawDirective> raw;
  std::uint32_t ln = 1;
  for (const char* l : lines) raw.push_back({{ln++, 1}, l});
  return front::parse_directives(raw);
}

TEST(Directives, Processors) {
  auto d = parse_dirs({" processors p(2, 4)"});
  ASSERT_EQ(d.processors.size(), 1u);
  EXPECT_EQ(d.processors[0].name, "p");
  EXPECT_EQ(d.processors[0].extents.size(), 2u);
}

TEST(Directives, TemplateWithExpressionExtent) {
  auto d = parse_dirs({" template t(n+11, 2*m)"});
  ASSERT_EQ(d.templates.size(), 1u);
  EXPECT_EQ(d.templates[0].extents[0]->str(), "(n + 11)");
  EXPECT_EQ(d.templates[0].extents[1]->str(), "(2 * m)");
}

TEST(Directives, AlignWithOffsetsAndPermutation) {
  auto d = parse_dirs({" align a(i, j) with t(j+1, i-2)"});
  ASSERT_EQ(d.aligns.size(), 1u);
  const auto& al = d.aligns[0];
  EXPECT_EQ(al.target_subs[0].dummy, 1);
  EXPECT_EQ(al.target_subs[0].offset, 1);
  EXPECT_EQ(al.target_subs[1].dummy, 0);
  EXPECT_EQ(al.target_subs[1].offset, -2);
}

TEST(Directives, AlignStarReplicates) {
  auto d = parse_dirs({" align v(i) with t(i, *)"});
  EXPECT_TRUE(d.aligns[0].target_subs[1].star);
}

TEST(Directives, DistributePatterns) {
  auto d = parse_dirs({" distribute t(block, *) onto p", " distribute s(cyclic)"});
  ASSERT_EQ(d.distributes.size(), 2u);
  EXPECT_EQ(d.distributes[0].pattern[0], front::DistKind::Block);
  EXPECT_EQ(d.distributes[0].pattern[1], front::DistKind::Collapsed);
  EXPECT_EQ(d.distributes[0].onto, "p");
  EXPECT_EQ(d.distributes[1].pattern[0], front::DistKind::Cyclic);
}

TEST(Directives, UnknownDirectiveThrows) {
  EXPECT_THROW((void)parse_dirs({" realign a with b"}), support::CompileError);
}

TEST(Directives, AlignUnknownDummyThrows) {
  EXPECT_THROW((void)parse_dirs({" align a(i) with t(k)"}), support::CompileError);
}

// --- ProcGrid ----------------------------------------------------------------

TEST(ProcGrid, FactorizationMatchesPaperGrids) {
  EXPECT_EQ(compiler::ProcGrid::factorized(4, 2).shape, (std::vector<int>{2, 2}));
  EXPECT_EQ(compiler::ProcGrid::factorized(8, 2).shape, (std::vector<int>{2, 4}));
  EXPECT_EQ(compiler::ProcGrid::factorized(2, 2).shape, (std::vector<int>{1, 2}));
  EXPECT_EQ(compiler::ProcGrid::factorized(8, 1).shape, (std::vector<int>{8}));
}

TEST(ProcGrid, LinearCoordsRoundTrip) {
  compiler::ProcGrid g;
  g.shape = {2, 4};
  for (int p = 0; p < g.total(); ++p) {
    const auto c = g.coords(p);
    EXPECT_EQ(g.linear(c), p);
  }
}

// --- DimDist ownership: parameterized over (extent, procs) ---------------------

class BlockOwnership : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BlockOwnership, PartitionIsCompleteAndDisjoint) {
  const auto [extent, nprocs] = GetParam();
  compiler::DimDist d;
  d.kind = front::DistKind::Block;
  d.grid_dim = 0;
  d.nprocs = nprocs;
  d.extent = extent;
  d.tmpl_extent = extent;
  d.block = (extent + nprocs - 1) / nprocs;

  long long total = 0;
  for (int c = 0; c < nprocs; ++c) {
    const auto r = d.owned_range(c);
    total += r.count();
    EXPECT_EQ(d.local_count(c), r.count());
    for (long long g = r.lo; g <= r.hi; ++g) EXPECT_EQ(d.owner_coord(g), c);
  }
  EXPECT_EQ(total, extent);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BlockOwnership,
                         ::testing::Combine(::testing::Values(1, 7, 16, 100, 1024),
                                            ::testing::Values(1, 2, 4, 8)));

class CyclicOwnership : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CyclicOwnership, CountsSumToExtentAndOwnershipIsModular) {
  const auto [extent, nprocs] = GetParam();
  compiler::DimDist d;
  d.kind = front::DistKind::Cyclic;
  d.grid_dim = 0;
  d.nprocs = nprocs;
  d.extent = extent;
  d.tmpl_extent = extent;

  long long total = 0;
  for (int c = 0; c < nprocs; ++c) total += d.local_count(c);
  EXPECT_EQ(total, extent);
  for (long long g = 1; g <= extent; ++g) {
    EXPECT_EQ(d.owner_coord(g), static_cast<int>((g - 1) % nprocs));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CyclicOwnership,
                         ::testing::Combine(::testing::Values(5, 16, 33),
                                            ::testing::Values(1, 2, 4, 8)));

TEST(DimDist, AlignOffsetShiftsOwnership) {
  compiler::DimDist d;
  d.kind = front::DistKind::Block;
  d.grid_dim = 0;
  d.nprocs = 4;
  d.extent = 14;       // array is shorter than the template
  d.tmpl_extent = 16;  // template index = array index + 2
  d.align_offset = 2;
  d.block = 4;
  // array index 1 -> template 3 -> coord 0; array index 3 -> template 5 -> coord 1
  EXPECT_EQ(d.owner_coord(1), 0);
  EXPECT_EQ(d.owner_coord(3), 1);
  long long total = 0;
  for (int c = 0; c < 4; ++c) total += d.local_count(c);
  EXPECT_EQ(total, 14);
}

// --- DataLayout end-to-end ------------------------------------------------------

struct LayoutFixture {
  front::Program prog;
  front::SymbolTable symbols;
  front::DirectiveSet directives;
};

LayoutFixture make_fixture(const char* src) {
  LayoutFixture f{front::parse_program(src), {}, {}};
  f.symbols = front::analyze(f.prog);
  f.directives = front::parse_directives(f.prog.raw_directives);
  return f;
}

constexpr const char* kLaplaceSrc = R"f90(
program l
  parameter (n = 16)
  real u(n,n)
!hpf$ processors p(2,2)
!hpf$ template d(n,n)
!hpf$ align u(i,j) with d(i,j)
!hpf$ distribute d(block,block)
  u(1,1) = 0.0
end program l
)f90";

TEST(DataLayout, BlockBlockOwnership) {
  auto f = make_fixture(kLaplaceSrc);
  compiler::LayoutOptions opts;
  opts.nprocs = 4;
  compiler::DataLayout layout(f.directives, f.symbols, {}, opts);
  const compiler::ArrayMap* map = layout.map_for(f.symbols.find("u"));
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(layout.grid().shape, (std::vector<int>{2, 2}));
  const long long i00[2] = {1, 1};
  const long long i01[2] = {1, 16};
  const long long i10[2] = {16, 1};
  const long long i11[2] = {16, 16};
  EXPECT_EQ(map->owner(layout.grid(), i00), 0);
  EXPECT_EQ(map->owner(layout.grid(), i01), 1);
  EXPECT_EQ(map->owner(layout.grid(), i10), 2);
  EXPECT_EQ(map->owner(layout.grid(), i11), 3);
  // every processor owns an 8x8 block
  for (int p = 0; p < 4; ++p) EXPECT_EQ(map->local_elements(layout.grid(), p), 64);
}

TEST(DataLayout, CollapsedDimStaysLocal) {
  auto f = make_fixture(R"f90(
program l
  parameter (n = 16)
  real a(n, 4)
!hpf$ template d(n)
!hpf$ align a(i,j) with d(i)
!hpf$ distribute d(block)
  a(1,1) = 0.0
end program l
)f90");
  compiler::LayoutOptions opts;
  opts.nprocs = 4;
  compiler::DataLayout layout(f.directives, f.symbols, {}, opts);
  const compiler::ArrayMap* map = layout.map_for(f.symbols.find("a"));
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->dims[1].kind, front::DistKind::Collapsed);
  for (int p = 0; p < 4; ++p) EXPECT_EQ(map->local_elements(layout.grid(), p), 16);
}

TEST(DataLayout, BindingOverridesParameterExtent) {
  auto f = make_fixture(kLaplaceSrc);
  front::Bindings b;
  b.set_int("n", 64);
  compiler::LayoutOptions opts;
  opts.nprocs = 4;
  compiler::DataLayout layout(f.directives, f.symbols, b, opts);
  const compiler::ArrayMap* map = layout.map_for(f.symbols.find("u"));
  EXPECT_EQ(map->dims[0].extent, 64);
  EXPECT_EQ(map->total_elements(), 64 * 64);
}

TEST(DataLayout, GridShapeOverride) {
  auto f = make_fixture(kLaplaceSrc);
  compiler::LayoutOptions opts;
  opts.nprocs = 8;
  opts.grid_shape = std::vector<int>{2, 4};
  compiler::DataLayout layout(f.directives, f.symbols, {}, opts);
  EXPECT_EQ(layout.grid().shape, (std::vector<int>{2, 4}));
  compiler::LayoutOptions bad = opts;
  bad.grid_shape = std::vector<int>{3, 2};
  EXPECT_THROW((compiler::DataLayout(f.directives, f.symbols, {}, bad)),
               support::CompileError);
}

TEST(DataLayout, UnmappedSymbolReturnsNull) {
  auto f = make_fixture(kLaplaceSrc);
  compiler::LayoutOptions opts;
  opts.nprocs = 4;
  compiler::DataLayout layout(f.directives, f.symbols, {}, opts);
  EXPECT_EQ(layout.map_for(f.symbols.find("n")), nullptr);
}

TEST(DataLayout, OwnershipPictureShowsGrid) {
  auto f = make_fixture(kLaplaceSrc);
  compiler::LayoutOptions opts;
  opts.nprocs = 4;
  compiler::DataLayout layout(f.directives, f.symbols, {}, opts);
  const std::string pic = layout.ownership_picture(f.symbols.find("u"), 4, 4);
  EXPECT_NE(pic.find("P1"), std::string::npos);
  EXPECT_NE(pic.find("P4"), std::string::npos);
}

// --- layout serialization (the artifact store's payload) ----------------------

TEST(DataLayout, SerializeRoundTripsExactly) {
  auto f = make_fixture(kLaplaceSrc);
  compiler::LayoutOptions opts;
  opts.nprocs = 4;
  compiler::DataLayout layout(f.directives, f.symbols, {}, opts);
  const std::string text = compiler::serialize_layout(layout);
  const compiler::DataLayout back = compiler::deserialize_layout(text);
  // the serialized form is a fixpoint: re-serializing is byte-identical
  EXPECT_EQ(compiler::serialize_layout(back), text);
  // and the rebuilt layout answers queries like the original
  EXPECT_EQ(back.grid().shape, layout.grid().shape);
  EXPECT_EQ(back.nprocs(), layout.nprocs());
  const int u = f.symbols.find("u");
  EXPECT_EQ(back.ownership_picture(u, 4, 4), layout.ownership_picture(u, 4, 4));
}

/// `text` with tab-separated field `index` of the first line tagged `tag`
/// replaced by `value`.
std::string with_field(const std::string& text, const std::string& tag, std::size_t index,
                       const std::string& value) {
  const std::size_t start = text.find("\n" + tag + "\t") + 1;
  const std::size_t end = text.find('\n', start);
  std::size_t lo = start;
  for (std::size_t i = 0; i < index; ++i) lo = text.find('\t', lo) + 1;
  const std::size_t hi = std::min(text.find('\t', lo), end);
  std::string out = text;
  out.replace(lo, hi - lo, value);
  return out;
}

TEST(DataLayout, DeserializeRejectsMalformedText) {
  EXPECT_THROW((void)compiler::deserialize_layout(""), std::invalid_argument);
  EXPECT_THROW((void)compiler::deserialize_layout("layout 99\n"), std::invalid_argument);
  auto f = make_fixture(kLaplaceSrc);
  compiler::LayoutOptions opts;
  opts.nprocs = 4;
  compiler::DataLayout layout(f.directives, f.symbols, {}, opts);
  const std::string good = compiler::serialize_layout(layout);
  EXPECT_THROW((void)compiler::deserialize_layout(good.substr(0, good.size() / 2)),
               std::invalid_argument);

  // values make_layout cannot produce: a corrupt spill file must fail to
  // load, never load and crash the first run that uses it
  ASSERT_NE(good.find("\ngrid\t2\t2\t2\n"), std::string::npos) << good;
  ASSERT_NE(good.find("\ndim\t0\t0\t2\t"), std::string::npos) << good;  // BLOCK on axis 0
  EXPECT_EQ(compiler::serialize_layout(compiler::deserialize_layout(
                with_field(good, "grid", 2, "2"))),
            good);  // the helper itself leaves a valid layout valid

  struct Case {
    const char* tag;
    std::size_t field;
    const char* value;
  };
  const Case cases[] = {
      {"grid", 2, "4x"},  {"grid", 2, "abc"},  {"grid", 2, "-4"},   {"grid", 2, "0"},
      {"grid", 1, "2x"},  {"map", 1, "-1"},    {"map", 1, "99999"}, {"map", 3, "1"},
      {"map", 3, "-1"},   {"dim", 1, "3"},     {"dim", 1, "-1"},    {"dim", 2, "2"},
      {"dim", 2, "-1"},   {"dim", 3, "0"},     {"dim", 3, "3"},     {"dim", 7, "0"},
      {"dim", 7, "x"},    {"dim", 7, "-8"},    {"dim", 4, "16z"},   {"env", 1, "1x"},
      {"map", 4, "1"},    {"map", 4, "3"},
  };
  for (const Case& c : cases) {
    EXPECT_THROW((void)compiler::deserialize_layout(with_field(good, c.tag, c.field, c.value)),
                 std::invalid_argument)
        << c.tag << " field " << c.field << " = " << c.value;
  }
}

}  // namespace
}  // namespace hpf90d
