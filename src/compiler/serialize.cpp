#include "compiler/serialize.hpp"

#include <climits>
#include <stdexcept>

#include "support/codec.hpp"
#include "support/text.hpp"

namespace hpf90d::compiler {

namespace {

constexpr std::string_view kLayoutHeader = "hpf90d-layout 1";
constexpr std::string_view kRecipeHeader = "hpf90d-recipe 1";

// The serialized form is line-oriented: fields within a line are
// tab-separated; identifiers and %.17g numbers never contain tabs, and
// source text travels length-prefixed, so no escaping is needed.

std::vector<std::string> fields_of(const support::LineReader& in, std::string_view line,
                                   std::size_t expect, std::string_view what) {
  auto cells = support::split(line, '\t');
  if (cells.size() != expect) in.fail("bad " + std::string(what) + " line: " + std::string(line));
  return cells;
}

/// A "<tag>\t<count>" section header.
std::size_t section_count(support::LineReader& in, const char* tag) {
  const auto head = fields_of(in, in.next_line(), 2, tag);
  if (head[0] != tag) in.fail(std::string("bad ") + tag + " line");
  return static_cast<std::size_t>(in.uint_field(head[1]));
}

}  // namespace

std::string serialize_layout(const DataLayout& layout) {
  std::string out(kLayoutHeader);
  out += '\n';

  out += support::strfmt("grid\t%d", layout.grid_.rank());
  for (const int s : layout.grid_.shape) out += support::strfmt("\t%d", s);
  out += '\n';

  out += support::strfmt("env\t%zu\n", layout.env_.values().size());
  for (const auto& [name, value] : layout.env_.values()) {
    out += name;
    out += support::strfmt("\t%.17g\n", value);
  }

  out += support::strfmt("templates\t%zu\n", layout.template_names_.size());
  for (const auto& name : layout.template_names_) {
    out += name;
    out += '\n';
  }

  out += support::strfmt("extents\t%zu\n", layout.extents_.size());
  for (const auto& se : layout.extents_) {
    out += se.name;
    out += support::strfmt("\t%d\t%zu", se.dims ? 1 : 0,
                           se.dims ? se.dims->size() : std::size_t{0});
    if (se.dims) {
      for (const long long d : *se.dims) out += support::strfmt("\t%lld", d);
    }
    out += '\n';
  }

  out += support::strfmt("maps\t%zu\n", layout.maps_.size());
  for (const auto& m : layout.maps_) {
    out += support::strfmt("map\t%d\t", m.symbol);
    out += m.name;
    out += support::strfmt("\t%d\t%zu\n", m.template_id, m.dims.size());
    for (const auto& d : m.dims) {
      out += support::strfmt("dim\t%d\t%d\t%d\t%lld\t%lld\t%lld\t%lld\n",
                             static_cast<int>(d.kind), d.grid_dim, d.nprocs, d.extent,
                             d.align_offset, d.tmpl_extent, d.block);
    }
  }
  out += "end\n";
  return out;
}

DataLayout deserialize_layout(std::string_view text) {
  support::LineReader in(text, "deserialize_layout", support::raise<std::invalid_argument>);
  if (in.next_line() != kLayoutHeader) {
    in.fail("missing or mismatched header (expected \"" + std::string(kLayoutHeader) +
            "\")");
  }
  DataLayout layout;

  {
    const auto grid = support::split(in.next_line(), '\t');
    if (grid.size() < 2 || grid[0] != "grid") in.fail("bad grid line");
    if (grid.size() - 2 != in.uint_field(grid[1])) in.fail("grid rank mismatch");
    long long total = 1;
    for (std::size_t d = 2; d < grid.size(); ++d) {
      const long long extent = in.int_field(grid[d], 1, INT_MAX);
      total *= extent;
      if (total > INT_MAX) in.fail("processor grid larger than INT_MAX");
      layout.grid_.shape.push_back(static_cast<int>(extent));
    }
    if (layout.grid_.shape.empty()) in.fail("empty processor grid");
  }

  for (std::size_t i = 0, n = section_count(in, "env"); i < n; ++i) {
    const auto cells = fields_of(in, in.next_line(), 2, "env entry");
    layout.env_.set(cells[0], in.double_field(cells[1]));
  }

  for (std::size_t i = 0, n = section_count(in, "templates"); i < n; ++i) {
    layout.template_names_.emplace_back(in.next_line());
  }

  for (std::size_t i = 0, n = section_count(in, "extents"); i < n; ++i) {
    const auto cells = support::split(in.next_line(), '\t');
    if (cells.size() < 3) in.fail("bad extent entry");
    DataLayout::SymbolExtents se;
    se.name = cells[0];
    const bool resolved = in.int_field(cells[1]) != 0;
    if (cells.size() - 3 != in.uint_field(cells[2])) in.fail("extent rank mismatch");
    if (resolved) {
      std::vector<long long> dims;
      for (std::size_t d = 3; d < cells.size(); ++d) dims.push_back(in.int_field(cells[d]));
      se.dims = std::move(dims);
    }
    layout.extents_.push_back(std::move(se));
  }

  // Everything below indexes the grid, the template table or the symbol
  // table, or divides by a block size: reject any value make_layout cannot
  // produce, so a corrupt artifact is a load failure, not a crash later.
  const int grid_rank = layout.grid_.rank();
  const auto ntemplates = static_cast<long long>(layout.template_names_.size());
  const auto nsymbols = static_cast<long long>(layout.extents_.size());
  for (std::size_t i = 0, n = section_count(in, "maps"); i < n; ++i) {
    const auto cells = fields_of(in, in.next_line(), 5, "map");
    if (cells[0] != "map") in.fail("bad map entry");
    ArrayMap m;
    m.symbol = static_cast<int>(in.int_field(cells[1], 0, nsymbols - 1));
    m.name = cells[2];
    m.template_id = static_cast<int>(in.int_field(cells[3], 0, ntemplates - 1));
    const auto& rank = layout.extents_[static_cast<std::size_t>(m.symbol)].dims;
    const std::size_t ndims = in.uint_field(cells[4]);
    if (!rank || rank->size() != ndims) in.fail("map rank differs from '" + m.name + "'");
    for (std::size_t d = 0; d < ndims; ++d) {
      const auto dim = fields_of(in, in.next_line(), 8, "dim");
      if (dim[0] != "dim") in.fail("bad dim entry");
      DimDist dd;
      dd.kind = static_cast<front::DistKind>(
          in.int_field(dim[1], 0, static_cast<long long>(front::DistKind::Collapsed)));
      const bool distributed = dd.kind != front::DistKind::Collapsed;
      dd.grid_dim = static_cast<int>(
          distributed ? in.int_field(dim[2], 0, grid_rank - 1) : in.int_field(dim[2], -1, -1));
      const int grid_extent =
          distributed ? layout.grid_.shape[static_cast<std::size_t>(dd.grid_dim)] : 1;
      dd.nprocs = static_cast<int>(in.int_field(dim[3], grid_extent, grid_extent));
      dd.extent = in.int_field(dim[4]);
      dd.align_offset = in.int_field(dim[5]);
      dd.tmpl_extent = in.int_field(dim[6]);
      dd.block = dd.kind == front::DistKind::Block ? in.int_field(dim[7], 1, LLONG_MAX)
                                                    : in.int_field(dim[7]);
      m.dims.push_back(dd);
    }
    layout.maps_.push_back(std::move(m));
  }

  if (in.next_line() != "end") in.fail("missing end marker");
  layout.rebuild_derived_tables();
  return layout;
}

std::string serialize_recipe(std::string_view source,
                             const std::vector<std::string>& overrides,
                             const CompilerOptions& options) {
  std::string out(kRecipeHeader);
  out += '\n';
  out += support::strfmt("options\t%d\t%.17g\n", options.message_vectorization ? 1 : 0,
                         options.default_mask_probability);
  out += support::strfmt("overrides\t%zu\n", overrides.size());
  for (const auto& o : overrides) {
    out += support::strfmt("override\t%zu\n", o.size());
    out += o;
    out += '\n';
  }
  out += support::strfmt("source\t%zu\n", source.size());
  out += source;
  out += '\n';
  return out;
}

ParsedRecipe deserialize_recipe(std::string_view text) {
  support::LineReader in(text, "deserialize_recipe", support::raise<std::invalid_argument>);
  if (in.next_line() != kRecipeHeader) {
    in.fail("missing or mismatched header (expected \"" + std::string(kRecipeHeader) +
            "\")");
  }
  ParsedRecipe recipe;
  {
    const auto cells = fields_of(in, in.next_line(), 3, "options");
    if (cells[0] != "options") in.fail("bad options line");
    recipe.options.message_vectorization = in.int_field(cells[1]) != 0;
    recipe.options.default_mask_probability = in.double_field(cells[2]);
  }
  for (std::size_t i = 0, n = section_count(in, "overrides"); i < n; ++i) {
    const auto cells = fields_of(in, in.next_line(), 2, "override");
    if (cells[0] != "override") in.fail("bad override entry");
    recipe.overrides.emplace_back(in.take_bytes(in.uint_field(cells[1])));
  }
  recipe.source = in.take_bytes(section_count(in, "source"));
  return recipe;
}

}  // namespace hpf90d::compiler
