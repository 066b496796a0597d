#include "compiler/mapping.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/diagnostics.hpp"

namespace hpf90d::compiler {

using front::DistKind;
using support::CompileError;

int ProcGrid::linear(std::span<const int> coords) const {
  int id = 0;
  for (std::size_t d = 0; d < shape.size(); ++d) {
    id = id * shape[d] + (d < coords.size() ? coords[d] : 0);
  }
  return id;
}

std::vector<int> ProcGrid::coords(int linear_id) const {
  std::vector<int> c(shape.size(), 0);
  for (std::size_t d = shape.size(); d-- > 0;) {
    c[d] = linear_id % shape[d];
    linear_id /= shape[d];
  }
  return c;
}

ProcGrid ProcGrid::factorized(int nprocs, int rank) {
  ProcGrid grid;
  if (rank <= 1) {
    grid.shape = {nprocs};
    return grid;
  }
  // near-square factorization with the smaller factor first: 4 -> 2x2,
  // 8 -> 2x4, 2 -> 1x2
  int a = static_cast<int>(std::sqrt(static_cast<double>(nprocs)));
  while (a > 1 && nprocs % a != 0) --a;
  grid.shape = {a, nprocs / a};
  return grid;
}

int DimDist::owner_coord(long long g) const {
  if (kind == DistKind::Collapsed || nprocs <= 1) return 0;
  const long long t = g + align_offset;  // 1-based template index
  if (kind == DistKind::Block) {
    long long c = (t - 1) / block;
    return static_cast<int>(std::clamp<long long>(c, 0, nprocs - 1));
  }
  // cyclic
  return static_cast<int>(((t - 1) % nprocs + nprocs) % nprocs);
}

long long ArrayMap::local_elements(const ProcGrid& grid, int p) const {
  const std::vector<int> coords = grid.coords(p);
  long long total = 1;
  for (const auto& d : dims) {
    const int c = d.grid_dim >= 0 && d.grid_dim < static_cast<int>(coords.size())
                      ? coords[static_cast<std::size_t>(d.grid_dim)]
                      : 0;
    total *= d.local_count(c);
  }
  return total;
}

int ArrayMap::owner(const ProcGrid& grid, std::span<const long long> index) const {
  std::vector<int> coords(static_cast<std::size_t>(grid.rank()), 0);
  for (std::size_t k = 0; k < dims.size(); ++k) {
    const auto& d = dims[k];
    if (d.grid_dim >= 0) {
      coords[static_cast<std::size_t>(d.grid_dim)] = d.owner_coord(index[k]);
    }
  }
  return grid.linear(coords);
}

namespace {

/// Fold PARAMETER symbols into the binding environment so extents like
/// `n+11` resolve. User-supplied bindings take precedence over the source's
/// PARAMETER values (the framework's "vary problem size from the interface"
/// workflow, paper §5.3).
front::Bindings parameter_env(const front::SymbolTable& symbols,
                              const front::Bindings& user) {
  front::Bindings env;
  for (const auto& sym : symbols.symbols()) {
    if (sym.kind == front::SymbolKind::Param && sym.param_value) {
      if (user.contains(sym.name)) continue;
      if (const auto v = front::try_fold(*sym.param_value, env)) {
        env.set(sym.name, *v);
      }
    }
  }
  env.merge(user);
  // second pass: params defined in terms of other (possibly overridden) params
  for (const auto& sym : symbols.symbols()) {
    if (sym.kind == front::SymbolKind::Param && sym.param_value &&
        !env.contains(sym.name)) {
      if (const auto v = front::try_fold(*sym.param_value, env)) {
        env.set(sym.name, *v);
      }
    }
  }
  return env;
}

}  // namespace

DataLayout::DataLayout(const front::DirectiveSet& directives,
                       const front::SymbolTable& symbols, const front::Bindings& env,
                       const LayoutOptions& options)
    : env_(parameter_env(symbols, env)) {
  // Snapshot resolved extents for every symbol up front: the layout must
  // not reference the symbol table after construction (content-addressed
  // cache entries outlive the programs they were built from).
  extents_.reserve(symbols.size());
  for (const auto& sym : symbols.symbols()) {
    SymbolExtents se;
    se.name = sym.name;
    std::vector<long long> dims;
    dims.reserve(sym.dims.size());
    bool resolved = true;
    for (const auto& d : sym.dims) {
      try {
        dims.push_back(front::fold_int(*d, env_));
      } catch (const CompileError&) {
        resolved = false;
        break;
      }
    }
    if (resolved) se.dims = std::move(dims);
    extents_.push_back(std::move(se));
  }

  // --- resolve templates ---------------------------------------------------
  struct ResolvedTemplate {
    std::string name;
    std::vector<long long> extents;
    std::vector<DistKind> dist;   // per template dim; Collapsed by default
    std::vector<int> grid_dim;    // per template dim
  };
  std::vector<ResolvedTemplate> templates;
  for (const auto& t : directives.templates) {
    ResolvedTemplate rt;
    rt.name = t.name;
    for (const auto& e : t.extents) rt.extents.push_back(front::fold_int(*e, env_));
    rt.dist.assign(rt.extents.size(), DistKind::Collapsed);
    rt.grid_dim.assign(rt.extents.size(), -1);
    templates.push_back(std::move(rt));
    template_names_.push_back(t.name);
  }

  auto find_template = [&](std::string_view name) -> int {
    for (std::size_t i = 0; i < templates.size(); ++i) {
      if (templates[i].name == name) return static_cast<int>(i);
    }
    return -1;
  };

  // --- apply DISTRIBUTE to find distributed-dim count -----------------------
  int max_distributed_dims = 1;
  for (const auto& d : directives.distributes) {
    int count = 0;
    for (const auto k : d.pattern) {
      if (k != DistKind::Collapsed) ++count;
    }
    max_distributed_dims = std::max(max_distributed_dims, count);
  }

  // --- processor grid --------------------------------------------------------
  if (options.grid_shape) {
    grid_.shape = *options.grid_shape;
    if (grid_.total() != options.nprocs) {
      throw CompileError({}, "grid shape does not match processor count");
    }
  } else if (!directives.processors.empty()) {
    const auto& p = directives.processors.front();
    for (const auto& e : p.extents) {
      grid_.shape.push_back(static_cast<int>(front::fold_int(*e, env_)));
    }
    if (grid_.total() != options.nprocs) {
      // The PROCESSORS directive fixes the grid *rank*; the framework varies
      // the processor count per experiment, so refactor the same rank.
      grid_ = ProcGrid::factorized(options.nprocs, grid_.rank());
    }
  } else {
    grid_ = ProcGrid::factorized(options.nprocs, max_distributed_dims);
  }

  // --- apply DISTRIBUTE -------------------------------------------------------
  for (const auto& d : directives.distributes) {
    const int ti = find_template(d.target);
    if (ti < 0) {
      throw CompileError(d.loc, "DISTRIBUTE target '" + d.target +
                                    "' is not a declared TEMPLATE");
    }
    auto& rt = templates[static_cast<std::size_t>(ti)];
    if (d.pattern.size() != rt.extents.size()) {
      throw CompileError(d.loc, "DISTRIBUTE pattern rank mismatch for '" + d.target + "'");
    }
    int next_grid_dim = 0;
    for (std::size_t k = 0; k < d.pattern.size(); ++k) {
      rt.dist[k] = d.pattern[k];
      if (d.pattern[k] != DistKind::Collapsed) {
        if (next_grid_dim >= grid_.rank()) {
          throw CompileError(d.loc,
                             "more distributed dimensions than processor-grid rank");
        }
        rt.grid_dim[k] = next_grid_dim++;
      }
    }
  }

  // --- apply ALIGN: build per-array maps ---------------------------------------
  for (const auto& a : directives.aligns) {
    const int sym_id = symbols.find(a.array);
    if (sym_id < 0 || symbols.at(sym_id).kind != front::SymbolKind::Array) {
      throw CompileError(a.loc, "ALIGN of undeclared array '" + a.array + "'");
    }
    const front::Symbol& sym = symbols.at(sym_id);
    const int ti = find_template(a.target);
    if (ti < 0) {
      throw CompileError(a.loc, "ALIGN target '" + a.target + "' is not a TEMPLATE");
    }
    const auto& rt = templates[static_cast<std::size_t>(ti)];
    if (static_cast<int>(a.dummies.size()) != sym.rank()) {
      throw CompileError(a.loc, "ALIGN dummy count does not match rank of '" + a.array + "'");
    }
    if (a.target_subs.size() != rt.extents.size()) {
      throw CompileError(a.loc, "ALIGN target subscript count does not match template rank");
    }

    ArrayMap map;
    map.symbol = sym_id;
    map.name = a.array;
    map.template_id = ti;
    map.dims.resize(static_cast<std::size_t>(sym.rank()));
    for (std::size_t k = 0; k < map.dims.size(); ++k) {
      map.dims[k].extent = front::fold_int(*sym.dims[k], env_);
      map.dims[k].kind = DistKind::Collapsed;
    }
    // For each template dim subscripted by a dummy, connect the array dim.
    for (std::size_t td = 0; td < a.target_subs.size(); ++td) {
      const auto& ts = a.target_subs[td];
      if (ts.star || ts.dummy < 0) continue;
      auto& dd = map.dims[static_cast<std::size_t>(ts.dummy)];
      dd.kind = rt.dist[td];
      dd.grid_dim = rt.grid_dim[td];
      dd.align_offset = ts.offset;
      dd.tmpl_extent = rt.extents[td];
      if (dd.grid_dim >= 0) {
        dd.nprocs = grid_.shape[static_cast<std::size_t>(dd.grid_dim)];
      }
      if (dd.kind == DistKind::Block) {
        dd.block = (dd.tmpl_extent + dd.nprocs - 1) / dd.nprocs;
      }
    }
    maps_.push_back(std::move(map));
  }

  rebuild_derived_tables();
}

// Hot-path tables: per-processor grid coordinates (one allocation for the
// layout's lifetime instead of one per coords() call) and the symbol ->
// map index (map_for is asked per node visit). Also the deserialization
// tail: the serialized form carries only the primary state.
void DataLayout::rebuild_derived_tables() {
  const int total = grid_.total();
  const std::size_t rank = static_cast<std::size_t>(grid_.rank());
  coords_flat_.resize(static_cast<std::size_t>(total) * rank);
  for (int p = 0; p < total; ++p) {
    const std::vector<int> c = grid_.coords(p);
    std::copy(c.begin(), c.end(),
              coords_flat_.begin() + static_cast<std::size_t>(p) * rank);
  }
  std::size_t slots = extents_.size();
  for (const auto& m : maps_) {
    if (m.symbol >= 0) slots = std::max(slots, static_cast<std::size_t>(m.symbol) + 1);
  }
  map_index_.assign(slots, -1);
  for (std::size_t m = 0; m < maps_.size(); ++m) {
    map_index_.at(static_cast<std::size_t>(maps_[m].symbol)) = static_cast<int>(m);
  }
}

void DataLayout::add_alias(int temp_symbol, int like_symbol, std::string name) {
  const ArrayMap* base = map_for(like_symbol);
  if (base == nullptr) return;  // replicated source -> replicated temp
  ArrayMap copy = *base;
  copy.symbol = temp_symbol;
  copy.name = std::move(name);
  if (temp_symbol >= 0) {
    if (static_cast<std::size_t>(temp_symbol) >= map_index_.size()) {
      map_index_.resize(static_cast<std::size_t>(temp_symbol) + 1, -1);
    }
    map_index_[static_cast<std::size_t>(temp_symbol)] = static_cast<int>(maps_.size());
  }
  maps_.push_back(std::move(copy));
}

std::vector<long long> DataLayout::array_extents(int symbol) const {
  const SymbolExtents& se = extents_.at(static_cast<std::size_t>(symbol));
  if (!se.dims) {
    throw CompileError({}, "extents of '" + se.name +
                               "' are not resolvable in this configuration");
  }
  return *se.dims;
}

const std::vector<long long>* DataLayout::resolved_extents(int symbol) const noexcept {
  if (symbol < 0 || static_cast<std::size_t>(symbol) >= extents_.size()) return nullptr;
  const auto& dims = extents_[static_cast<std::size_t>(symbol)].dims;
  return dims ? &*dims : nullptr;
}

std::string DataLayout::ownership_picture(int symbol, int cell_rows, int cell_cols) const {
  const ArrayMap* map = map_for(symbol);
  std::ostringstream os;
  if (map == nullptr || map->rank() != 2) {
    os << "(replicated or non-2D)\n";
    return os.str();
  }
  const long long n1 = map->dims[0].extent;
  const long long n2 = map->dims[1].extent;
  for (int r = 0; r < cell_rows; ++r) {
    for (int c = 0; c < cell_cols; ++c) {
      const long long i = 1 + r * n1 / cell_rows;
      const long long j = 1 + c * n2 / cell_cols;
      const long long idx[2] = {i, j};
      os << " P" << map->owner(grid_, idx) + 1;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace hpf90d::compiler
