// mapping.hpp — resolution of the HPF two-level data mapping.
//
// HPF maps data objects to abstract processors in two steps (paper §2):
// array elements are ALIGNed with a TEMPLATE, and the template is
// DISTRIBUTEd (BLOCK / CYCLIC / collapsed `*`) onto a rectilinear processor
// arrangement. This module resolves the directive set against concrete
// extents (PARAMETERs + user bindings) and a processor-grid shape, yielding
// ownership and local-extent queries that the partitioner, the
// interpretation engine, and the simulator all share.
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "hpf/ast.hpp"
#include "hpf/directives.hpp"
#include "hpf/fold.hpp"
#include "hpf/sema.hpp"

namespace hpf90d::compiler {

/// Shape of the abstract processor arrangement (1-D or 2-D in the subset).
struct ProcGrid {
  std::vector<int> shape;

  [[nodiscard]] int rank() const noexcept { return static_cast<int>(shape.size()); }
  [[nodiscard]] int total() const noexcept {
    int t = 1;
    for (int s : shape) t *= s;
    return t;
  }
  /// Row-major linearization of grid coordinates.
  [[nodiscard]] int linear(std::span<const int> coords) const;
  [[nodiscard]] std::vector<int> coords(int linear_id) const;

  /// Near-square factorization of `nprocs` into `rank` grid dimensions,
  /// e.g. 4 -> 2x2, 8 -> 2x4 (matches the paper's Laplace grids).
  [[nodiscard]] static ProcGrid factorized(int nprocs, int rank);
};

/// Resolved distribution of one array dimension.
struct DimDist {
  front::DistKind kind = front::DistKind::Collapsed;
  int grid_dim = -1;          // processor-grid axis; -1 when collapsed
  int nprocs = 1;             // grid extent along grid_dim
  long long extent = 0;       // array extent in this dimension
  long long align_offset = 0; // template index = array index + align_offset
  long long tmpl_extent = 0;  // extent of the aligned template dimension
  long long block = 0;        // block size (BLOCK) = ceil(tmpl_extent/nprocs)

  /// Grid coordinate owning global (1-based) array index `g`.
  [[nodiscard]] int owner_coord(long long g) const;
  /// Number of elements of [1..extent] owned by grid coordinate `c`.
  [[nodiscard]] long long local_count(int c) const;
  /// Contiguous owned global-index range for BLOCK (empty when none);
  /// for CYCLIC returns the full span (ownership is strided).
  struct Range {
    long long lo = 1, hi = 0;
    [[nodiscard]] long long count() const noexcept { return hi >= lo ? hi - lo + 1 : 0; }
  };
  // Defined inline below: owned_range/local_count sit on the interpretation
  // engine's per-processor pricing loop (millions of calls per warm sweep),
  // where the cross-TU call cost is measurable.
  [[nodiscard]] Range owned_range(int c) const;
};

inline DimDist::Range DimDist::owned_range(int c) const {
  Range r;
  if (kind == front::DistKind::Collapsed || nprocs <= 1) {
    r.lo = 1;
    r.hi = extent;
    return r;
  }
  if (kind == front::DistKind::Block) {
    const long long t_lo = static_cast<long long>(c) * block + 1;
    const long long t_hi = std::min<long long>(t_lo + block - 1, tmpl_extent);
    r.lo = std::max<long long>(1, t_lo - align_offset);
    r.hi = std::min<long long>(extent, t_hi - align_offset);
    return r;
  }
  // cyclic ownership is strided; report the whole dimension as the span
  r.lo = 1;
  r.hi = extent;
  return r;
}

inline long long DimDist::local_count(int c) const {
  if (kind == front::DistKind::Collapsed || nprocs <= 1) return extent;
  if (kind == front::DistKind::Block) {
    return owned_range(c).count();
  }
  // cyclic: template indices t with (t-1) % nprocs == c intersected with
  // the aligned image [1+off, extent+off]
  long long count = 0;
  const long long t_lo = 1 + align_offset;
  const long long t_hi = extent + align_offset;
  // first t >= t_lo with (t-1) % nprocs == c
  long long first = ((c + 1 - t_lo) % nprocs + nprocs) % nprocs + t_lo;
  if (first <= t_hi) count = (t_hi - first) / nprocs + 1;
  return count;
}

/// Complete resolved mapping of one distributed array (or the note that it
/// is replicated).
struct ArrayMap {
  int symbol = -1;
  std::string name;
  int template_id = -1;  // index into DataLayout::template_names()
  std::vector<DimDist> dims;

  [[nodiscard]] int rank() const noexcept { return static_cast<int>(dims.size()); }
  /// Total element count.
  [[nodiscard]] long long total_elements() const noexcept {
    long long t = 1;
    for (const auto& d : dims) t *= d.extent;
    return t;
  }
  /// Elements owned by linear processor `p` under `grid`.
  [[nodiscard]] long long local_elements(const ProcGrid& grid, int p) const;
  /// Linear owner of a (1-based) global index vector.
  [[nodiscard]] int owner(const ProcGrid& grid, std::span<const long long> index) const;
};

/// Options controlling layout resolution.
struct LayoutOptions {
  int nprocs = 1;
  /// Overrides the PROCESSORS directive / default factorization, e.g. to
  /// force a 2x2 grid at 4 processors.
  std::optional<std::vector<int>> grid_shape;
};

class DataLayout;

/// Serializes a layout into the versioned text form consumed by
/// deserialize_layout (see compiler/serialize.hpp). Declared here because
/// both need access to the layout's internals.
[[nodiscard]] std::string serialize_layout(const DataLayout& layout);

/// Rebuilds a layout from serialize_layout output. Hot-path tables
/// (processor coordinates, symbol->map index) are recomputed, not stored.
/// Throws std::invalid_argument on malformed or version-mismatched input.
[[nodiscard]] DataLayout deserialize_layout(std::string_view text);

/// Resolved mapping for every distributed array in a program.
///
/// A DataLayout is self-contained: construction snapshots everything it
/// needs from the symbol table (resolved array extents), so a layout stays
/// valid after the program it was built from is destroyed. That is what
/// lets the session cache layouts by *content* (structural fingerprint)
/// rather than by program identity, and lets cached entries survive
/// program eviction — and what makes the serialized form below a complete
/// artifact: a deserialized layout answers every query the original did.
class DataLayout {
 public:
  DataLayout(const front::DirectiveSet& directives, const front::SymbolTable& symbols,
             const front::Bindings& env, const LayoutOptions& options);

  [[nodiscard]] const ProcGrid& grid() const noexcept { return grid_; }
  [[nodiscard]] int nprocs() const noexcept { return grid_.total(); }

  /// Grid coordinates of linear processor `p`, precomputed at layout
  /// construction. The hot-path replacement for grid().coords(p), which
  /// allocates a vector per call — the interpretation engine and the
  /// simulator ask for coordinates once per (processor, node) visit.
  [[nodiscard]] std::span<const int> proc_coords(int p) const noexcept {
    const std::size_t rank = static_cast<std::size_t>(grid_.rank());
    return {coords_flat_.data() + static_cast<std::size_t>(p) * rank, rank};
  }

  /// Mapping for a symbol; nullptr when the symbol is replicated (scalars,
  /// arrays without directives). O(1): indexed by symbol id. Inline: the
  /// engine asks per node visit, millions of times per warm sweep.
  [[nodiscard]] const ArrayMap* map_for(int symbol) const noexcept {
    if (symbol < 0 || static_cast<std::size_t>(symbol) >= map_index_.size()) return nullptr;
    const int m = map_index_[static_cast<std::size_t>(symbol)];
    return m < 0 ? nullptr : &maps_[static_cast<std::size_t>(m)];
  }

  /// Registers `temp_symbol` with the same mapping as `like_symbol`
  /// (used for compiler-introduced shift temporaries).
  void add_alias(int temp_symbol, int like_symbol, std::string name);


  /// Resolved extents (from declarations) for any array symbol, mapped or
  /// not; used by the simulator's storage allocator. Throws
  /// support::CompileError when the symbol's extents did not resolve under
  /// this configuration's bindings.
  [[nodiscard]] std::vector<long long> array_extents(int symbol) const;
  /// The same extents, or nullptr where array_extents would throw.
  [[nodiscard]] const std::vector<long long>* resolved_extents(int symbol) const noexcept;

  /// Renders an ownership picture of a 2-D array for documentation and the
  /// Fig 3 bench (`P 1`..`P n` cells).
  [[nodiscard]] std::string ownership_picture(int symbol, int cell_rows = 8,
                                              int cell_cols = 8) const;

 private:
  /// Deserialization shell: fields are filled by deserialize_layout, which
  /// then recomputes the derived tables.
  DataLayout() = default;
  friend std::string serialize_layout(const DataLayout& layout);
  friend DataLayout deserialize_layout(std::string_view text);

  /// Recomputes coords_flat_ and map_index_ from grid_/maps_/extents_
  /// (shared by the constructor tail and deserialization).
  void rebuild_derived_tables();

  /// Per-symbol extent snapshot (index = symbol id). `dims` is nullopt when
  /// the declaration's extent expressions were not resolvable against this
  /// configuration's environment.
  struct SymbolExtents {
    std::string name;
    std::optional<std::vector<long long>> dims;
  };

  front::Bindings env_;
  ProcGrid grid_;
  std::vector<ArrayMap> maps_;
  std::vector<std::string> template_names_;
  std::vector<SymbolExtents> extents_;
  std::vector<int> coords_flat_;  // nprocs x rank, row per processor
  std::vector<int> map_index_;    // symbol id -> index into maps_ (-1 = replicated)
};

}  // namespace hpf90d::compiler
