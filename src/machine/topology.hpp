// topology.hpp — the iPSC/860 hypercube interconnect.
//
// Processor-grid coordinates are embedded into the cube with (binary
// reflected) Gray codes so that grid neighbours are cube neighbours, and
// messages follow e-cube (dimension-ordered) routes. The simulator models
// per-link occupancy along these routes; the interpretation engine only
// needs hop counts.
#pragma once

#include <span>
#include <vector>

namespace hpf90d::machine {

/// Binary reflected Gray code of `i`.
[[nodiscard]] constexpr unsigned gray_code(unsigned i) noexcept { return i ^ (i >> 1); }

class Hypercube {
 public:
  /// `nodes` must be a power of two (iPSC cubes are).
  explicit Hypercube(int nodes);

  [[nodiscard]] int nodes() const noexcept { return nodes_; }
  [[nodiscard]] int dimension() const noexcept { return dim_; }

  /// Maps a row-major linear processor-grid id onto a physical cube node.
  /// For 2-D grids (r x c, both powers of two) the mapping is
  /// gray(row) concatenated with gray(col); 1-D grids use gray(p).
  [[nodiscard]] int grid_to_node(int linear_id, std::span<const int> grid_shape) const;

  /// Hamming distance between two physical node ids (= e-cube hop count).
  [[nodiscard]] static int hops(int a, int b) noexcept;

  /// e-cube route: the ordered list of nodes visited from `a` to `b`
  /// (inclusive of both endpoints), correcting dimensions lowest first.
  [[nodiscard]] std::vector<int> route(int a, int b) const;

  /// The node after `at` on the e-cube route to `to` (at != to): the
  /// lowest differing address bit corrected.
  [[nodiscard]] static int next_hop(int at, int to) noexcept;

  /// Directed link index for the hop `from` -> `to` (differ in one bit);
  /// used by the simulator's link-occupancy table.
  [[nodiscard]] int link_index(int from, int to) const;
  [[nodiscard]] int link_count() const noexcept { return nodes_ * dim_; }

 private:
  int nodes_;
  int dim_;
};

}  // namespace hpf90d::machine
