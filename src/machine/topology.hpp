// topology.hpp — the iPSC/860 hypercube interconnect.
//
// Processor-grid coordinates are embedded into the cube with (binary
// reflected) Gray codes so that grid neighbours are cube neighbours, and
// messages follow e-cube (dimension-ordered) routes. The simulator models
// per-link occupancy along these routes.
#pragma once

#include <span>

namespace hpf90d::machine {

/// Binary reflected Gray code of `i`.
[[nodiscard]] constexpr unsigned gray_code(unsigned i) noexcept { return i ^ (i >> 1); }

class Hypercube {
 public:
  /// `nodes` must be a power of two (iPSC cubes are).
  explicit Hypercube(int nodes);

  /// Maps a row-major linear processor-grid id onto a physical cube node.
  /// For 2-D grids (r x c, both powers of two) the mapping is
  /// gray(row) concatenated with gray(col); 1-D grids use gray(p).
  [[nodiscard]] int grid_to_node(int linear_id, std::span<const int> grid_shape) const;

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
