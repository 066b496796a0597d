#include "machine/topology.hpp"

#include <bit>
#include <stdexcept>

namespace hpf90d::machine {

Hypercube::Hypercube(int nodes) : nodes_(nodes) {
  if (nodes <= 0 || (nodes & (nodes - 1)) != 0) {
    throw std::invalid_argument("hypercube size must be a power of two");
  }
  dim_ = std::countr_zero(static_cast<unsigned>(nodes));
}

int Hypercube::grid_to_node(int linear_id, std::span<const int> grid_shape) const {
  if (grid_shape.size() <= 1) {
    return static_cast<int>(gray_code(static_cast<unsigned>(linear_id)));
  }
  // row-major: id = r * cols + c
  const int cols = grid_shape[1];
  const int r = linear_id / cols;
  const int c = linear_id % cols;
  int col_bits = 0;
  while ((1 << col_bits) < cols) ++col_bits;
  const unsigned node = (gray_code(static_cast<unsigned>(r)) << col_bits) |
                        gray_code(static_cast<unsigned>(c));
  return static_cast<int>(node);
}

int Hypercube::hops(int a, int b) noexcept {
  return std::popcount(static_cast<unsigned>(a ^ b));
}

std::vector<int> Hypercube::route(int a, int b) const {
  std::vector<int> path{a};
  for (int cur = a; cur != b;) path.push_back(cur = next_hop(cur, b));
  return path;
}

int Hypercube::next_hop(int at, int to) noexcept {
  return at ^ (1 << std::countr_zero(static_cast<unsigned>(at ^ to)));
}

int Hypercube::link_index(int from, int to) const {
  const unsigned diff = static_cast<unsigned>(from ^ to);
  const int d = std::countr_zero(diff);
  return from * dim_ + d;
}

}  // namespace hpf90d::machine
