#include "sim/network.hpp"

#include <algorithm>
#include <bit>

namespace hpf90d::sim {

namespace {
int pow2_at_least(int n) {
  int p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

SimNetwork::SimNetwork(int nprocs, std::span<const int> grid_shape,
                       const machine::CommComponent& comm, SimNetworkOptions options)
    : cube_(pow2_at_least(nprocs)), comm_(comm), options_(options) {
  proc_to_node_.resize(static_cast<std::size_t>(nprocs));
  for (int p = 0; p < nprocs; ++p) {
    proc_to_node_[static_cast<std::size_t>(p)] = cube_.grid_to_node(p, grid_shape);
  }
  link_free_.assign(static_cast<std::size_t>(cube_.link_count()), 0.0);
}

void SimNetwork::reset() {
  std::fill(link_free_.begin(), link_free_.end(), 0.0);
}

int SimNetwork::hops_between(int from, int to) const {
  return machine::Hypercube::hops(proc_to_node_[static_cast<std::size_t>(from)],
                                  proc_to_node_[static_cast<std::size_t>(to)]);
}

double SimNetwork::send(int from, int to, long long bytes, double depart,
                        NoiseModel& noise) {
  const int a = proc_to_node_[static_cast<std::size_t>(from)];
  const int b = proc_to_node_[static_cast<std::size_t>(to)];
  if (a == b) return depart;  // same node: no wire time

  const double setup =
      bytes <= comm_.short_threshold ? comm_.latency_short : comm_.latency_long;
  const double wire = comm_.per_byte * static_cast<double>(bytes) * noise.comm_factor();

  // Circuit-switched DCM routing: the header establishes the path hop by
  // hop (waiting for each link), then the payload streams through. Each
  // link on the path is held for the payload duration. The path is the
  // e-cube route, walked hop by hop.
  double t = depart + setup;
  for (int node = a, next = 0; node != b; node = next) {
    next = machine::Hypercube::next_hop(node, b);
    if (options_.contention) {
      t = std::max(t, link_free_[static_cast<std::size_t>(cube_.link_index(node, next))]);
    }
    if (node != a) t += comm_.per_hop;
  }
  const double arrival = t + wire;
  if (options_.contention) {
    for (int node = a, next = 0; node != b; node = next) {
      next = machine::Hypercube::next_hop(node, b);
      link_free_[static_cast<std::size_t>(cube_.link_index(node, next))] = arrival;
    }
  }
  return arrival;
}

}  // namespace hpf90d::sim
