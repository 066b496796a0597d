// network.hpp — event-driven hypercube network.
//
// Messages follow e-cube routes; every directed link has an availability
// time, so concurrent traffic through shared links queues (contention) —
// one of the second-order effects the interpretation engine's contention-
// free formulas abstract away.
#pragma once

#include <vector>

#include "machine/comm_model.hpp"
#include "machine/topology.hpp"
#include "sim/noise.hpp"

namespace hpf90d::sim {

struct SimNetworkOptions {
  bool contention = true;
};

class SimNetwork {
 public:
  SimNetwork(int nprocs, std::span<const int> grid_shape,
             const machine::CommComponent& comm, SimNetworkOptions options);

  /// Sends `bytes` from grid-linear processor `from` at time `depart`;
  /// returns arrival time at `to`. Updates link occupancy.
  double send(int from, int to, long long bytes, double depart, NoiseModel& noise);

  void reset();

 private:
  machine::Hypercube cube_;
  machine::CommComponent comm_;
  std::vector<int> proc_to_node_;   // grid-linear id -> physical cube node
  std::vector<double> link_free_;   // directed link -> next availability
  SimNetworkOptions options_;
};

}  // namespace hpf90d::sim
