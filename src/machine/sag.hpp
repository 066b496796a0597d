// sag.hpp — the System Abstraction Graph (paper §3.1): a rooted tree of
// SAUs produced by hierarchically decomposing the HPC system. For the
// iPSC/860 the decomposition is
//
//     system ── SRM host
//            └─ i860 cube ── node 0..P-1
//
// Nodes are homogeneous, so the cube SAU carries the node parameters; the
// graph structure is kept (rather than a flat parameter set) because the
// paper's methodology is explicitly hierarchical: reports render it
// (str()), and machine models pick their node unit out of it.
#pragma once

#include <string>
#include <vector>

#include "machine/sau.hpp"

namespace hpf90d::machine {

class SystemAbstractionGraph {
 public:
  /// Adds a SAU; parent = -1 for the root. Returns the unit's index.
  int add_unit(SAU sau, int parent);

  /// Replaces the SAU at `index`, keeping its place in the hierarchy (used
  /// by parameterized abstractions that derive from a calibrated SAG).
  void replace_unit(int index, SAU sau);

  [[nodiscard]] const SAU& unit(int index) const { return units_.at(static_cast<std::size_t>(index)).sau; }
  [[nodiscard]] std::size_t size() const noexcept { return units_.size(); }

  /// Renders the decomposition for reports.
  [[nodiscard]] std::string str() const;

 private:
  struct Entry {
    SAU sau;
    int parent = -1;
  };
  std::vector<Entry> units_;
};

/// A fully configured abstract machine: the SAG plus the role the
/// framework needs resolved (which SAU describes a compute node) and the
/// machine size.
struct MachineModel {
  SystemAbstractionGraph sag;
  int node_unit = -1;  // SAU index of a compute node
  int max_nodes = 0;   // cube size

  [[nodiscard]] const SAU& node() const { return sag.unit(node_unit); }
};

}  // namespace hpf90d::machine
