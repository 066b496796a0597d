#include "machine/fattree.hpp"

#include <cmath>
#include <stdexcept>

#include "support/text.hpp"

namespace hpf90d::machine {

namespace {

ProcessingComponent risc_processing() {
  // ~100 MHz superscalar RISC workstation node: per-op costs below the
  // cluster's 60 MHz SPARC, with the same structural-overhead shape.
  ProcessingComponent p;
  const double cycle = 10e-9;
  p.t_fadd = 2.0 * cycle;
  p.t_fmul = 2.0 * cycle;
  p.t_fdiv = 20.0 * cycle;
  p.t_fpow = 120.0 * cycle;
  p.t_iop = 1.0 * cycle;
  p.t_load = 1.5 * cycle;
  p.t_store = 1.5 * cycle;
  p.loop_overhead = 2.5 * cycle;
  p.loop_setup = 14.0 * cycle;
  p.branch_overhead = 3.0 * cycle;
  using enum front::IntrinsicId;
  p.price_intrinsics({{Exp, 80.0 * cycle}, {Log, 90.0 * cycle}, {Sqrt, 40.0 * cycle},
                      {Sin, 100.0 * cycle}, {Cos, 100.0 * cycle}, {Atan, 120.0 * cycle},
                      {Mod, 8.0 * cycle}});
  return p;
}

MemoryComponent risc_memory() {
  MemoryComponent m;
  m.dcache_bytes = 512 * 1024;  // large external unified cache
  m.icache_bytes = 32 * 1024;
  m.main_memory_bytes = 128LL * 1024 * 1024;
  m.line_bytes = 64;
  m.miss_penalty = 300e-9;
  m.mem_bandwidth = 150e6;
  return m;
}

CommComponent fattree_comm(int nodes, const FatTreeParams& params) {
  const int tiers = fattree_tiers(nodes, params.radix);
  const double factor = fattree_bisection_factor(nodes, params);
  // A message crosses up to `tiers` switches up and `tiers` down; the
  // traversal time rides on the setup cost, and residual distance
  // sensitivity is carried by per_hop (one switch per extra hop).
  CommComponent c;
  c.latency_short = 120e-6 + 2.0 * tiers * params.switch_delay;
  c.latency_long = 180e-6 + 2.0 * tiers * params.switch_delay;
  c.short_threshold = 256;
  c.per_byte = factor / params.link_bandwidth;
  c.per_hop = params.switch_delay;
  c.pack_per_byte = 0.02e-6;
  c.pack_strided_factor = 2.0;
  c.coll_stage_setup = 30e-6;
  c.per_element_index = 0.5e-6;
  return c;
}

}  // namespace

int fattree_tiers(int nodes, int radix) {
  if (nodes < 1) throw std::invalid_argument("fat tree needs >= 1 node");
  if (radix < 2) throw std::invalid_argument("fat tree switch radix must be >= 2");
  int tiers = 1;
  long long reach = radix;  // nodes reachable from one tier-`tiers` subtree
  while (reach < nodes) {
    reach *= radix;
    ++tiers;
  }
  return tiers;
}

double fattree_bisection_factor(int nodes, const FatTreeParams& params) {
  if (params.taper < 1.0) {
    throw std::invalid_argument("fat tree taper must be >= 1 (1 = full bisection)");
  }
  const int tiers = fattree_tiers(nodes, params.radix);
  return std::pow(params.taper, tiers - 1);
}

MachineModel make_fattree(int nodes, const FatTreeParams& params) {
  if (params.link_bandwidth <= 0 || params.switch_delay < 0) {
    throw std::invalid_argument("fat tree link parameters must be positive");
  }
  const int tiers = fattree_tiers(nodes, params.radix);
  const CommComponent comm = fattree_comm(nodes, params);

  MachineModel model;
  model.max_nodes = nodes;

  SAU system;
  system.name = "fat-tree cluster";
  const int root = model.sag.add_unit(system, -1);

  SAU host;
  host.name = "front-end server";
  host.io.host_latency = 2e-3;
  host.io.host_per_byte = 0.8e-6;
  model.host_unit = model.sag.add_unit(host, root);

  // Switch tiers from the spine down to the leaves: the decomposition keeps
  // one SAU per tier so per-unit queries see the fabric's hierarchy.
  int parent = root;
  for (int tier = tiers; tier >= 1; --tier) {
    SAU sw;
    sw.name = tier == tiers
                  ? "spine switch tier"
                  : (tier == 1 ? "leaf switch tier"
                               : support::strfmt("switch tier %d", tier));
    sw.comm = comm;
    parent = model.sag.add_unit(sw, parent);
  }
  // A single-tier tree's one switch tier is both spine and leaf; make sure
  // the leaf name exists for structural queries either way.
  if (tiers == 1) {
    SAU leaf = model.sag.unit(parent);
    leaf.name = "leaf switch tier";
    model.sag.replace_unit(parent, std::move(leaf));
  }

  SAU node;
  node.name = "risc workstation";
  node.proc = risc_processing();
  node.mem = risc_memory();
  node.comm = comm;
  node.io = host.io;
  model.node_unit = model.sag.add_unit(node, parent);

  return model;
}

}  // namespace hpf90d::machine
