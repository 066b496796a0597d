#include "machine/cluster.hpp"

namespace hpf90d::machine {

namespace {

ProcessingComponent sparc_processing() {
  // ~60 MHz superscalar workstation node: faster per-op than the i860's
  // compiled Fortran, cheaper structural overheads.
  ProcessingComponent p;
  const double cycle = 16.7e-9;
  p.t_fadd = 2.0 * cycle;
  p.t_fmul = 2.5 * cycle;
  p.t_fdiv = 24.0 * cycle;
  p.t_fpow = 140.0 * cycle;
  p.t_iop = 1.0 * cycle;
  p.t_load = 1.5 * cycle;
  p.t_store = 1.5 * cycle;
  p.loop_overhead = 3.0 * cycle;
  p.loop_setup = 16.0 * cycle;
  p.branch_overhead = 4.0 * cycle;
  using enum front::IntrinsicId;
  p.price_intrinsics({{Exp, 90.0 * cycle}, {Log, 100.0 * cycle}, {Sqrt, 45.0 * cycle},
                      {Sin, 110.0 * cycle}, {Cos, 110.0 * cycle}, {Atan, 130.0 * cycle},
                      {Mod, 10.0 * cycle}});
  return p;
}

MemoryComponent sparc_memory() {
  MemoryComponent m;
  m.dcache_bytes = 256 * 1024;  // large unified external cache
  m.icache_bytes = 20 * 1024;
  m.main_memory_bytes = 64LL * 1024 * 1024;
  m.line_bytes = 32;
  m.miss_penalty = 380e-9;
  m.mem_bandwidth = 90e6;
  return m;
}

CommComponent ethernet_comm() {
  // UDP/TCP-over-Ethernet message passing (PVM-class): ~1.5 ms software
  // latency, ~1 MB/s effective shared bandwidth, flat topology.
  CommComponent c;
  c.latency_short = 1.5e-3;
  c.latency_long = 1.9e-3;
  c.short_threshold = 512;
  c.per_byte = 1.0e-6;
  c.per_hop = 0.0;  // single shared segment
  c.pack_per_byte = 0.03e-6;
  c.pack_strided_factor = 2.0;
  c.coll_stage_setup = 200e-6;
  c.per_element_index = 0.6e-6;
  return c;
}

}  // namespace

MachineModel make_cluster(int nodes) {
  MachineModel model;
  model.max_nodes = nodes;

  SAU system;
  system.name = "workstation cluster";
  const int root = model.sag.add_unit(system, -1);

  SAU host;
  host.name = "file server";
  host.io.host_latency = 8e-3;
  host.io.host_per_byte = 1.2e-6;
  model.host_unit = model.sag.add_unit(host, root);

  SAU lan;
  lan.name = "ethernet segment";
  lan.comm = ethernet_comm();
  const int lan_id = model.sag.add_unit(lan, root);

  SAU node;
  node.name = "sparc workstation";
  node.proc = sparc_processing();
  node.mem = sparc_memory();
  node.comm = ethernet_comm();
  node.io = host.io;
  model.node_unit = model.sag.add_unit(node, lan_id);

  return model;
}

}  // namespace hpf90d::machine
