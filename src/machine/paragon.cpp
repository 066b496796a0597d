#include "machine/paragon.hpp"

namespace hpf90d::machine {

namespace {

ProcessingComponent i860xp_processing() {
  // 50 MHz => 20 ns cycle. The XP core keeps the XR's pipeline structure,
  // so compiled-Fortran per-operation cycle counts track the iPSC/860
  // numbers with slightly better load/branch behaviour from the larger
  // caches and improved pairing.
  ProcessingComponent p;
  const double cycle = 20e-9;
  p.t_fadd = 3.0 * cycle;
  p.t_fmul = 3.5 * cycle;
  p.t_fdiv = 36.0 * cycle;
  p.t_fpow = 150.0 * cycle;
  p.t_iop = 1.1 * cycle;
  p.t_load = 1.8 * cycle;
  p.t_store = 1.8 * cycle;
  p.loop_overhead = 3.5 * cycle;
  p.loop_setup = 20.0 * cycle;
  p.branch_overhead = 4.0 * cycle;
  using enum front::IntrinsicId;
  p.price_intrinsics({{Exp, 110.0 * cycle}, {Log, 120.0 * cycle}, {Sqrt, 55.0 * cycle},
                      {Sin, 130.0 * cycle}, {Cos, 130.0 * cycle}, {Atan, 150.0 * cycle},
                      {Mod, 12.0 * cycle}});
  return p;
}

MemoryComponent i860xp_memory() {
  MemoryComponent m;
  m.dcache_bytes = 16 * 1024;  // XP doubles the XR's on-chip caches
  m.icache_bytes = 16 * 1024;
  m.main_memory_bytes = 32LL * 1024 * 1024;
  m.line_bytes = 32;
  m.miss_penalty = 350e-9;  // faster DRAM path than the XR node board
  m.mem_bandwidth = 120e6;
  return m;
}

CommComponent paragon_comm() {
  // OSF/1 NX message passing over the 2-D wormhole mesh: ~72 us software
  // latency for short messages, ~110 us setup for long ones, ~90 MB/s
  // sustained user-level bandwidth (the 200 MB/s links are OS-limited),
  // and sub-microsecond per-hop routing — latency is software-, not
  // distance-, dominated, the opposite regime from the cube.
  CommComponent c;
  c.latency_short = 72e-6;
  c.latency_long = 110e-6;
  c.short_threshold = 128;
  c.per_byte = 0.011e-6;
  c.per_hop = 0.4e-6;
  c.pack_per_byte = 0.03e-6;
  c.pack_strided_factor = 2.2;
  c.coll_stage_setup = 10e-6;
  c.per_element_index = 0.7e-6;
  return c;
}

IOComponent service_io() {
  IOComponent io;
  io.host_latency = 1.2e-3;  // service-partition request round trip
  io.host_per_byte = 0.5e-6;
  return io;
}

}  // namespace

MachineModel make_paragon(int nodes) {
  MachineModel model;
  model.max_nodes = nodes;

  SAU system;
  system.name = "Paragon XP/S system";
  const int root = model.sag.add_unit(system, -1);

  SAU host;
  host.name = "service partition";
  host.io = service_io();
  model.sag.add_unit(host, root);

  SAU mesh;
  mesh.name = "wormhole mesh";
  mesh.comm = paragon_comm();
  const int mesh_id = model.sag.add_unit(mesh, root);

  SAU node;
  node.name = "i860 XP node";
  node.proc = i860xp_processing();
  node.mem = i860xp_memory();
  node.comm = paragon_comm();
  node.io = service_io();
  model.node_unit = model.sag.add_unit(node, mesh_id);

  return model;
}

}  // namespace hpf90d::machine
