#include "machine/ipsc860.hpp"

namespace hpf90d::machine {

namespace {

ProcessingComponent i860_processing() {
  // 40 MHz => 25 ns cycle. Theoretical peak is 80/40 MFlop/s (SP/DP), but
  // compiled Fortran 77 sustains a few MFlop/s; the per-operation costs
  // below reflect compiled code with its load/store and pipeline stalls.
  ProcessingComponent p;
  const double cycle = 25e-9;
  p.t_fadd = 3.0 * cycle;
  p.t_fmul = 4.0 * cycle;
  p.t_fdiv = 38.0 * cycle;   // software-pipelined reciprocal refinement
  p.t_fpow = 160.0 * cycle;  // pow = exp(log) through libm
  p.t_iop = 1.2 * cycle;
  p.t_load = 2.0 * cycle;    // D-cache hit
  p.t_store = 2.0 * cycle;
  p.loop_overhead = 4.0 * cycle;   // decrement/compare/branch + induction
  p.loop_setup = 22.0 * cycle;     // prologue from instruction counts
  p.branch_overhead = 5.0 * cycle;
  using enum front::IntrinsicId;
  p.price_intrinsics({{Exp, 120.0 * cycle}, {Log, 130.0 * cycle}, {Sqrt, 60.0 * cycle},
                      {Sin, 140.0 * cycle}, {Cos, 140.0 * cycle}, {Atan, 160.0 * cycle},
                      {Mod, 14.0 * cycle}});
  return p;
}

MemoryComponent i860_memory() {
  MemoryComponent m;
  m.dcache_bytes = 8 * 1024;
  m.icache_bytes = 4 * 1024;
  m.main_memory_bytes = 8LL * 1024 * 1024;
  m.line_bytes = 32;
  m.miss_penalty = 430e-9;  // line fill from DRAM
  m.mem_bandwidth = 80e6;
  return m;
}

CommComponent ipsc_comm() {
  // Published iPSC/860 message-passing characteristics: ~75 us latency for
  // short (<=100 byte) messages, ~136 us setup for long ones, sustained
  // ~2.8 MB/s per channel, ~11 us per extra hop (circuit establishment),
  // parameterized here exactly as the off-line benchmarking runs would.
  CommComponent c;
  c.latency_short = 75e-6;
  c.latency_long = 136e-6;
  c.short_threshold = 100;
  c.per_byte = 0.36e-6;
  c.per_hop = 11e-6;
  c.pack_per_byte = 0.045e-6;
  c.pack_strided_factor = 2.4;
  c.coll_stage_setup = 14e-6;     // collective library per-stage bookkeeping
  c.per_element_index = 0.95e-6;  // irregular comm index translation
  return c;
}

IOComponent srm_io() {
  IOComponent io;
  io.host_latency = 1.8e-3;   // SRM service request round trip
  io.host_per_byte = 1.1e-6;  // slow host channel
  return io;
}

}  // namespace

MachineModel make_ipsc860(int nodes) {
  MachineModel model;
  model.max_nodes = nodes;

  SAU system;
  system.name = "iPSC/860 system";
  const int root = model.sag.add_unit(system, -1);

  SAU host;
  host.name = "SRM host (80386)";
  host.io = srm_io();
  model.sag.add_unit(host, root);

  SAU cube;
  cube.name = "i860 cube";
  cube.comm = ipsc_comm();
  const int cube_id = model.sag.add_unit(cube, root);

  SAU node;
  node.name = "i860 node";
  node.proc = i860_processing();
  node.mem = i860_memory();
  node.comm = ipsc_comm();
  node.io = srm_io();
  model.node_unit = model.sag.add_unit(node, cube_id);

  return model;
}

}  // namespace hpf90d::machine
