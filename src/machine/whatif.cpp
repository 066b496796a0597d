#include "machine/whatif.hpp"

#include <stdexcept>

#include "machine/ipsc860.hpp"

namespace hpf90d::machine {

namespace {

void scale_comm(CommComponent& c, const WhatIfParams& p) {
  c.latency_short *= p.latency_scale;
  c.latency_long *= p.latency_scale;
  c.per_hop *= p.latency_scale;
  c.coll_stage_setup *= p.latency_scale;
  c.per_byte /= p.bandwidth_scale;
  c.pack_per_byte /= p.bandwidth_scale;
  c.per_element_index /= p.bandwidth_scale;
}

void scale_proc(ProcessingComponent& pc, const WhatIfParams& p) {
  pc.t_fadd /= p.cpu_scale;
  pc.t_fmul /= p.cpu_scale;
  pc.t_fdiv /= p.cpu_scale;
  pc.t_fpow /= p.cpu_scale;
  pc.t_iop /= p.cpu_scale;
  pc.t_load /= p.cpu_scale;
  pc.t_store /= p.cpu_scale;
  pc.loop_overhead /= p.cpu_scale;
  pc.loop_setup /= p.cpu_scale;
  pc.branch_overhead /= p.cpu_scale;
  for (double& cost : pc.intrinsic_cost) cost /= p.cpu_scale;
}

}  // namespace

MachineModel apply_whatif(MachineModel base, const WhatIfParams& params) {
  if (params.latency_scale <= 0 || params.bandwidth_scale <= 0 ||
      params.cpu_scale <= 0) {
    throw std::invalid_argument("whatif machine scales must be > 0");
  }
  // The SAG is a value tree: rewrite the parameters of every SAU in place.
  // (Interconnect and node SAUs both carry comm parameters; the node SAU
  // carries the processing component.)
  for (std::size_t u = 0; u < base.sag.size(); ++u) {
    SAU sau = base.sag.unit(static_cast<int>(u));
    scale_comm(sau.comm, params);
    scale_proc(sau.proc, params);
    base.sag.replace_unit(static_cast<int>(u), std::move(sau));
  }
  return base;
}

MachineModel make_whatif(int nodes, const WhatIfParams& params) {
  MachineModel model = apply_whatif(make_ipsc860(nodes), params);
  SAU root = model.sag.unit(0);
  root.name = "what-if system (iPSC/860-derived)";
  model.sag.replace_unit(0, std::move(root));
  return model;
}

}  // namespace hpf90d::machine
