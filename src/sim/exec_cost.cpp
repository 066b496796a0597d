#include "sim/exec_cost.hpp"

#include <algorithm>
#include <cmath>

namespace hpf90d::sim {

namespace {

/// Raw issue cost of the pipelined core/FP operations (library intrinsic
/// calls are priced separately — they do not dual-issue).
double core_op_time(const compiler::OpCounts& ops, const machine::ProcessingComponent& p) {
  return ops.fadd * p.t_fadd + ops.fmul * p.t_fmul + ops.fdiv * p.t_fdiv +
         ops.fpow * p.t_fpow + ops.iops * p.t_iop + ops.loads * p.t_load +
         ops.stores * p.t_store;
}

double flat_op_time(const compiler::OpCounts& ops, const machine::ProcessingComponent& p) {
  return core_op_time(ops, p) + ops.library_time(p.intrinsic_cost);
}

}  // namespace

LoopBodyCost NodeCostModel::body_cost(const compiler::OpCounts& ops,
                                      std::span<const AccessPattern> accesses,
                                      long long working_set_bytes,
                                      double mask_fraction,
                                      const compiler::OpCounts* mask_ops) const {
  const auto& p = sau_.proc;
  const auto& m = sau_.mem;

  // --- issue/pairing model ------------------------------------------------
  // The i860 dual-issues a core and an FP instruction per cycle when the
  // schedule permits. Wide expressions (many independent ops) pair well;
  // chains as deep as the operation count serialize completely.
  const int nops = std::max(1, ops.total_flops() + ops.iops + ops.loads + ops.stores);
  const double chain_ratio =
      std::clamp(static_cast<double>(ops.depth) / static_cast<double>(nops), 0.0, 1.0);
  const double pairing = 0.78 + 0.22 * chain_ratio;  // 0.78 = best overlap
  double compute = core_op_time(ops, p) * pairing + ops.library_time(p.intrinsic_cost);

  // --- cache model -----------------------------------------------------------
  // Streams are grouped per (array, stride class): several references into
  // the same row of an array share its cache lines (LFK 9 reads ten
  // columns of one 13-element row => ~1.6 line fills per iteration, not
  // ten). Unit-stride groups stream elem/line lines per access with
  // roughly one stream per pair of offsets; strided groups touch one row
  // span per iteration; irregular references miss almost every access.
  // Capacity reuse is judged against the *accessed array's* footprint
  // (small lookup tables stay resident) bounded by the loop working set.
  double mem = 0.0;
  // combined footprint of the distinct arrays the loop streams through:
  // several 8 KB streams evict each other even though each alone fits
  // (an array counts at its first reference)
  long long loop_footprint = 0;
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    bool dup = false;
    for (std::size_t j = 0; j < i && !dup; ++j) dup = accesses[j].symbol == accesses[i].symbol;
    if (!dup) loop_footprint += accesses[i].array_bytes;
  }
  if (working_set_bytes > 0) {
    loop_footprint = std::min(loop_footprint, 4 * working_set_bytes);
  }
  // one group per (array, stride), led by its first reference
  const auto same_group = [](const AccessPattern& x, const AccessPattern& y) {
    return x.symbol == y.symbol && x.stride_elements == y.stride_elements;
  };
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    const AccessPattern& a = accesses[i];
    bool counted = false;  // in the group of an earlier reference
    for (std::size_t j = 0; j < i && !counted; ++j) counted = same_group(accesses[j], a);
    if (counted) continue;
    int group_count = 1;
    for (std::size_t j = i + 1; j < accesses.size(); ++j) {
      if (same_group(accesses[j], a)) ++group_count;
    }
    double lines_per_iter;
    if (a.stride_elements < 0) {
      // irregular gathers retain partial line locality (index vectors
      // like 7i mod n stride within lines part of the time)
      lines_per_iter = 0.9 * group_count;
    } else {
      const double stride_bytes =
          static_cast<double>(a.stride_elements) * a.elem_bytes;
      if (stride_bytes < m.line_bytes) {
        const double per_access = std::max(stride_bytes, 1.0 * a.elem_bytes) /
                                  m.line_bytes;
        // a 5-point stencil reads one array through 3 distinct row streams
        // (i-1, i, i+1); same-row offsets share lines
        const double streams = std::max(1.0, static_cast<double>(group_count) - 1.0);
        lines_per_iter = streams * per_access;
      } else {
        // the group walks one row (span ~ stride elements) per iteration
        lines_per_iter = std::min<double>(group_count, stride_bytes / m.line_bytes);
      }
    }
    long long footprint = loop_footprint > 0 ? loop_footprint : working_set_bytes;
    double capacity = 1.0;
    if (footprint > 0 && footprint <= m.dcache_bytes) {
      capacity = 0.18;  // warm after first traversal
    } else if (footprint <= 4 * m.dcache_bytes) {
      capacity = 0.75;  // partial reuse
    }
    mem += lines_per_iter * capacity * m.miss_penalty;
  }

  // --- mask / conditional ------------------------------------------------------
  double mask_cost = 0.0;
  if (mask_ops != nullptr) {
    mask_cost = core_op_time(*mask_ops, p) * pairing +
                mask_ops->library_time(p.intrinsic_cost) + p.branch_overhead;
    // mispredict-like penalty maximal at 50% taken
    mask_cost += 4.0 * p.t_iop * (1.0 - std::fabs(2.0 * mask_fraction - 1.0));
  }

  LoopBodyCost out;
  out.per_iteration = (compute + mem) * mask_fraction + mask_cost;
  out.per_iter_overhead = p.loop_overhead;
  out.setup = p.loop_setup;
  return out;
}

double NodeCostModel::scalar_cost(const compiler::OpCounts& ops) const {
  return flat_op_time(ops, sau_.proc);
}

}  // namespace hpf90d::sim
