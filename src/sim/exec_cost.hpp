// exec_cost.hpp — the simulator's fine-grained i860 node cost model.
//
// The interpretation engine prices a loop body as a flat sum of SAU
// per-operation parameters plus a coarse memory heuristic. Real machines
// (and this simulator) differ in exactly the ways the paper's validation
// exposes:
//
//   * dual-issue pairing  — wide expressions overlap core/FP instructions;
//     long dependence chains serialize (hurts wide kernels like LFK 9 in
//     the *predictor*, which charges flat costs);
//   * cache behaviour     — the abstraction assumes streaming unit-stride
//     misses; strided accesses (LFK 2's stride-2 ICCG) and irregular
//     gathers (LFK 14's PIC) touch a new line almost every access;
//   * conditional work    — masked bodies pay branch mispredict-like
//     penalties depending on the realized mask fraction.
//
// These mechanisms produce the systematic prediction error the measured
// Table 2 (`hpf90d_studycheck --table2`) shows; their magnitudes are
// calibrated so the error envelope matches the paper's Table 2 shape.
#pragma once

#include <span>

#include "compiler/opcount.hpp"
#include "machine/sau.hpp"

namespace hpf90d::sim {

/// Memory-access pattern of one array reference in a loop body.
struct AccessPattern {
  int symbol = -1;                // accessed array (for stream grouping)
  long long stride_elements = 1;  // innermost-loop stride; <0 = irregular
  int elem_bytes = 4;
  long long array_bytes = 0;      // total footprint of the accessed array
  bool is_store = false;
};

struct LoopBodyCost {
  double per_iteration = 0;  // seconds, excluding loop control
  double per_iter_overhead = 0;  // loop control (branch + induction)
  double setup = 0;          // loop prologue
};

class NodeCostModel {
 public:
  explicit NodeCostModel(const machine::SAU& sau) : sau_(sau) {}

  /// Cost of one iteration of a loop body with operation counts `ops` and
  /// the given access patterns. `working_set_bytes` is the loop's total
  /// traffic footprint (drives cache capacity behaviour); `mask_fraction`
  /// the realized fraction of iterations whose body executes. Allocates
  /// nothing.
  [[nodiscard]] LoopBodyCost body_cost(const compiler::OpCounts& ops,
                                       std::span<const AccessPattern> accesses,
                                       long long working_set_bytes,
                                       double mask_fraction = 1.0,
                                       const compiler::OpCounts* mask_ops = nullptr) const;

  /// Cost of one replicated scalar statement.
  [[nodiscard]] double scalar_cost(const compiler::OpCounts& ops) const;

 private:
  const machine::SAU& sau_;
};

}  // namespace hpf90d::sim
