// interp_fn.hpp — the interpretation functions (paper §3.3).
//
// "An interpretation function is defined for each AAU type to compute its
// performance in terms of parameters exported by the associated SAU."
// These are *analytic* costs: flat per-operation pricing from the SAU's
// processing component, a coarse streaming memory heuristic from the memory
// component, and the contention-free communication formulas of
// machine::CommModel. Everything the abstraction does NOT know (pipeline
// pairing, access strides, realized mask fractions, network contention, OS
// noise) is precisely the prediction error the validation experiments
// measure.
#pragma once

#include <span>

#include "compiler/opcount.hpp"
#include "machine/comm_model.hpp"
#include "machine/sau.hpp"

namespace hpf90d::core {

struct ComputeEstimate {
  double comp = 0;
  double overhead = 0;
};

/// Per-iteration decomposition of an IterD/CondtD estimate. The engine
/// charges processors with different local iteration counts from ONE of
/// these (comp = iters * per_iter_comp, overhead = setup + iters *
/// per_iter_overhead) instead of re-deriving the whole operation pricing
/// per processor — the unit costs depend only on the node, not on the
/// processor.
struct IterCost {
  double setup = 0;
  double per_iter_comp = 0;
  double per_iter_overhead = 0;

  [[nodiscard]] ComputeEstimate at(long long iters) const noexcept {
    return {static_cast<double>(iters) * per_iter_comp,
            setup + static_cast<double>(iters) * per_iter_overhead};
  }
};

class InterpretationFunctions {
 public:
  explicit InterpretationFunctions(const machine::SAU& sau)
      : sau_(sau), comm_(sau.comm) {}

  /// Seq AAU: straight-line replicated computation.
  [[nodiscard]] double seq(const compiler::OpCounts& ops) const {
    return flat_ops(ops) + sau_.proc.t_store;
  }

  /// IterD AAU: the per-iteration decomposition of a body with `ops` per
  /// element; `.at(iters)` prices `iters` local iterations. `elem_bytes`
  /// sizes the streaming memory heuristic; `working_set` the capacity
  /// heuristic; `inner_m` > 0 adds a sequential inner reduction of m
  /// elements per iteration.
  [[nodiscard]] IterCost iter_cost(const compiler::OpCounts& ops, int elem_bytes,
                                   long long working_set, long long inner_m = 0) const;
  /// CondtD AAU: masked IterD; the mask is evaluated every iteration, the
  /// body executes with probability `mask_prob`.
  [[nodiscard]] IterCost condt_cost(const compiler::OpCounts& body_ops,
                                    const compiler::OpCounts& mask_ops,
                                    double mask_prob, int elem_bytes,
                                    long long working_set, long long inner_m = 0) const;

  /// Batch entry points (core::BatchEngine): price one loop node for every
  /// lane of a lockstep batch at once. Lanes share the program and machine,
  /// so ops/elem_bytes are lane-invariant; only the working set, inner trip
  /// count, and mask probability vary per lane. out[i] is exactly
  /// iter_cost/condt_cost of lane i's parameters.
  void iter_costs(const compiler::OpCounts& ops, int elem_bytes,
                  std::span<const long long> working_set, std::span<const long long> inner_m,
                  std::span<IterCost> out) const;
  void condt_costs(const compiler::OpCounts& body_ops, const compiler::OpCounts& mask_ops,
                   std::span<const double> mask_prob, int elem_bytes,
                   std::span<const long long> working_set, std::span<const long long> inner_m,
                   std::span<IterCost> out) const;

  /// Memory-hierarchy heuristic (paper §3.3: "models and heuristics are
  /// defined to handle accesses to the memory hierarchy"): unit-stride
  /// streaming misses, discounted when the working set fits in cache.
  [[nodiscard]] double memory_per_iteration(int accesses, int elem_bytes,
                                            long long working_set) const;

  /// Replicated conditional overhead (Condt AAU).
  [[nodiscard]] double condt(const compiler::OpCounts& cond_ops) const {
    return flat_ops(cond_ops) + sau_.proc.branch_overhead;
  }

  /// Iter AAU per-trip overhead / setup.
  [[nodiscard]] double iter_overhead() const { return sau_.proc.loop_overhead; }
  [[nodiscard]] double iter_setup() const { return sau_.proc.loop_setup; }

  /// Comm AAUs: delegate to the analytic communication model.
  [[nodiscard]] const machine::CommModel& comm() const noexcept { return comm_; }

  /// IO AAU: host service request.
  [[nodiscard]] double host_io(long long bytes) const {
    return sau_.io.host_latency + sau_.io.host_per_byte * static_cast<double>(bytes);
  }

  [[nodiscard]] double flat_ops(const compiler::OpCounts& ops) const;

 private:
  const machine::SAU& sau_;
  machine::CommModel comm_;
};

}  // namespace hpf90d::core
