// engine.hpp — the interpretation engine (paper §3.3, §4.2).
//
// The interpretation parse walks the SAAG and applies the per-AAU
// interpretation functions against the SAU parameters, maintaining
// computation / communication / overhead / wait times per AAU plus the
// global clock. Replicated scalar control flow is traced by actually
// evaluating it (the critical-variable machinery); data values are never
// touched — iteration counts come from the data-mapping formulas, mask
// effects from probabilities, and communication volumes from the layout.
//
// The parse is implemented once, by core::BatchEngine (batch_engine.hpp),
// which walks any number of points in lockstep; predicting one point is
// its one-lane walk. This header holds what a lane carries through that
// walk — the InterpretationEngine's clocks, metrics and pricing — plus the
// result types and the critical-variable check every prediction runs first.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "compiler/mapping.hpp"
#include "compiler/spmd_ir.hpp"
#include "core/aag.hpp"
#include "core/critical.hpp"
#include "core/interp_fn.hpp"
#include "core/metrics.hpp"
#include "machine/sag.hpp"

namespace hpf90d::core {

struct PredictOptions {
  /// Assumed forall-mask truth probability when the binding "mask__prob"
  /// is absent.
  double mask_probability = 1.0;
  machine::CollectiveAlgo collective = machine::CollectiveAlgo::RecursiveTree;
  /// Record a ParaGraph-style event trace (see output.hpp).
  bool trace = false;
  std::size_t max_trace_events = 200000;
  /// Fill PredictionResult::per_aau / proc_clock / trace. The sweep hot
  /// path clears this: totals and the phase sums (comp/comm/overhead/wait)
  /// are always filled with identical arithmetic, but the per-AAU and
  /// per-processor tables — which RunReport never reads — are skipped, so
  /// finalize costs O(nodes) instead of two vector copies per point.
  bool detailed = true;
};

/// One interpreted event for the trace output (ParaGraph-compatible
/// rendering is done by the output module).
struct TraceEvent {
  double t_begin = 0;
  double t_end = 0;
  int proc = 0;
  int aau = -1;
  char category = 'C';  // 'C'ompute, 'M'essage, 'O'verhead, 'I'/O
};

struct PredictionResult {
  double total = 0;  // predicted execution time (global clock)
  std::vector<double> proc_clock;
  std::vector<AAUMetric> per_aau;  // indexed by AAU id, averaged over procs
  double comp = 0, comm = 0, overhead = 0, wait = 0;
  std::vector<TraceEvent> trace;
};

/// One lane's interpretation state: per-processor clocks, per-AAU metrics
/// and the trace, plus the interpretation-function pricing that charges
/// them. It evaluates no expressions and walks no tree: core::BatchEngine
/// is the one SPMD walker, and every priced expression reaches these
/// methods as a value it already evaluated for the lane. A default-
/// constructed engine is an arena that the walker rebinds per window,
/// reusing the clock/metric buffers across sweep points.
class InterpretationEngine {
 private:
  using SpmdNode = compiler::SpmdNode;

  friend class BatchEngine;

  /// Points the engine at a (program, layout, machine, options, bindings)
  /// tuple and resets its clocks, metrics and trace exactly as a fresh
  /// engine would be, reusing scratch allocations. Every referenced
  /// argument must outlive the walk.
  void rebind(const compiler::CompiledProgram& prog, const compiler::DataLayout& layout,
              const machine::MachineModel& machine, const PredictOptions& options,
              const front::Bindings& bindings);

  /// Turns the accumulated clocks and metrics into a PredictionResult.
  void finalize_into(PredictionResult& out);

  struct ResolvedSpace {
    std::vector<long long> lo, hi, step;
    [[nodiscard]] long long points() const;
    [[nodiscard]] long long dim_count(std::size_t d) const;
  };

  // --- per-lane pricing -------------------------------------------------------
  void note_visit(const SpmdNode& n) { metric(n.id).visits++; }
  void charge_all(int aau, double t, char category);
  [[nodiscard]] double seq_cost(const SpmdNode& n) const { return fn_->seq(body_ops(n)); }
  [[nodiscard]] double branch_cost(const SpmdNode& n) const { return fn_->condt(cond_ops(n)); }
  void price_overlap(const SpmdNode& n);
  void price_cshift(const SpmdNode& n, long long shift);
  void price_irregular(const SpmdNode& n, const ResolvedSpace& space);
  void price_slice_bcast(const SpmdNode& n);
  void price_hostio(const SpmdNode& n);

  /// Charges a node's computation against precomputed per-proc iteration
  /// counts.
  void price_iters_on(const SpmdNode& n, const IterCost& cost,
                      const std::vector<long long>& iters);

  // --- batched pricing (all lanes of a node in one pass) ----------------------
  // Each engines[lanes[i]] is charged exactly what pricing that lane alone
  // would charge it (lanes are independent — distinct clocks and metrics —
  // so looping lanes inside one call changes no lane's charge sequence),
  // but the node's dispatch, space plumbing, and cost fetches happen once
  // per node instead of once per lane.
  /// Computation charges for lanes[0..count): spaces[i] points at lane i's
  /// resolved space (uniform lanes may all point at one shared space) and
  /// pts[i] carries its precomputed points() so replicated nodes never
  /// recount.
  static void price_iters_batch(const SpmdNode& n, InterpretationEngine* engines,
                                const int* lanes, std::size_t count,
                                const ResolvedSpace* const* spaces,
                                const long long* pts, const IterCost* costs);
  /// sync_then_charge_comm with a lane-uniform per-proc cost for each lane
  /// (cost_per_lane[i] <= 0 skips lane i's 'M' charges but still syncs).
  static void sync_then_charge_comm_batch(const SpmdNode& n,
                                          InterpretationEngine* engines,
                                          const int* lanes, std::size_t count,
                                          const double* cost_per_lane);
  /// A Reduce node's combine communication for every lane it applies to
  /// (a home array and more than one processor).
  static void price_reduce_comm_batch(const SpmdNode& n, InterpretationEngine* engines,
                                      const int* lanes, std::size_t count);

  /// Analytic per-processor iteration counts under owner-computes; the
  /// result lives in iters_scratch_ (valid until the next call).
  /// `space_points` is the precomputed space.points(), every processor's
  /// count when the node has no home array.
  const std::vector<long long>& local_iterations(const SpmdNode& n,
                                                 const ResolvedSpace& space,
                                                 long long space_points);

  /// Boundary-slab elements of `map` at `proc` for an exchange of `width`
  /// along array dim `dim`.
  [[nodiscard]] long long slab_elements(const compiler::ArrayMap& map, int proc, int dim,
                                        long long width) const;

  [[nodiscard]] double mask_probability() const { return mask_prob_; }
  /// Per-processor working set of a node whose space has `space_points`.
  [[nodiscard]] long long working_set_estimate(const SpmdNode& n,
                                               long long space_points) const;

  void charge(int aau, int proc, double t, char category);
  void sync_then_charge_comm(const SpmdNode& n, const std::vector<double>& cost_per_proc);
  AAUMetric& metric(int aau) { return metrics_.at(static_cast<std::size_t>(aau)); }

  /// Per-node operation counts: computed once at compile time and carried
  /// by CompiledProgram::node_ops, so every arena and rebind shares one
  /// table.
  [[nodiscard]] const compiler::OpCounts& body_ops(const SpmdNode& n) const {
    return prog_->node_ops.at(static_cast<std::size_t>(n.id)).body;
  }
  [[nodiscard]] const compiler::OpCounts& cond_ops(const SpmdNode& n) const {
    return prog_->node_ops.at(static_cast<std::size_t>(n.id)).cond;
  }

  // Pointers (not references) so rebind() can re-target the engine; null
  // only between default construction and the first rebind.
  const compiler::CompiledProgram* prog_ = nullptr;
  const compiler::DataLayout* layout_ = nullptr;
  const machine::MachineModel* machine_ = nullptr;
  PredictOptions options_;
  int nprocs_ = 0;
  /// The "mask__prob" binding (or the option default) resolved once per
  /// rebind — a hash probe that otherwise runs per priced masked node.
  double mask_prob_ = 1.0;

  // InterpretationFunctions holds SAU references, so retargeting is an
  // emplace rather than an assignment.
  std::optional<InterpretationFunctions> fn_;

  std::vector<double> clock_;
  std::vector<AAUMetric> metrics_;
  std::vector<TraceEvent> trace_;

  // Worker-owned scratch (reused across points, overwritten per node):
  std::vector<long long> iters_scratch_;  // local_iterations result
  std::vector<double> cost_scratch_;      // per-processor comm costs
  std::vector<int> home_dim_scratch_;     // space dim -> home dim driver map
};

/// Throws support::CompileError listing every unresolved critical variable
/// (as the interactive tool would) when `bindings` leaves the program's
/// critical-variable set incomplete.
void require_critical_complete(const compiler::CompiledProgram& prog,
                               const front::Bindings& bindings);

}  // namespace hpf90d::core
