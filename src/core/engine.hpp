// engine.hpp — the interpretation engine (paper §3.3, §4.2).
//
// The interpretation parse walks the SAAG and applies the per-AAU
// interpretation functions against the SAU parameters, maintaining
// computation / communication / overhead / wait times per AAU plus the
// global clock. Replicated scalar control flow is traced by actually
// evaluating it (the critical-variable machinery); data values are never
// touched — iteration counts come from the data-mapping formulas, mask
// effects from probabilities, and communication volumes from the layout.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "compiler/cost_program.hpp"
#include "compiler/eval.hpp"
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

/// The engine is reusable: a default-constructed engine is an *arena* that
/// `rebind()` points at a new (program, layout, machine, options, bindings)
/// tuple before each `interpret()`/`interpret_into()` call. Rebinding reuses
/// the clock/metric/environment scratch buffers, so a per-worker engine
/// interprets thousands of sweep points without per-point heap churn while
/// producing bit-identical results to a freshly constructed engine.
class InterpretationEngine {
 public:
  /// Arena construction: no state bound yet; call rebind() before use.
  InterpretationEngine() = default;

  InterpretationEngine(const compiler::CompiledProgram& prog,
                       const compiler::DataLayout& layout,
                       const machine::MachineModel& machine,
                       const PredictOptions& options, const front::Bindings& bindings);

  /// Re-targets the engine, resetting all interpretation state exactly as
  /// construction would while reusing scratch allocations. Every referenced
  /// argument (including `bindings`) must outlive the next interpret call.
  void rebind(const compiler::CompiledProgram& prog, const compiler::DataLayout& layout,
              const machine::MachineModel& machine, const PredictOptions& options,
              const front::Bindings& bindings);

  /// Runs the interpretation algorithm over the whole SAAG. One-shot per
  /// rebind/construction: call rebind() again before the next run.
  [[nodiscard]] PredictionResult interpret();

  /// Same, assigning into `out` so its vectors' capacity is reused across
  /// sweep points (the arena hot path).
  void interpret_into(PredictionResult& out);

 private:
  using SpmdNode = compiler::SpmdNode;

  /// The batch engine drives lockstep interpretation through this engine's
  /// per-lane pricing methods (price_* / charge_all / walk_<comm>), which
  /// never read env_: expression values always arrive pre-evaluated from
  /// the shared SoA BatchEnv, so the batch and scalar paths share one
  /// pricing implementation and stay bit-identical by construction.
  friend class BatchEngine;

  /// rebind() minus the scalar environment reset/seed: in batch mode the
  /// BatchEngine's BatchEnv is the only environment, so per-lane engines
  /// skip the seed_environment fold entirely.
  void rebind_lane(const compiler::CompiledProgram& prog, const compiler::DataLayout& layout,
                   const machine::MachineModel& machine, const PredictOptions& options,
                   const front::Bindings& bindings);

  /// Shared tail of rebind()/rebind_lane().
  void rebind_common(const compiler::CompiledProgram& prog,
                     const compiler::DataLayout& layout,
                     const machine::MachineModel& machine, const PredictOptions& options,
                     const front::Bindings& bindings);

  /// Aggregation tail of interpret_into: turns the accumulated clocks and
  /// metrics into a PredictionResult without walking anything (the batch
  /// engine finalizes lanes it walked itself).
  void finalize_into(PredictionResult& out);

  void walk_seq(const std::vector<compiler::SpmdNodePtr>& nodes);
  void walk(const SpmdNode& n);
  void walk_scalar_assign(const SpmdNode& n);
  void walk_do(const SpmdNode& n);
  void walk_while(const SpmdNode& n);
  void walk_if(const SpmdNode& n);
  void walk_local_loop(const SpmdNode& n);
  void walk_reduce(const SpmdNode& n);
  void walk_overlap(const SpmdNode& n);
  void walk_cshift(const SpmdNode& n);
  void walk_irregular(const SpmdNode& n);
  void walk_slice_bcast(const SpmdNode& n);
  void walk_hostio(const SpmdNode& n);

  struct ResolvedSpace {
    std::vector<long long> lo, hi, step;
    [[nodiscard]] long long points() const;
    [[nodiscard]] long long dim_count(std::size_t d) const;
  };
  [[nodiscard]] ResolvedSpace resolve_space(const SpmdNode& n);

  // --- bytecode fast path ----------------------------------------------------
  // Priced expressions evaluate through the program's flattened CostProgram
  // when one exists (expr_id >= 0 and the expression compiled); otherwise
  // through the tree walker. Results are bit-identical either way,
  // including the failure set.
  [[nodiscard]] const compiler::NodeCost& ncost(const SpmdNode& n) const;
  [[nodiscard]] std::optional<double> eval_opt(std::int32_t expr_id, const front::Expr& e);
  /// eval_int through the bytecode; a bytecode failure re-runs the tree
  /// evaluator so the thrown CompileError carries the curated diagnostic.
  [[nodiscard]] long long eval_int_fast(std::int32_t expr_id, const front::Expr& e);

  // --- per-lane pricing (shared scalar/batch; never reads env_) -------------
  void note_visit(const SpmdNode& n) { metric(n.id).visits++; }
  void charge_all(int aau, double t, char category);
  [[nodiscard]] double seq_cost(const SpmdNode& n) const { return fn_->seq(body_ops(n)); }
  [[nodiscard]] double branch_cost(const SpmdNode& n) const { return fn_->condt(cond_ops(n)); }
  [[nodiscard]] IterCost local_loop_cost(const SpmdNode& n, const ResolvedSpace& space,
                                         long long inner_m) const;
  [[nodiscard]] IterCost reduce_cost(const SpmdNode& n, const ResolvedSpace& space) const;
  void price_iters(const SpmdNode& n, const ResolvedSpace& space, const IterCost& cost);
  void price_reduce_comm(const SpmdNode& n);
  void price_cshift(const SpmdNode& n, long long shift);
  void price_irregular(const SpmdNode& n, const ResolvedSpace& space);

  /// Charging tail of price_iters against precomputed per-proc counts.
  void price_iters_on(const SpmdNode& n, const IterCost& cost,
                      const std::vector<long long>& iters);

  // --- batched pricing (BatchEngine: all lanes of a node in one pass) -------
  // Each engines[lanes[i]] is charged exactly what the scalar call sequence
  // would charge it (lanes are independent — distinct clocks and metrics —
  // so looping lanes inside one call is bit-identical to one call per
  // lane), but the node's dispatch, space plumbing, and cost fetches happen
  // once per node instead of once per lane.
  /// price_iters for lanes[0..count): spaces[i] points at lane i's resolved
  /// space (uniform lanes may all point at one shared space) and pts[i]
  /// carries its precomputed points() so replicated nodes never recount.
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
  /// price_reduce_comm for every lane in one pass (skips lanes it does not
  /// apply to, exactly like the scalar predicate).
  static void price_reduce_comm_batch(const SpmdNode& n, InterpretationEngine* engines,
                                      const int* lanes, std::size_t count);

  /// Analytic per-processor iteration counts under owner-computes; the
  /// result lives in iters_scratch_ (valid until the next call).
  /// `replicated_pts` >= 0 supplies a precomputed space.points() used when
  /// the node has no home array (every processor runs the whole space).
  const std::vector<long long>& local_iterations(const SpmdNode& n,
                                                 const ResolvedSpace& space,
                                                 long long replicated_pts = -1);

  /// Boundary-slab elements of `map` at `proc` for an exchange of `width`
  /// along array dim `dim`.
  [[nodiscard]] long long slab_elements(const compiler::ArrayMap& map, int proc, int dim,
                                        long long width) const;

  [[nodiscard]] double mask_probability() const;
  [[nodiscard]] long long working_set_estimate(const SpmdNode& n,
                                               const ResolvedSpace& space) const;
  /// Same estimate from a precomputed space.points() (batch hot path).
  [[nodiscard]] long long working_set_estimate(const SpmdNode& n,
                                               long long space_points) const;

  void charge(int aau, int proc, double t, char category);
  void sync_then_charge_comm(const SpmdNode& n, const std::vector<double>& cost_per_proc);
  AAUMetric& metric(int aau) { return metrics_.at(static_cast<std::size_t>(aau)); }

  /// Per-node operation counts: computed once at compile time and carried
  /// by CompiledProgram::node_ops, so every arena and rebind shares one
  /// table (no per-engine cache to invalidate). at(): a hand-built program
  /// with unnumbered nodes (id -1) fails with std::out_of_range, exactly
  /// like the pre-hoist per-engine cache did.
  [[nodiscard]] const compiler::OpCounts& body_ops(const SpmdNode& n) const {
    return node_ops_->at(static_cast<std::size_t>(n.id)).body;
  }
  [[nodiscard]] const compiler::OpCounts& cond_ops(const SpmdNode& n) const {
    return node_ops_->at(static_cast<std::size_t>(n.id)).cond;
  }

  // Pointers (not references) so rebind() can re-target the engine; null
  // only between default construction and the first rebind.
  const compiler::CompiledProgram* prog_ = nullptr;
  const compiler::DataLayout* layout_ = nullptr;
  const machine::MachineModel* machine_ = nullptr;
  PredictOptions options_;
  const front::Bindings* bindings_ = nullptr;
  int nprocs_ = 0;
  /// mask_probability() resolved once per rebind — the "mask__prob" binding
  /// lookup is a hash probe that otherwise runs per priced masked node.
  double mask_prob_ = 1.0;

  compiler::ScalarEnv env_{0};
  // InterpretationFunctions holds SAU references, so retargeting is an
  // emplace rather than an assignment.
  std::optional<InterpretationFunctions> fn_;

  std::vector<double> clock_;
  std::vector<AAUMetric> metrics_;
  std::vector<TraceEvent> trace_;

  // Compile-time op counts for the bound program; points at
  // prog_->node_ops, or at fallback_node_ops_ for hand-built programs that
  // bypassed the pipeline (recomputed per rebind, never on the sweep path).
  const std::vector<compiler::NodeOpCounts>* node_ops_ = nullptr;
  std::vector<compiler::NodeOpCounts> fallback_node_ops_;

  // Flattened cost bytecode of the bound program (null for hand-built
  // programs — every priced expression then walks its tree) and the
  // engine's register file for it.
  const compiler::CostProgram* cost_ = nullptr;
  std::vector<double> regs_;

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

/// Convenience wrapper: layout construction + critical-variable check +
/// interpretation in one call. Throws support::CompileError when a critical
/// variable is unresolved (listing it, as the interactive tool would).
[[nodiscard]] PredictionResult predict(const compiler::CompiledProgram& prog,
                                       const front::Bindings& bindings,
                                       const compiler::LayoutOptions& layout_options,
                                       const machine::MachineModel& machine,
                                       const PredictOptions& options = {});

/// Same, against a prebuilt layout (the session's content-addressed cache
/// path). Pure: reads the program, layout, and machine without mutating
/// shared state, so concurrent calls over the same arguments are safe.
[[nodiscard]] PredictionResult predict(const compiler::CompiledProgram& prog,
                                       const front::Bindings& bindings,
                                       const compiler::DataLayout& layout,
                                       const machine::MachineModel& machine,
                                       const PredictOptions& options = {});

}  // namespace hpf90d::core
