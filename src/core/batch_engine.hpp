// batch_engine.hpp — the interpretation walk, over one or more points.
//
// Sweep points that share a CompiledProgram and machine differ only in
// their scalar bindings and layout, so the SPMD tree is visited once per
// *window* of points instead of once per point: every priced expression
// runs through the flattened cost bytecode over a structure-of-arrays
// BatchEnv (values[slot][lane], lane = sweep point), and each lane's
// InterpretationEngine prices what the walk resolved for it. Lanes never
// see each other's values, so a lane's result does not depend on which
// window it ran in. Predicting one point is the one-lane walk
// (interpret_one); a single lane cannot diverge.
//
// Lockstep requires the replicated control flow to agree across lanes:
// equal DO trip counts (bounds may differ), the same IF decision, the same
// WHILE test outcome on every trip. Lanes that diverge — different trip
// counts from per-lane critical variables, or a failing bound — are
// *evicted* and handed back to the caller, which runs them again in later
// windows (api::Session::run re-batches them in point order, round after
// round). A one-lane window never evicts: a failing bound throws its
// located diagnostic.
#pragma once

#include <span>

#include "compiler/cost_program.hpp"

#include "core/engine.hpp"

namespace hpf90d::obs {
class Sink;
}  // namespace hpf90d::obs

namespace hpf90d::core {

/// One sweep point of a batch. All lanes of one interpret() call must share
/// the CompiledProgram and MachineModel; layout and bindings are per-lane.
struct BatchLane {
  const compiler::DataLayout* layout = nullptr;
  const front::Bindings* bindings = nullptr;
  /// The compiler::seed_values fold of `bindings` for the program: the
  /// lane's environment column starts as this list. Owned by the caller
  /// (Session::run folds once per problem in each chunk); it must outlive
  /// the interpret() call.
  const compiler::SeededValues* seed = nullptr;
};

/// Batch effectiveness counters for one interpret() call.
struct BatchRunStats {
  std::uint64_t ir_visits = 0;      // SPMD nodes visited by the batch walk
  std::uint64_t lane_visits = 0;    // sum of active lanes over those visits
  std::uint64_t evicted_lanes = 0;  // lanes that left lockstep mid-walk
  std::uint64_t simd_stripes = 0;   // 8-lane stripes the bytecode evaluated
};

/// Reusable arena: one per worker, interpret() per window. Not
/// thread-safe; distinct workers use distinct engines.
class BatchEngine {
 public:
  /// Interprets every lane in lockstep, filling results[l] for each lane l
  /// that stays in lockstep. `evicted` is set to the lanes that left
  /// lockstep, in ascending lane order; their results[] slots are left
  /// untouched for the caller to finish in later windows. A one-lane
  /// window evicts nothing: where a wider window would evict the lane for
  /// a failing bound or condition, it throws the located
  /// support::CompileError instead. The WHILE trip limit throws for any
  /// window. `detailed` fills each result's per-AAU and per-processor
  /// tables and trace; without it only the total and the phase sums are
  /// filled, with the same bits (InterpretationEngine::finalize_into).
  void interpret(const compiler::CompiledProgram& prog, const machine::MachineModel& machine,
                 const PredictOptions& options, std::span<const BatchLane> lanes,
                 PredictionResult* results, BatchRunStats& stats, std::vector<int>& evicted,
                 bool detailed);

  /// Attaches a tracing sink (nullptr detaches): each lockstep walk is
  /// recorded as one obs::Phase::LockstepWindow span (arg = lane count).
  /// Results are unchanged — only timings are observed.
  void set_trace(obs::Sink* sink) noexcept { obs_sink_ = sink; }

 private:
  using SpmdNode = compiler::SpmdNode;
  using Space = InterpretationEngine::ResolvedSpace;

  void walk_seq(const std::vector<compiler::SpmdNodePtr>& nodes);
  void walk(const SpmdNode& n);
  void batch_scalar_assign(const SpmdNode& n);
  void batch_do(const SpmdNode& n);
  void batch_while(const SpmdNode& n);
  void batch_if(const SpmdNode& n);
  void batch_local_loop(const SpmdNode& n);
  void batch_reduce(const SpmdNode& n);
  void batch_cshift(const SpmdNode& n);
  void batch_irregular(const SpmdNode& n);

  /// Evaluates CostProgram::exprs[expr_id] over all lanes into vals_/ok_.
  /// Evaluation runs dense: evicted lanes compute too, their results are
  /// noise.
  void eval(std::int32_t expr_id);
  /// Evaluates bound `expr_id` and rounds each active lane's value into
  /// out[lane]; a lane whose evaluation failed is flagged in fail[lane] —
  /// or, in a one-lane window, throws the bytecode's located diagnostic,
  /// prefixed at `loc` by "unresolved critical variable in <context>
  /// bounds: " when `context` is non-null.
  void take_bound(std::int32_t expr_id, long long* out, unsigned char* fail,
                  const support::SourceLoc& loc, const char* context);
  /// Evaluates a node's iteration space for all lanes into sp_*_.
  void resolve_space_batch(const SpmdNode& n, const compiler::NodeCost& nc);
  /// Loads lane `l`'s resolved space from sp_*_ into `sp`.
  void fill_space(int l, std::size_t dims, Space& sp) const;
  /// Materializes each lane of `which` exactly once into space_ptrs_[i]:
  /// when every lane resolved the same bounds (replicated loop bounds — the
  /// common case) all pointers share one Space built once per node instead
  /// of rebuilding sp_scratch_ per lane per use.
  void resolve_lane_spaces(const std::vector<int>& which, std::size_t dims);
  /// Drops active lanes failing `keep` into the eviction set.
  template <class Pred>
  void evict_unless(Pred keep);

  const compiler::CompiledProgram* prog_ = nullptr;
  const compiler::CostProgram* cost_ = nullptr;
  std::span<const BatchLane> lanes_;
  obs::Sink* obs_sink_ = nullptr;  // lockstep-window span destination

  std::vector<InterpretationEngine> engines_;  // per-lane clocks/metrics/pricing
  compiler::BatchEnv env_;                     // the single source of scalar values
  bool lone_ = false;                          // a one-lane window: failures throw

  std::vector<double> regs_;        // max_regs * kBatchStripe file (+ alignment slack)
  double* regs_aligned_ = nullptr;  // regs_ rounded up to a 64-byte boundary
  std::vector<double> vals_;        // per-lane expression results (stride-padded)
  std::vector<unsigned char> ok_;   // per-lane expression success (stride-padded)
  std::vector<int> active_;         // lanes still in lockstep
  std::vector<int> evicted_;        // lanes that left lockstep

  // per-node scratch (sized lanes / dims*lanes, reused across nodes)
  std::vector<long long> b_lo_, b_hi_, b_step_, pts_;
  std::vector<unsigned char> b_fail_;
  std::vector<long long> sp_lo_, sp_hi_, sp_step_;
  std::vector<unsigned char> sp_fail_;
  std::vector<long long> ws_, im_;
  std::vector<double> mp_;
  std::vector<IterCost> costs_;
  std::vector<int> priced_;
  Space sp_scratch_;
  std::vector<Space> spaces_;            // per-lane spaces when lanes disagree
  std::vector<const Space*> space_ptrs_; // one entry per priced lane
  std::vector<long long> res_pts_;       // points() of each resolved space

  BatchRunStats stats_{};
};

/// Interprets one point as a one-lane BatchEngine walk, with every table
/// of the result filled. It does not check critical variables: callers run
/// core::require_critical_complete first, as Session::predict does.
[[nodiscard]] PredictionResult interpret_one(const compiler::CompiledProgram& prog,
                                             const front::Bindings& bindings,
                                             const compiler::DataLayout& layout,
                                             const machine::MachineModel& machine,
                                             const PredictOptions& options);

}  // namespace hpf90d::core
