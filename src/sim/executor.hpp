// executor.hpp — functional execution of the SPMD node program with
// discrete-event timing. This is the repository's stand-in for "run it on
// the iPSC/860 and measure": the same compiler output the interpretation
// engine prices is executed here with real data, per-processor clocks, an
// event-driven hypercube network, the fine i860 cost model, and seeded OS
// noise (see DESIGN.md's substitution table).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "compiler/eval.hpp"
#include "compiler/mapping.hpp"
#include "compiler/spmd_ir.hpp"
#include "machine/sag.hpp"
#include "machine/comm_model.hpp"
#include "sim/exec_cost.hpp"
#include "sim/network.hpp"
#include "sim/noise.hpp"
#include "sim/values.hpp"

namespace hpf90d::sim {

struct SimOptions {
  std::uint64_t seed = 42;
  bool noise = true;
  bool contention = true;
  machine::CollectiveAlgo collective = machine::CollectiveAlgo::RecursiveTree;
  long long max_while_trips = 1000000;
};

/// Per-SPMD-node time attribution (averaged over processors on output).
struct NodeMetric {
  double comp = 0;
  double comm = 0;
  double overhead = 0;
  long long visits = 0;

  [[nodiscard]] double total() const noexcept { return comp + comm + overhead; }
};

struct SimResult {
  double total = 0;  // program time: max processor clock
  std::vector<double> proc_clock;
  std::vector<NodeMetric> per_node;  // indexed by SpmdNode::id
  double comp = 0, comm = 0, overhead = 0;
  /// Values produced by `print *` statements, keyed by expression text.
  std::map<std::string, double> printed;
  /// Final values of user scalars (numerical validation).
  std::map<std::string, double> scalars;
};

/// The executor is reusable: a default-constructed executor is an *arena*
/// that `rebind()` points at a new configuration before each `run()`.
/// Rebinding resets every piece of simulation state exactly as construction
/// would (storage contents, clocks, network occupancy, noise stream) while
/// reusing the large scratch allocations — per-worker executors serve
/// thousands of measured points without per-run heap churn.
///
/// Every node visit has two halves. The *functional* half resolves values:
/// it evaluates expressions against the real data, updates arrays and
/// scalars, and settles everything value-dependent that timing needs — DO
/// and WHILE trip counts, IF outcomes, iteration-space sizes, per-processor
/// iteration and mask-true counts, inner-reduction trips, CSHIFT amounts.
/// The *timing* half charges clocks, the network and the noise stream from
/// those quantities alone. run() does both and records the quantities, in
/// walk order, on a compact *timing tape*; replay() re-times the run under
/// another noise seed from the tape without evaluating a single expression.
/// Values only ever flow into timing, never back: no clock, network, noise
/// or attribution state feeds a value, so one functional pass serves every
/// repetition of a measurement and a replay is bit-identical to a fresh run
/// with that seed.
class Executor {
 public:
  /// Arena construction: no state bound yet; call rebind() before run().
  Executor() = default;

  Executor(const compiler::CompiledProgram& prog, const compiler::DataLayout& layout,
           const machine::MachineModel& machine, const SimOptions& options,
           const front::Bindings& bindings);

  /// Re-targets the executor, producing bit-identical behaviour to a fresh
  /// Executor(prog, layout, machine, options, bindings). The referenced
  /// arguments must outlive the next run() and every replay() after it.
  void rebind(const compiler::CompiledProgram& prog, const compiler::DataLayout& layout,
              const machine::MachineModel& machine, const SimOptions& options,
              const front::Bindings& bindings);

  /// One-shot per rebind/construction: call rebind() again before the next
  /// run(). Records the timing tape replay() consumes.
  [[nodiscard]] SimResult run();

  /// Like run(), but fills `out` in place, reusing its vectors and maps
  /// (previous contents are discarded). The measurement hot loop calls
  /// this with one scratch SimResult per worker, so a measurement-heavy
  /// sweep performs no per-run result allocation in steady state. Contents
  /// are identical to run().
  void run_into(SimResult& out);

  /// Re-times the last completed run() under noise seed `seed` from its
  /// timing tape: the same node visits, charges, noise draws and network
  /// sends, none of the values. Returns the program time — bit-identical
  /// to SimResult::total of a fresh Executor whose options carry `seed`.
  /// May be called any number of times per run().
  [[nodiscard]] double replay(std::uint64_t seed);

 private:
  using SpmdNode = compiler::SpmdNode;

  // --- control flow ---------------------------------------------------------
  void exec_seq(const std::vector<compiler::SpmdNodePtr>& nodes);
  void exec(const SpmdNode& n);
  void exec_scalar_assign(const SpmdNode& n);
  void exec_do(const SpmdNode& n);
  void exec_while(const SpmdNode& n);
  void exec_if(const SpmdNode& n);
  void exec_hostio(const SpmdNode& n);
  void exec_local_loop(const SpmdNode& n);
  void exec_reduce(const SpmdNode& n);
  void exec_overlap(const SpmdNode& n);
  void exec_cshift(const SpmdNode& n);
  void exec_irregular(const SpmdNode& n);
  void exec_slice_bcast(const SpmdNode& n);

  /// What the timing half of a LocalLoop or Reduce visit consumes. The
  /// per-processor spans point into the tape; `iters` is empty for a
  /// replicated loop and `trues` for an unmasked or replicated one.
  struct LoopVisit {
    long long points = 0;       // iteration-space size
    long long inner_trips = 0;  // inner dim-reduction trip count
    std::span<const long long> iters;
    std::span<const long long> trues;
  };

  // Functional halves: evaluate, update storage and the environment, and
  // record the visit on the tape.
  [[nodiscard]] LoopVisit resolve_local_loop(const SpmdNode& n,
                                             const compiler::ArrayMap* home);
  [[nodiscard]] LoopVisit resolve_reduce(const SpmdNode& n, const compiler::ArrayMap* home);
  // Timing halves, shared by run() and replay().
  void charge_local_loop(const SpmdNode& n, const compiler::ArrayMap* home,
                         const LoopVisit& v);
  void charge_reduce(const SpmdNode& n, const compiler::ArrayMap* home, const LoopVisit& v);

  // --- timing tape ----------------------------------------------------------------
  // One entry per DO (trips), WHILE (trips), IF (outcome), CSHIFT (amount)
  // and irregular-comm (points) visit; a LocalLoop visit records its points,
  // then — when there are any — its inner trips and per-processor counts; a
  // Reduce visit its points and per-processor counts. Scalar assigns and
  // the other communication nodes are priced from configuration alone.
  long long tape_next() { return tape_.at(tape_pos_++); }
  std::span<const long long> tape_span(std::size_t count);
  /// Appends `count` zeroed per-processor slots; returns their tape index.
  std::size_t tape_slots(std::size_t count);

  /// Resets clocks, network occupancy, attribution and the noise stream
  /// for a run under `seed` (the startup skews are its first draws).
  void reset_timing(std::uint64_t seed);

  // --- helpers ------------------------------------------------------------------
  /// Resolves `space` into lo_/hi_/step_ scratch; returns the point count.
  long long resolve_space(const std::vector<compiler::IterIndex>& space);

  [[nodiscard]] const compiler::ArrayMap* home_map(const SpmdNode& n) const {
    return n.home_symbol >= 0 ? layout_->map_for(n.home_symbol) : nullptr;
  }

  /// Owner (grid-linear processor) of one iteration point.
  [[nodiscard]] int owner_of_point(const SpmdNode& n, const compiler::ArrayMap& home,
                                   std::span<const long long> point);
  /// Per-processor iteration counts of the resolved space from per-dimension
  /// ownership histograms, without visiting points. False (and `iters`
  /// untouched) when the home mapping is not separable per grid axis.
  bool count_owned_iterations(const SpmdNode& n, const compiler::ArrayMap& home,
                              std::span<long long> iters);

  [[nodiscard]] std::vector<AccessPattern> access_patterns(const SpmdNode& n);
  [[nodiscard]] long long working_set_bytes(const front::Expr& lhs,
                                            const front::Expr* rhs,
                                            long long points) const;

  void charge_comp(int node_id, int proc, double t);
  void charge_comm(int node_id, int proc, double t);
  void charge_overhead(int node_id, int proc, double t);
  void charge_all_comp(int node_id, double t);
  void charge_all_overhead(int node_id, double t);

  NodeMetric& metric(int node_id) { return metrics_.at(static_cast<std::size_t>(node_id)); }

  /// Compile-time operation counts for one node (the shared
  /// CompiledProgram::node_ops table; see engine.hpp for the same pattern,
  /// including the at() guard against unnumbered hand-built nodes).
  [[nodiscard]] const compiler::OpCounts& body_ops(const SpmdNode& n) const {
    return node_ops_->at(static_cast<std::size_t>(n.id)).body;
  }
  [[nodiscard]] const compiler::OpCounts& cond_ops(const SpmdNode& n) const {
    return node_ops_->at(static_cast<std::size_t>(n.id)).cond;
  }

  /// Pairwise recursive-doubling collective over all processors: per stage
  /// both partners exchange `bytes` and apply `per_stage_extra` time.
  void collective_stages(int node_id, long long bytes, double per_stage_extra);

  // Pointers (not references) so rebind() can re-target the executor; null
  // only between default construction and the first rebind.
  const compiler::CompiledProgram* prog_ = nullptr;
  // Points at prog_->node_ops, or at fallback_node_ops_ for hand-built
  // programs that bypassed the pipeline.
  const std::vector<compiler::NodeOpCounts>* node_ops_ = nullptr;
  std::vector<compiler::NodeOpCounts> fallback_node_ops_;
  const compiler::DataLayout* layout_ = nullptr;
  const machine::MachineModel* machine_ = nullptr;
  SimOptions options_;
  int nprocs_ = 0;

  compiler::ScalarEnv env_{0};
  Storage storage_;
  // NodeCostModel and SimNetwork hold references/config, so retargeting is
  // an emplace rather than an assignment.
  std::optional<NodeCostModel> cost_;
  machine::CommModel comm_model_{machine::CommComponent{}};
  std::optional<SimNetwork> network_;
  NoiseModel noise_{0, false};

  std::vector<double> clock_;
  std::vector<NodeMetric> metrics_;
  SimResult result_;

  std::vector<long long> tape_;
  std::size_t tape_pos_ = 0;
  bool replaying_ = false;

  // Reused per-visit scratch of the functional half.
  struct PendingStore {
    std::size_t offset;
    double value;
  };
  std::vector<long long> lo_, hi_, step_;  // resolved iteration space
  std::vector<long long> point_, lhs_idx_;
  std::vector<PendingStore> pending_;
  std::vector<int> owner_coords_scratch_;
  std::vector<int> grid_driver_;        // count_owned_iterations: space dim per grid axis
  std::vector<int> grid_home_dim_;      // ... and the home dim it drives
  std::vector<long long> owner_hist_;   // ... per-axis ownership histograms
  std::vector<int> coords_scratch_;
};

}  // namespace hpf90d::sim
