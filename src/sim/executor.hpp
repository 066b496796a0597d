// executor.hpp — functional execution of the SPMD node program with
// discrete-event timing. This is the repository's stand-in for "run it on
// the iPSC/860 and measure": the same compiler output the interpretation
// engine prices is executed here with real data, per-processor clocks, an
// event-driven hypercube network, the fine i860 cost model, and seeded OS
// noise (see DESIGN.md's substitution table).
//
// Values come from the one expression evaluator both engines share, the
// program's cost bytecode (compiler/cost_program.hpp). Replicated scalar
// code runs it on one stripe; a forall or reduction runs it over up to 64
// of its points at a time, one point per lane, in odometer order (the
// points load a run of the innermost dimension at a time): a forall's
// mask, value and target for every lane of a chunk before any of the
// chunk's stores commit, a reduction's argument for every lane before the
// sequential accumulation. A failing point raises the diagnostic of its
// first failing instruction; the first failing point in odometer order
// wins, and a masked-off point never fails.
//
// Where a forall's stores go is decided from the program: when none of its
// mask, value, inner-reduction argument or target-subscript expressions
// reads the target array (CostProgram::expr_arrays, the target's own
// ArrayOffset left out), each chunk's stores go straight into storage, as
// no later point can see them; a forall that reads its own target holds
// every store back until its last chunk is evaluated (snapshot
// semantics). A failing point therefore may leave a direct-commit forall's
// target partly written. That is harmless: the throw ends the functional
// pass, and record() is one-shot per rebind, which re-fills storage.
#pragma once

#include <array>
#include <cmath>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "compiler/cost_program.hpp"
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

/// What a program's values decide about its timing, recorded once per
/// (value digest, bindings) by the functional pass and independent of the
/// layout, the mapping directives, the machine and the options other than
/// the WHILE trip limit (compiler::value_digest covers what the pass
/// reads). `words` holds, in walk order: one entry per DO (trips), WHILE
/// (trips), IF (outcome), CSHIFT (amount) and irregular-comm (points)
/// visit; per LocalLoop visit its point count and, when there are points,
/// its inner trips, the resolved iteration space (lo, hi, step per
/// dimension) and, when masked, one mask bit per point in odometer order;
/// per Reduce visit its point count and, when there are points, its space.
/// A replicated loop records its space too, so the words do not depend on
/// which loops a mapping distributes. `printed` and `scalars` are the
/// SimResult maps of the same name.
struct ValueTape {
  std::vector<long long> words;
  std::map<std::string, double> printed;
  std::map<std::string, double> scalars;

  /// Resident size, the unit of the session's value-tape budget: the
  /// words plus every map entry's name and value.
  [[nodiscard]] std::size_t bytes() const noexcept;
};

/// The executor is reusable: a default-constructed executor is an *arena*
/// that `rebind()` points at a new configuration before each run. Rebinding
/// resets every piece of simulation state exactly as construction would
/// (storage contents, clocks, network occupancy, noise stream) while
/// reusing the large scratch allocations — per-worker executors serve
/// thousands of measured points without per-run heap churn.
///
/// A measurement has two halves, and they meet only at a ValueTape.
/// The *functional pass* (record) evaluates the program against real data
/// and records everything value-dependent that timing needs. It reads the
/// bindings and the array extents, never the processor count, the grid,
/// the mapping, the machine, the clocks or the noise stream, so one pass
/// serves every (layout, machine, seed) of every program with the same
/// value digest (compiler::value_digest: HPF directives never change a
/// program's values) under the same bindings. The *timing
/// walk* (retime) charges clocks, the network and the noise stream from a
/// tape alone, without evaluating a single expression. run_into() is record()
/// then retime() of the executor's own tape; re-timing a tape recorded
/// under any other layout or machine is bit-identical to a fresh run under
/// this one.
///
/// The timing walk runs from a *timing plan*. What is derived once:
///   - per node, on its first visit after a rebind: a ScalarAssign's
///     statement cost, a WHILE's condition cost, a LocalLoop's or
///     Reduce's access patterns (array footprints per processor) and
///     working-set arrays, and an OverlapComm's exchange (each processor's
///     partner, message bytes, pack and unpack times, and steady-state
///     re-send time);
///   - per (CShiftComm, shift), on its first visit after a rebind: the
///     exchange likewise, with each receiver's local copy time, or a
///     serial dimension's copy time per node;
///   - per LocalLoop/Reduce visit with points, on the first walk of a tape
///     after a rebind (the deriving walk): each processor's iteration count
///     under the bound layout (ownership histograms, or the recorded space
///     and mask bits walked point by point), its compute charge before
///     noise (iterations x per-iteration time) and its overhead. A visit
///     whose words (points, inner trips, space, mask bits) equal its node's
///     previous visit's shares that visit's charges.
/// What is derived per seed, in the same order on every walk: the startup
/// skew, one noise draw per charged compute phase and per steady-state
/// re-send, and every network event (OverlapComm, CShiftComm, irregular
/// exchanges, collectives), so a later seed reads the plan back, draws
/// noise and sends messages, and allocates nothing. The draws themselves
/// are not re-derived when the caller passes the seed's NoiseStream (a
/// session shares one per seed, noise.hpp): the walk's cursor reads the
/// stream's memoized normal pairs and words, and seeds no engine; without
/// one it seeds its own. What invalidates the
/// plan: rebind() (a new layout, machine, options or program, even an
/// equal one) drops all of it; record() into the planned tape, or
/// retiming another tape object, drops the per-visit charges (the
/// exchanges depend on no tape and stay).
class Executor {
 public:
  /// Arena construction: no state bound yet; call rebind() before a run.
  Executor() = default;

  Executor(const compiler::CompiledProgram& prog, const compiler::DataLayout& layout,
           const machine::MachineModel& machine, const SimOptions& options,
           const front::Bindings& bindings);

  /// Re-targets the executor, producing bit-identical behaviour to a fresh
  /// Executor(prog, layout, machine, options, bindings). The referenced
  /// arguments must outlive every record/retime until the next rebind.
  void rebind(const compiler::CompiledProgram& prog, const compiler::DataLayout& layout,
              const machine::MachineModel& machine, const SimOptions& options,
              const front::Bindings& bindings);

  /// The functional pass: runs the program's values into `tape` (previous
  /// contents discarded). One-shot per rebind: it consumes the bound
  /// storage and environment. Throws the program's own diagnostic (and
  /// leaves `tape` unspecified) when a value cannot be computed.
  void record(ValueTape& tape);

  /// The timing walk: re-times `tape` under the bound layout, machine and
  /// options with noise seed `seed` and fills `out` in place, reusing its
  /// vectors (previous contents discarded). Any number of calls per
  /// rebind; the timing plan is derived on the first call for a tape and
  /// read back while later calls pass the same, unchanged tape object.
  /// `stream`, when given, is `seed`'s shared NoiseStream: the walk draws
  /// its noise from it instead of seeding an engine, with the same bits.
  void retime_into(const ValueTape& tape, std::uint64_t seed, SimResult& out,
                   const NoiseStream* stream = nullptr);
  /// Same walk, returning only the program time.
  [[nodiscard]] double retime(const ValueTape& tape, std::uint64_t seed,
                              const NoiseStream* stream = nullptr);

  /// record() into the executor's own tape, then retime it into `out` under
  /// the bound options' seed (and that seed's `stream`, if given). One-shot
  /// per rebind.
  void run_into(SimResult& out, const NoiseStream* stream = nullptr);

  /// Re-times the executor's own tape (the last run_into()'s) under `seed`:
  /// bit-identical to SimResult::total of a fresh run with that seed.
  [[nodiscard]] double replay(std::uint64_t seed, const NoiseStream* stream = nullptr) {
    return retime(tape_, seed, stream);
  }

 private:
  using SpmdNode = compiler::SpmdNode;
  struct NodePlan;
  struct Exchange;

  // --- functional pass --------------------------------------------------------
  void record_seq(const std::vector<compiler::SpmdNodePtr>& nodes);
  void record_node(const SpmdNode& n);
  void record_do(const SpmdNode& n);
  void record_hostio(const SpmdNode& n);
  void record_while(const SpmdNode& n);
  void record_local_loop(const SpmdNode& n);
  void record_reduce(const SpmdNode& n);
  /// Records the resolved space lo_/hi_/step_ (rank * 3 words).
  void record_space();

  [[nodiscard]] const compiler::NodeCost& node_cost(const SpmdNode& n) const {
    return cost_program_->nodes.at(static_cast<std::size_t>(n.id));
  }
  /// Evaluates expression `id` over lanes [0, width) of env_, binding the
  /// arrays it touches first.
  void eval(std::int32_t id, std::size_t width, double* out, unsigned char* ok);
  /// A replicated value (one stripe, whose lanes agree); throws the
  /// expression's diagnostic when it fails.
  double scalar(std::int32_t id);
  long long scalar_int(std::int32_t id) { return std::llround(scalar(id)); }
  /// Throws the diagnostic of lane `lane` of `id` over `width` lanes.
  [[noreturn]] void fail_lane(std::int32_t id, std::size_t width, std::size_t lane);
  /// Loads up to kLanes further points, in odometer order from point_, into
  /// the space symbols' lanes; returns how many, `more` while some remain.
  /// Each run of the innermost dimension is one compiler::BatchEnv run of
  /// every space symbol (the outer ones step 0), so the symbols' run lists
  /// share their lanes and a fused access reads each run as one slice.
  std::size_t load_points(const SpmdNode& n, bool& more);
  /// Broadcasts lane `last`'s point: the space symbols end as the last
  /// point left them.
  void keep_last_point(const SpmdNode& n, std::size_t last);
  /// Whether a forall's mask, value, inner-reduction argument or target
  /// subscripts read its target array (CostProgram::expr_arrays, the
  /// target's own access left out).
  [[nodiscard]] bool reads_own_target(const SpmdNode& n) const;
  /// Throws the diagnostic of forall point `lane` that failed its mask,
  /// value or target, in that order.
  [[noreturn]] void fail_point(const SpmdNode& n, std::size_t width, std::size_t lane,
                               long long inner_lo, long long inner_hi);

  // --- timing walk -----------------------------------------------------------------
  void time_seq(const std::vector<compiler::SpmdNodePtr>& nodes);
  void time_node(const SpmdNode& n);
  void time_scalar_assign(const SpmdNode& n);
  void time_do(const SpmdNode& n);
  void time_while(const SpmdNode& n);
  void time_if(const SpmdNode& n);
  void time_hostio(const SpmdNode& n);
  void time_local_loop(const SpmdNode& n);
  void time_reduce(const SpmdNode& n);
  void time_overlap(const SpmdNode& n);
  void time_cshift(const SpmdNode& n);
  void time_irregular(const SpmdNode& n);
  void time_slice_bcast(const SpmdNode& n);
  /// Sends one planned exchange's messages from the current clocks and
  /// charges each processor's wait. A receiver's `after` runs after the
  /// arrival or, `copy_while_waiting`, while the message is in flight.
  void exchange(const SpmdNode& n, const Exchange* ex, bool copy_while_waiting);

  /// Appends the block of charges of the visit whose tape words run from
  /// `at` to the walk position, or reuses the node's previous block when
  /// its words are the same.
  void plan_visit(const SpmdNode& n, std::size_t at);
  /// Plans an OverlapComm's exchange (both the first and the steady-state
  /// one) into exchanges_.
  void plan_overlap(const SpmdNode& n, NodePlan& np);
  /// The first of the nprocs exchanges_ entries of CShiftComm `n` by
  /// `shift`, planned on the first visit with that shift after a rebind.
  std::size_t shift_block(const SpmdNode& n, long long shift);
  /// Elements of `map`'s local slab across dimension `dim` on `proc`: the
  /// product of its local counts in the other dimensions.
  [[nodiscard]] long long slab_across(const compiler::ArrayMap& map, int dim, int proc) const;
  /// The processor at `coord` along grid axis `grid_dim` from `proc`.
  [[nodiscard]] int grid_neighbour(int proc, int grid_dim, int coord);
  /// Charges the next planned visit: per processor with iterations, its
  /// compute charge times a noise draw, then its overhead.
  void charge_planned(const SpmdNode& n);
  /// Per-processor iteration (and, when masked, mask-true) counts of the
  /// space in lo_/hi_/step_ under the home mapping, into iters_/trues_.
  void count_owned(const SpmdNode& n, const compiler::ArrayMap& home,
                   std::span<const long long> bits);

  long long tape_next() { return tape_at(1)[0]; }
  /// The next `count` words of the tape being re-timed.
  std::span<const long long> tape_at(std::size_t count);

  // --- helpers ------------------------------------------------------------------
  /// Resolves `n`'s space into lo_/hi_/step_ scratch; returns the point count.
  long long resolve_space(const SpmdNode& n);
  /// Advances point_ through lo_/hi_/step_ in row-major order; false once
  /// the space is exhausted.
  bool next_point();

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

  /// Appends the memory-access patterns of `n`'s references to accesses_.
  void collect_access_patterns(const SpmdNode& n);

  void charge_comp(int node_id, int proc, double t);
  void charge_comm(int node_id, int proc, double t);
  void charge_overhead(int node_id, int proc, double t);
  void charge_all_overhead(int node_id, double t);

  NodeMetric& metric(int node_id) { return metrics_.at(static_cast<std::size_t>(node_id)); }

  /// Compile-time operation counts for one node (the shared
  /// CompiledProgram::node_ops table; at() guards against unnumbered
  /// nodes, as in the interpretation engine).
  [[nodiscard]] const compiler::OpCounts& body_ops(const SpmdNode& n) const {
    return prog_->node_ops.at(static_cast<std::size_t>(n.id)).body;
  }
  [[nodiscard]] const compiler::OpCounts& cond_ops(const SpmdNode& n) const {
    return prog_->node_ops.at(static_cast<std::size_t>(n.id)).cond;
  }

  /// Pairwise recursive-doubling collective over all processors: per stage
  /// both partners exchange `bytes` and apply `per_stage_extra` time.
  void collective_stages(int node_id, long long bytes, double per_stage_extra);

  // Pointers (not references) so rebind() can re-target the executor; null
  // only between default construction and the first rebind.
  const compiler::CompiledProgram* prog_ = nullptr;
  const compiler::DataLayout* layout_ = nullptr;
  const machine::MachineModel* machine_ = nullptr;
  SimOptions options_;
  int nprocs_ = 0;

  // The functional pass's one evaluator: the program's cost bytecode over
  // env_, kLanes forall points per evaluation; replicated values sit in
  // every lane.
  static constexpr std::size_t kLanes = 64;
  const compiler::CostProgram* cost_program_ = nullptr;
  compiler::BatchEnv env_;
  Storage storage_;
  std::vector<compiler::ArrayView> views_;   // indexed like CostProgram::arrays
  std::vector<double> regs_;                 // max_regs * kLanes (+ alignment slack)
  double* regs_aligned_ = nullptr;
  using LaneColumn = std::array<double, kLanes>;
  using LaneFlags = std::array<unsigned char, kLanes>;
  LaneColumn vals_, mask_, value_, offset_;
  LaneFlags ok_, mask_ok_, value_ok_, offset_ok_;
  // NodeCostModel and SimNetwork hold references/config, so retargeting is
  // an emplace rather than an assignment.
  std::optional<NodeCostModel> cost_;
  machine::CommModel comm_model_{machine::CommComponent{}};
  std::optional<SimNetwork> network_;
  // The walk's noise cursor, reset per walk: over the seed's stream when
  // one is passed, else over an engine it seeds; disabled until then.
  NoiseModel noise_;

  std::vector<double> clock_;
  std::vector<NodeMetric> metrics_;

  ValueTape tape_;                   // run_into()'s own tape
  ValueTape* rec_ = nullptr;         // tape record() is filling
  const ValueTape* walk_ = nullptr;  // tape being re-timed
  std::size_t walk_pos_ = 0;

  // The timing plan of `planned_` under the bound layout and machine. Per
  // LocalLoop/Reduce visit with points, in walk order, the first of its
  // block of nprocs charges; a visit whose words equal its node's previous
  // visit's shares that visit's block.
  struct Charge {
    long long iters = 0;  // 0: the processor sits the visit out
    double comp = 0;      // iters x per-iteration time, before noise
    double overhead = 0;
  };
  std::vector<Charge> charges_;
  std::vector<std::size_t> visit_block_;
  std::size_t visit_pos_ = 0;
  const ValueTape* planned_ = nullptr;  // null: no plan derived
  bool deriving_ = false;

  // Per-node constants of the bound layout and machine, filled on the
  // node's first visit after a rebind, and the node's previous visit in the
  // current deriving walk.
  struct NodePlan {
    bool ready = false;
    double stmt_t = 0;          // ScalarAssign: one statement, before noise
    double cond_t = 0;          // WhileLoop: one condition test
    std::size_t access_first = 0, access_count = 0;  // into accesses_
    bool exchanges = false;     // OverlapComm: the dimension is distributed here
    std::size_t exchange_first = 0;  // ... and its nprocs exchanges_ entries
    double serial_copy = -1;    // CShiftComm: a serial dimension's copy (-1: distributed)
    std::size_t last_at = 0, last_len = 0;  // previous visit's tape words
    std::size_t last_block = 0;             // ... and its block
  };
  [[nodiscard]] NodePlan& node_plan(const SpmdNode& n);
  std::vector<NodePlan> node_plans_;
  std::vector<AccessPattern> accesses_;  // array_bytes already per processor

  // Per processor of an exchange under the bound layout and machine, in
  // blocks of nprocs: one per OverlapComm, one per (CShiftComm, shift). A
  // CShiftComm visit's block is a visit_block_ entry of the deriving walk.
  struct Exchange {
    int partner = -1;     // receiver of this processor's message; -1: none
    long long bytes = 0;
    double pack = 0;      // before departure
    double after = 0;     // the receiver's unpacking or local copy
    bool buffered = false;  // OverlapComm steady state: re-sends its slab ...
    double steady = 0;      // ... in this time, before noise
  };
  struct ShiftBlock {
    int node = -1;
    long long shift = 0;
    std::size_t first = 0;
  };
  std::vector<Exchange> exchanges_;
  std::vector<ShiftBlock> shift_blocks_;

  // Reused per-visit scratch.
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
  std::vector<long long> iters_, trues_;  // one visit's per-processor counts
  std::vector<double> depart_, clock_scratch_;  // communication nodes
  std::vector<long long> local_bytes_;
};

}  // namespace hpf90d::sim
