// spmd_ir.hpp — the loosely synchronous SPMD node-program representation.
//
// Phase 1 of the framework compiles HPF into a "loosely synchronous SPMD
// program structure ... consisting of alternating phases of local
// computation and global communication" (paper §4.1 step 5). This IR is
// that structure: a tree whose leaves are local-computation loops,
// replicated scalar operations, and communication operations, and whose
// interior nodes are the replicated control constructs (do / while / if).
//
// Both consumers execute the same IR:
//   * core/engine.hpp   — the interpretation engine (predicted time),
//   * sim/executor.hpp  — the functional simulator  (measured time).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compiler/opcount.hpp"
#include "hpf/ast.hpp"
#include "hpf/directives.hpp"
#include "hpf/sema.hpp"

namespace hpf90d::compiler {

enum class SpmdKind {
  Seq,            // ordered children (program body, loop bodies)
  ScalarAssign,   // replicated scalar computation
  LocalLoop,      // owner-computes data-parallel loop (from forall)
  OverlapComm,    // boundary exchange for subscript offsets (ghost cells)
  CShiftComm,     // cshift/tshift intrinsic: circular shift into a temporary
  GatherComm,     // irregular gather / regular remap prefetch
  ScatterComm,    // irregular scatter write-back (vector-subscripted LHS)
  SliceBroadcast, // loop-invariant slice of a distributed dim read by all
  Reduce,         // global reduction (sum/product/maxval/minval/maxloc)
  DoLoop,         // replicated counted loop
  WhileLoop,      // replicated while loop
  IfBlock,        // replicated branch
  HostIO,         // print *, ... — node 0 <-> host (SRM) traffic
};

[[nodiscard]] std::string_view spmd_kind_name(SpmdKind k) noexcept;

/// Reduction operator of a Reduce node or an inner dim-reduction, resolved
/// from the call's intrinsic id at lowering.
enum class ReduceOp { Sum, Product, MaxVal, MinVal, MaxLoc };

/// The intrinsic's Fortran name ("sum", "maxloc", ...).
[[nodiscard]] std::string_view reduce_op_name(ReduceOp op) noexcept;

/// One dimension of a local iteration space (a forall index).
struct IterIndex {
  std::string name;
  int symbol = -1;
  front::ExprPtr lo, hi, stride;  // stride may be null (1)

  [[nodiscard]] IterIndex clone() const;
};

enum class GatherPattern {
  Irregular,  // vector subscript — runtime-resolved gather/scatter
  Remap,      // affine but non-unit / transposed — regular remap
};

struct SpmdNode;
using SpmdNodePtr = std::unique_ptr<SpmdNode>;

struct CostProgram;  // cost_program.hpp — flattened priced-expression bytecode

/// 128-bit content digest: two independent 64-bit hash streams over one
/// input (pipeline.hpp computes the layout fingerprint's and the value
/// digest).
struct LayoutDigest {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  friend bool operator==(const LayoutDigest&, const LayoutDigest&) = default;
};

struct SpmdNode {
  SpmdKind kind = SpmdKind::Seq;
  front::SourceLoc loc;
  int id = -1;  // stable preorder id (assigned by the pipeline)

  // --- LocalLoop ---------------------------------------------------------
  std::vector<IterIndex> space;
  front::ExprPtr mask;   // LocalLoop mask; IfBlock / WhileLoop condition
  front::ExprPtr lhs;    // LocalLoop body assignment / ScalarAssign target
  front::ExprPtr rhs;
  int home_symbol = -1;  // array whose owner executes each iteration
  /// Which forall index (position in `space`) drives each home-array dim;
  /// -1 for dims subscripted by loop-invariant expressions. The paired
  /// offset is the constant c in `a(i+c)`.
  std::vector<int> home_driver;
  std::vector<long long> home_driver_offset;
  /// Inner sequential reduction for dim-reductions:
  /// lhs(space) = op over inner.index of inner_arg
  struct InnerReduce {
    ReduceOp op = ReduceOp::Sum;  // Sum | Product | MaxVal | MinVal
    IterIndex index;
    front::ExprPtr arg;
  };
  std::optional<InnerReduce> inner;

  // --- communication nodes -------------------------------------------------
  int comm_array = -1;       // source array symbol
  int comm_temp = -1;        // destination temporary (CShiftComm)
  int comm_dim = 0;          // 0-based array dimension
  long long comm_offset = 0; // OverlapComm ghost offset (signed)
  front::ExprPtr comm_amount;  // CShiftComm shift expression
  GatherPattern gather_pattern = GatherPattern::Irregular;
  std::string comm_note;     // classification note for reports/AAG
  bool per_element = false;  // true when message vectorization is disabled
  /// True when the communicated array is not written inside the innermost
  /// enclosing loop: after the first trip the (re-issued) exchange overlaps
  /// with computation, and the interpretation engine charges only its
  /// non-overlappable part (paper §3.3: "overlap between computation and
  /// communication" heuristic).
  bool comm_src_invariant = false;

  // --- Reduce ---------------------------------------------------------------
  ReduceOp reduce_op = ReduceOp::Sum;
  front::ExprPtr reduce_arg;       // element expression over `space`
  int reduce_result = -1;          // scalar symbol receiving the result

  // --- DoLoop ----------------------------------------------------------------
  std::string do_var;
  int do_symbol = -1;
  front::ExprPtr do_lo, do_hi, do_step;

  // --- HostIO ----------------------------------------------------------------
  std::vector<front::ExprPtr> io_args;

  // --- structure ---------------------------------------------------------------
  std::vector<SpmdNodePtr> children;
  std::vector<SpmdNodePtr> else_children;

  [[nodiscard]] std::string str(int indent = 0) const;
};

/// Compiler options (paper §4.2: "provisions to take into consideration a
/// set of compiler optimizations ... turned on/off by the user").
struct CompilerOptions {
  /// Hoist communication out of element loops into one aggregate message
  /// per array per forall (message vectorization). Off = one message per
  /// element, the unoptimized compiler behaviour.
  bool message_vectorization = true;
  /// Assumed probability that a forall mask evaluates true, used by the
  /// *predictor* when no better information exists. The simulator measures
  /// the actual fraction. Overridable per run via binding "mask__prob".
  double default_mask_probability = 1.0;
};

/// Static operation counts for one SPMD node, computed once at compile
/// time (paper §4.4: overheads "using instruction counts"). `body` prices
/// one element of the node's assignment/reduction work (including the
/// accumulate add for reductions), `cond` its mask / loop / branch
/// condition. Both are zero for kinds without priced expressions.
struct NodeOpCounts {
  OpCounts body;
  OpCounts cond;
  /// 1 + distinct array references in the node's priced expressions
  /// (count_array_refs over rhs / inner arg / reduce arg) — the `arrays`
  /// factor of the engine's working-set heuristic, hoisted out of the
  /// per-point hot path because it depends only on the node.
  long long ws_arrays = 1;
};

/// The complete output of compilation phase 1.
struct CompiledProgram {
  std::string name;
  front::Program ast;              // normalized AST (statement bodies)
  front::SymbolTable symbols;      // extended with compiler temporaries
  front::DirectiveSet directives;
  CompilerOptions options;
  SpmdNodePtr root;                // Seq over the program body
  /// Compiler-introduced array temporaries (shift destinations), each
  /// mapped like an existing array: (temp symbol, like symbol). DataLayout
  /// replays these as aliases when a configuration is resolved.
  std::vector<std::pair<int, int>> temp_aliases;
  int node_count = 0;
  /// Serialization of the layout-relevant structure (directives, symbols,
  /// temp aliases), filled by the pipeline so a layout fingerprint need
  /// not re-walk the program on every cache lookup. Empty for hand-built
  /// programs; the fingerprint then computes it on the fly.
  std::string structure_fingerprint;
  /// Compact rendering of structure_fingerprint — its fnv1a64 plus length —
  /// precomputed by the pipeline so a layout fingerprint appends a ready
  /// string instead of formatting one per cache lookup. Empty for
  /// hand-built programs.
  std::string structure_digest;
  /// Process-unique id stamped by the pipeline (0 for hand-built
  /// programs). Lets address-keyed consumers detect that a reused address
  /// holds a *different* compilation.
  std::uint64_t compile_id = 0;
  /// compiler::value_digest of this program, stamped by the pipeline (zero
  /// for hand-built programs): programs with equal digests record equal
  /// simulator value tapes under equal bindings.
  LayoutDigest value_digest;
  /// Per-node operation counts indexed by SpmdNode::id, filled by the
  /// pipeline (compute_node_ops). Computed once at compile time and shared
  /// by every consumer — all engine arenas and the simulator's cost model —
  /// instead of being re-derived per engine.
  std::vector<NodeOpCounts> node_ops;
  /// Every expression the engines evaluate, flattened to register bytecode
  /// (cost_program.hpp), built by the pipeline alongside node_ops and
  /// shared immutably by every engine arena and the simulator. Both are
  /// empty only in hand-built programs that bypassed lower_program, which
  /// neither engine runs.
  std::shared_ptr<const CostProgram> cost_program;

  [[nodiscard]] std::string str() const { return root ? root->str() : std::string{}; }
};

/// Walks the SPMD tree and returns the per-node operation-count table
/// (indexed by SpmdNode::id; requires numbered nodes).
[[nodiscard]] std::vector<NodeOpCounts> collect_node_ops(const CompiledProgram& prog);

/// Fills prog.node_ops via collect_node_ops. Called by the pipeline after
/// node numbering.
void compute_node_ops(CompiledProgram& prog);

}  // namespace hpf90d::compiler
