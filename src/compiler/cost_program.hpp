// cost_program.hpp — priced expressions flattened to register bytecode.
//
// The interpretation engine re-evaluates a small set of scalar expressions
// (assignment right-hand sides, loop bounds, branch conditions, shift
// amounts) at every sweep point. Walking the AST for each of them costs a
// virtual-free but still recursive tree traversal, per-node std::optional
// plumbing, and — for unannotated extent clones — a SymbolTable name lookup
// per Var. A CostProgram removes all of that at compile time: every priced
// expression is flattened once into a linear register program over symbol
// slots (variable ids resolved statically, PARAMETER fallbacks baked in,
// static size() calls folded to constants), and the engines execute that
// bytecode with no dispatch, no name lookups, and no exceptions.
//
// The instruction set mirrors compiler::eval_rec exactly — same operation
// order, same integer-division selection by static operand types, same
// failure points — so bytecode evaluation is bit-identical to the tree
// evaluator, including *when* it fails (an undefined critical variable, an
// array element probe, a trapping integer division). Expressions the
// flattener cannot prove equivalent (e.g. size() with a non-static dim
// argument) are left uncompiled (ExprCode::ok == false) and the walker
// falls back to the tree evaluator for just those expressions.
//
// One evaluator runs the bytecode: eval_code_batch, over a
// structure-of-arrays BatchEnv (values[slot][lane]) — one instruction loop
// for all lanes of a lockstep window (core::BatchEngine), one lane when a
// single point is predicted.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "compiler/eval.hpp"
#include "compiler/spmd_ir.hpp"

namespace hpf90d::compiler {

enum class CostOp : std::uint8_t {
  Const,     // dst = pool[a]
  Load,      // dst = env[a]; fails when slot a is undefined
  LoadDflt,  // dst = env[a], or pool[b] when undefined (PARAMETER fallback)
  Fail,      // unconditional failure (array probe, unpriceable intrinsic)
  Neg,       // dst = -r[a]
  Not,       // dst = r[a] == 0 ? 1 : 0
  Add, Sub, Mul, Div, Pow,          // dst = r[a] op r[b]
  IDiv,      // dst = (ll)r[a] / (ll)r[b]; fails where front::int_divide does
  Lt, Le, Gt, Ge, Eq, Ne,           // dst = r[a] op r[b] ? 1 : 0
  And, Or,   // non-short-circuit, as the tree evaluator
  FMod, IMod, Min2, Max2, Sign2,    // two-operand intrinsics (IMod as IDiv)
  Exp, Log, Sqrt, Abs, Sin, Cos, Atan, Trunc, Nint,  // one-operand intrinsics
  Merge,     // dst = r[c] != 0 ? r[a] : r[b]
};

struct CostInstr {
  CostOp op = CostOp::Fail;
  std::uint16_t dst = 0;
  std::uint16_t a = 0;
  std::uint16_t b = 0;
  std::uint16_t c = 0;
};

/// One flattened expression: a slice of CostProgram::code plus the register
/// holding its value. ok == false marks an expression the flattener could
/// not compile; consumers must use the tree evaluator for it.
struct ExprCode {
  std::uint32_t first = 0;
  std::uint32_t count = 0;
  std::uint16_t result = 0;
  std::uint16_t regs = 0;
  bool ok = false;
};

/// Per-SpmdNode indices into CostProgram::exprs (-1 = the node has no such
/// expression). Space dimensions are triples (lo, hi, step) stored
/// consecutively in CostProgram::space_codes; a -1 step means "constant 1"
/// (a null IterIndex::stride).
struct NodeCost {
  std::int32_t rhs = -1;         // ScalarAssign right-hand side
  std::int32_t cond = -1;        // IfBlock / WhileLoop condition
  std::int32_t do_lo = -1, do_hi = -1, do_step = -1;
  std::int32_t comm_amount = -1; // CShiftComm shift expression
  std::int32_t inner_lo = -1, inner_hi = -1;  // InnerReduce bounds
  std::int32_t space_first = -1; // first (lo,hi,step) triple in space_codes
  std::int32_t space_dims = 0;
};

/// The flattened cost program for one CompiledProgram, built by the
/// pipeline right after node numbering and shared (immutable) by every
/// engine.
struct CostProgram {
  std::vector<CostInstr> code;   // all expressions, concatenated
  std::vector<double> pool;      // deduplicated constants
  std::vector<ExprCode> exprs;
  std::vector<NodeCost> nodes;   // indexed by SpmdNode::id
  std::vector<std::int32_t> space_codes;  // (lo,hi,step) triples
  std::uint16_t max_regs = 0;    // register-file size covering every expr
};

/// Flattens every priced expression of `prog` (requires numbered nodes).
[[nodiscard]] std::shared_ptr<const CostProgram> compile_cost_program(
    const CompiledProgram& prog);

/// Lanes per SIMD stripe of the batch evaluator: one cache line of doubles,
/// the widest vector any mainstream ISA retires in one register (AVX-512)
/// and a whole-number multiple of SSE2/NEON/AVX2 widths. Column strides,
/// register files, and the out/ok spans of eval_code_batch are padded to
/// this width so every inner loop has a fixed, compile-time trip count.
inline constexpr std::size_t kBatchStripe = 8;

/// Structure-of-arrays scalar environment for lockstep batch evaluation:
/// values(slot)[lane] with a parallel defined mask. Lane count is fixed per
/// reset; slots mirror ScalarEnv symbol ids. Columns are padded to a
/// kBatchStripe multiple (stride()); padding lanes read as undefined zeros,
/// so stripe-major evaluation computes harmless garbage for them.
class BatchEnv {
 public:
  void reset(std::size_t symbol_count, std::size_t lanes) {
    lanes_ = lanes;
    stride_ = (lanes + kBatchStripe - 1) / kBatchStripe * kBatchStripe;
    values_.assign(symbol_count * stride_, 0.0);
    defined_.assign(symbol_count * stride_, 0);
  }

  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_; }
  /// Column spacing: lanes() rounded up to a kBatchStripe multiple.
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }

  [[nodiscard]] const double* values(int slot) const {
    return values_.data() + static_cast<std::size_t>(slot) * stride_;
  }
  [[nodiscard]] const unsigned char* defined(int slot) const {
    return defined_.data() + static_cast<std::size_t>(slot) * stride_;
  }

  void define(int slot, std::size_t lane, double value) {
    values_[static_cast<std::size_t>(slot) * stride_ + lane] = value;
    defined_[static_cast<std::size_t>(slot) * stride_ + lane] = 1;
  }

 private:
  std::size_t lanes_ = 0;
  std::size_t stride_ = 0;
  std::vector<double> values_;
  std::vector<unsigned char> defined_;
};

/// Executes one compiled expression over every lane of `env` in lockstep.
/// Dispatch is instruction-major (one switch per instruction, amortized
/// over the whole batch) and every lane loop runs as whole 8-lane stripes
/// over stride-padded columns, so the vectorizer emits full-width bodies
/// with no runtime trip-count checks and no scalar epilogue.
///
/// `regs` must hold max_regs * env.stride() doubles, 64-byte aligned (the
/// stride is a kBatchStripe multiple, so every register column is then
/// cache-line aligned too); `out` and `ok` hold env.stride() entries
/// (ok[l] == 0 marks a lane whose evaluation failed; its out value is
/// unspecified, as are all entries past env.lanes()). Lane l's result is
/// bit-identical to the tree evaluator against lane l's scalar environment,
/// failures included: stripes only regroup independent per-lane
/// arithmetic, and no fast-math reassociation is in play. Returns the
/// number of stripes executed (telemetry).
std::size_t eval_code_batch(const CostProgram& cp, const ExprCode& c,
                            const BatchEnv& env, double* regs, double* out,
                            unsigned char* ok);

}  // namespace hpf90d::compiler
