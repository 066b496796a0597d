// cost_program.hpp — every expression of a compiled program as register
// bytecode: the one expression evaluator of both engines.
//
// The pipeline flattens each expression the engines evaluate (right-hand
// sides, bounds and spaces, conditions, shift amounts, forall masks and
// targets, reduction arguments, printed values) once into a linear
// register program over BatchEnv slots, with variable ids and PARAMETER
// fallbacks resolved statically. eval_code_batch runs one expression over
// the lanes of a structure-of-arrays BatchEnv, one instruction at a time
// over every lane: a lane per sweep point in the interpretation engine
// (core::BatchEngine, no array storage, so an element read fails its
// lane), a lane per forall point in the functional simulator
// (sim::Executor, over ArrayView storage).
//
// Instructions follow the expression's left-to-right post-order, and every
// failure (an undefined variable, an integer division by zero, a subscript
// out of bounds, a size() dimension out of range) fails only its own lane:
// nothing traps and no out-of-bounds element is read. lane_error replays a
// failed lane and turns its first failure into the located diagnostic of
// the per-instruction source table.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "compiler/mapping.hpp"
#include "compiler/spmd_ir.hpp"
#include "hpf/fold.hpp"
#include "support/diagnostics.hpp"

namespace hpf90d::compiler {

enum class CostOp : std::uint8_t {
  Const,     // dst = pool[a]
  Load,      // dst = env[a]; fails when slot a is undefined
  LoadDflt,  // dst = env[a], or pool[b] when undefined (PARAMETER fallback)
  Fail,      // unconditional failure (unlowered or unresolved call, ...)
  Neg,       // dst = -r[a]
  Not,       // dst = r[a] == 0 ? 1 : 0
  Add, Sub, Mul, Div, Pow,          // dst = r[a] op r[b]
  IDiv,      // dst = (ll)r[a] / (ll)r[b]; fails where front::int_divide does
  Lt, Le, Gt, Ge, Eq, Ne,           // dst = r[a] op r[b] ? 1 : 0
  And, Or,   // non-short-circuit
  FMod, IMod, Min2, Max2, Sign2,    // two-operand intrinsics (IMod as IDiv)
  Exp, Log, Sqrt, Abs, Sin, Cos, Atan, Trunc, Nint,  // one-operand intrinsics
  Merge,     // dst = r[c] != 0 ? r[a] : r[b]
  Move,      // dst = r[a]
  ArrayLoad,    // dst = element (r[a], ..., r[a+rank-1]) of arrays[b]; with c = 1
                // (fused), element (s[a], ..., s[a+rank-1]) for s = subscripts
  ArrayOffset,  // dst = that element's row-major offset, nothing read
  Size,      // dst = extent k = trunc(r[a]) of arrays[b]; fails unless 1 <= k <= rank
};

struct CostInstr {
  CostOp op = CostOp::Fail;
  std::uint16_t dst = 0;
  std::uint16_t a = 0;
  std::uint16_t b = 0;
  std::uint16_t c = 0;
};

/// One subscript of a fused element access (ArrayLoad/ArrayOffset with
/// c = 1), the form `v`, `v + k`, `v - k`, `k + v` or `k` of a
/// non-PARAMETER variable v and an integer literal k: the value of BatchEnv
/// slot `slot` plus `offset` (v - k as v + (-k), the same double), or
/// `offset` alone when slot is -1. The access reads the slot in place of
/// the Load it replaces, and fails as that Load would: a lane where the
/// slot is undefined fails with the diagnostic at `loc` naming
/// texts[text], before any bounds test of the access.
struct AffineSubscript {
  std::int32_t slot = -1;
  double offset = 0;
  support::SourceLoc loc;
  std::uint32_t text = 0;
};

/// Where an instruction came from, for its failure's diagnostic: the
/// expression's location and the name (or, for Fail, the message) the
/// diagnostic quotes, as an index into CostProgram::texts. `probe` >= 0
/// marks the first instruction of an array element reference and holds
/// that reference's ArrayLoad: an engine without array storage fails the
/// reference there, before its subscripts.
struct CostSource {
  support::SourceLoc loc;
  std::uint32_t text = 0;
  std::int32_t probe = -1;
};

/// One flattened expression: a slice of CostProgram::code, the register
/// holding its value, and the arrays (CostProgram::arrays ids, a slice of
/// CostProgram::expr_arrays) its element accesses touch. The slice of an
/// element offset (NodeCost::lhs) ends with the target array itself, after
/// any array its subscripts read, and holds it twice when a subscript
/// reads the target too.
struct ExprCode {
  std::uint32_t first = 0;
  std::uint32_t count = 0;
  std::uint16_t result = 0;
  std::uint16_t regs = 0;
  std::uint32_t arrays_first = 0;
  std::uint32_t arrays_count = 0;
};

/// Per-SpmdNode indices into CostProgram::exprs (-1 = the node has no such
/// expression). Space dimensions are triples (lo, hi, step) stored
/// consecutively in CostProgram::space_codes; a -1 step means "constant 1"
/// (a null IterIndex::stride). HostIO arguments are consecutive exprs from
/// io_first.
struct NodeCost {
  std::int32_t rhs = -1;         // ScalarAssign / LocalLoop right-hand side
  std::int32_t cond = -1;        // IfBlock / WhileLoop condition, LocalLoop mask
  std::int32_t lhs = -1;         // LocalLoop target element's offset
  std::int32_t arg = -1;         // LocalLoop inner-reduction / Reduce argument
  std::int32_t do_lo = -1, do_hi = -1, do_step = -1;
  std::int32_t comm_amount = -1; // CShiftComm shift expression
  std::int32_t inner_lo = -1, inner_hi = -1;  // InnerReduce bounds
  std::int32_t space_first = -1; // first (lo,hi,step) triple in space_codes
  std::int32_t space_dims = 0;
  std::int32_t io_first = -1;
};

/// An array the bytecode touches (ArrayLoad/ArrayOffset/Size b). When
/// size() reads it, BatchEnv slots [extent_slot, extent_slot + rank), after
/// the symbol slots, hold its extents; engines define them from the bound
/// layout, undefined where the layout cannot resolve them.
struct CostArray {
  int symbol = -1;
  int rank = 0;
  int extent_slot = -1;  // -1: size() never reads it
};

/// The flattened program for one CompiledProgram, built by the pipeline
/// right after node numbering and shared (immutable) by every engine.
struct CostProgram {
  std::vector<CostInstr> code;    // all expressions, concatenated
  std::vector<CostSource> sources;  // parallel to code
  std::vector<std::string> texts{std::string()};  // distinct source texts
  std::vector<double> pool;       // deduplicated constants
  std::vector<ExprCode> exprs;
  std::vector<NodeCost> nodes;    // indexed by SpmdNode::id
  std::vector<std::int32_t> space_codes;  // (lo,hi,step) triples
  std::vector<CostArray> arrays;
  std::vector<std::uint16_t> expr_arrays;  // ExprCode::arrays_* slices
  std::vector<AffineSubscript> subscripts;  // fused accesses' subscripts, rank per access
  std::size_t slots = 0;          // BatchEnv slots: symbols, then extents
  std::uint16_t max_regs = 0;     // register-file size covering every expr
};

/// Flattens every expression the engines evaluate in `prog` (requires
/// numbered nodes).
[[nodiscard]] std::shared_ptr<const CostProgram> compile_cost_program(
    const CompiledProgram& prog);

/// The (symbol id, value) pairs an environment starts with, in symbol
/// order: every PARAMETER symbol's folded value, then the user `bindings`
/// (which take precedence — the framework's problem-size override). The
/// fold is pure in (symbols, bindings), so a caller running repeated sweeps
/// computes it once per (program, problem) and scatters it into any number
/// of environments (see core::BatchLane::seed).
struct SeededValues {
  std::vector<std::pair<int, double>> defined;
};
[[nodiscard]] SeededValues seed_values(const front::SymbolTable& symbols,
                                       const front::Bindings& bindings);

/// The lane granule of the batch evaluator: one cache line of doubles, the
/// widest vector any mainstream ISA retires in one register (AVX-512) and a
/// whole-number multiple of SSE2/NEON/AVX2 widths. Column strides, register
/// files and evaluation widths are padded to a multiple of it (a *stripe*),
/// so a vector body never straddles a column's end.
inline constexpr std::size_t kBatchStripe = 8;

/// `lanes` padded to whole stripes.
inline constexpr std::size_t stripe_width(std::size_t lanes) {
  return (lanes + kBatchStripe - 1) / kBatchStripe * kBatchStripe;
}

/// Structure-of-arrays environment for lockstep evaluation: values(slot)
/// [lane] with a parallel defined mask. Lane count is fixed per reset;
/// slots are symbol ids, then array extents. Columns are padded to a
/// kBatchStripe multiple (stride()); padding lanes read as undefined zeros,
/// so evaluation computes harmless garbage for them.
class BatchEnv {
 public:
  void reset(std::size_t slots, std::size_t lanes) {
    stride_ = stripe_width(lanes);
    values_.assign(slots * stride_, 0.0);
    defined_.assign(slots * stride_, 0);
  }

  /// Column spacing: the lane count rounded up to a kBatchStripe multiple.
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
  /// Defines lanes [lane, lane + count) of `slot` as first, first + step,
  /// first + 2 step, ...: one run of a loop index (step 0 holds it still).
  void define_run(int slot, std::size_t lane, std::size_t count, long long first,
                  long long step) {
    const std::size_t at = static_cast<std::size_t>(slot) * stride_ + lane;
    for (std::size_t j = 0; j < count; ++j) {
      values_[at + j] = static_cast<double>(first + static_cast<long long>(j) * step);
    }
    std::fill_n(defined_.begin() + static_cast<std::ptrdiff_t>(at), count,
                static_cast<unsigned char>(1));
  }
  /// Defines lane `lane`'s extent slots (CostArray::extent_slot) from
  /// `layout`, leaving undefined those it cannot resolve.
  void define_extents(const CostProgram& cp, const DataLayout& layout, std::size_t lane);
  /// Sets every lane of `slot`, padding included: a replicated value.
  void broadcast(int slot, double value, bool defined = true) {
    const std::size_t at = static_cast<std::size_t>(slot) * stride_;
    std::fill_n(values_.begin() + static_cast<std::ptrdiff_t>(at), stride_, value);
    std::fill_n(defined_.begin() + static_cast<std::ptrdiff_t>(at), stride_,
                static_cast<unsigned char>(defined ? 1 : 0));
  }

 private:
  std::size_t stride_ = 0;
  std::vector<double> values_;
  std::vector<unsigned char> defined_;
};

/// Row-major storage of one CostProgram::arrays entry, as the simulator
/// binds it: extents and element strides as doubles (exact far beyond any
/// array that fits in memory). A null `extents` leaves the array unbound:
/// its element accesses fail.
struct ArrayView {
  double* data = nullptr;
  const double* extents = nullptr;
  const double* strides = nullptr;
};

/// Executes one compiled expression over lanes [0, width) of `env` in
/// lockstep; `width` is a kBatchStripe multiple no larger than
/// env.stride(). Dispatch is instruction-major: each instruction runs one
/// loop over every lane, vectorized where the compiler can (see
/// HPF90D_SIMD_LANES in the implementation). `arrays` is indexed like
/// CostProgram::arrays, or empty where no array storage exists (the
/// interpretation engine): every element access then fails. `regs` holds max_regs * width doubles,
/// 64-byte aligned; `out` and `ok` hold `width` entries (ok[l] == 0 marks a
/// failed lane, whose out value is unspecified). No fast-math
/// reassociation is in play, so a lane's value does not depend on the
/// width or on the other lanes. Returns the stripes covered (telemetry).
std::size_t eval_code_batch(const CostProgram& cp, const ExprCode& c, const BatchEnv& env,
                            std::span<const ArrayView> arrays, double* regs, double* out,
                            unsigned char* ok, std::size_t width);

/// The located diagnostic of lane `lane`'s first failure in `c`, found by
/// replaying the evaluation (same env, arrays and width) one instruction at
/// a time. Cold: for a lane eval_code_batch reported failed.
[[nodiscard]] support::CompileError lane_error(const CostProgram& cp, const ExprCode& c,
                                               const BatchEnv& env,
                                               std::span<const ArrayView> arrays,
                                               double* regs, std::size_t width,
                                               std::size_t lane);

}  // namespace hpf90d::compiler
