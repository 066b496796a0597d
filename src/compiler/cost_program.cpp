#include "compiler/cost_program.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

namespace hpf90d::compiler {

using front::Expr;
using front::ExprKind;

namespace {

/// Flattens one expression tree into a temporary instruction buffer.
/// Returns the result register, or -1 when the expression cannot be proved
/// equivalent under the bytecode model (the caller then leaves the tree
/// evaluator in charge of it).
class Flattener {
 public:
  Flattener(const CompiledProgram& prog, CostProgram& out)
      : prog_(prog), out_(out), probe_env_(prog.symbols.size()) {}

  /// Compiles `e`; on success appends the buffered instructions to the
  /// shared code vector and returns a ready ExprCode.
  [[nodiscard]] ExprCode compile(const Expr& e) {
    buf_.clear();
    next_reg_ = 0;
    int r = -1;
    try {
      r = emit(e);
    } catch (...) {
      // e.g. SymbolTable::at on a malformed hand-annotated node — exactly
      // the inputs the tree evaluator owns
      r = -1;
    }
    ExprCode code;
    if (r < 0) return code;  // ok == false
    code.first = static_cast<std::uint32_t>(out_.code.size());
    code.count = static_cast<std::uint32_t>(buf_.size());
    code.result = static_cast<std::uint16_t>(r);
    code.regs = static_cast<std::uint16_t>(next_reg_);
    code.ok = true;
    out_.code.insert(out_.code.end(), buf_.begin(), buf_.end());
    out_.max_regs = std::max<std::uint16_t>(out_.max_regs, code.regs);
    return code;
  }

 private:
  [[nodiscard]] int alloc() {
    if (next_reg_ >= 0xffff) throw std::length_error("cost program register file");
    return next_reg_++;
  }

  [[nodiscard]] std::uint16_t pool_id(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    if (const auto it = pool_ids_.find(bits); it != pool_ids_.end()) return it->second;
    if (out_.pool.size() >= 0xffff) throw std::length_error("cost program pool");
    const auto id = static_cast<std::uint16_t>(out_.pool.size());
    out_.pool.push_back(v);
    pool_ids_.emplace(bits, id);
    return id;
  }

  int push(CostOp op, int dst, int a = 0, int b = 0, int c = 0) {
    buf_.push_back(CostInstr{op, static_cast<std::uint16_t>(dst),
                             static_cast<std::uint16_t>(a),
                             static_cast<std::uint16_t>(b),
                             static_cast<std::uint16_t>(c)});
    return dst;
  }

  int emit_const(double v) { return push(CostOp::Const, alloc(), pool_id(v)); }
  int emit_fail() { return push(CostOp::Fail, alloc()); }

  int emit(const Expr& e) {
    switch (e.kind) {
      case ExprKind::IntLit: return emit_const(static_cast<double>(e.int_value));
      case ExprKind::RealLit: return emit_const(e.real_value);
      case ExprKind::LogicalLit: return emit_const(e.bool_value ? 1.0 : 0.0);
      case ExprKind::Var: {
        // static resolution of what eval_rec resolves per evaluation:
        // unannotated clones by name, PARAMETER constants as fallback
        int id = e.symbol;
        if (id < 0) id = prog_.symbols.find(e.name);
        if (id < 0) return emit_fail();
        const front::Symbol& sym = prog_.symbols.at(id);
        if (sym.kind == front::SymbolKind::Param && sym.const_value) {
          return push(CostOp::LoadDflt, alloc(), id, pool_id(*sym.const_value));
        }
        return push(CostOp::Load, alloc(), id);
      }
      case ExprKind::ArrayRef:
        // the engines evaluate with no array access: always a failed probe
        return emit_fail();
      case ExprKind::Unary: {
        if (e.args.size() != 1) return -1;
        const int a = emit(*e.args[0]);
        if (a < 0) return a;
        switch (e.un_op) {
          case front::UnOp::Neg: return push(CostOp::Neg, alloc(), a);
          case front::UnOp::Plus: return a;
          case front::UnOp::Not: return push(CostOp::Not, alloc(), a);
        }
        return -1;
      }
      case ExprKind::Binary: {
        if (e.args.size() != 2) return -1;
        const int a = emit(*e.args[0]);
        if (a < 0) return a;
        const int b = emit(*e.args[1]);
        if (b < 0) return b;
        CostOp op;
        switch (e.bin_op) {
          case front::BinOp::Add: op = CostOp::Add; break;
          case front::BinOp::Sub: op = CostOp::Sub; break;
          case front::BinOp::Mul: op = CostOp::Mul; break;
          case front::BinOp::Div: op = integer_operands(e) ? CostOp::IDiv : CostOp::Div; break;
          case front::BinOp::Pow: op = CostOp::Pow; break;
          case front::BinOp::Lt: op = CostOp::Lt; break;
          case front::BinOp::Le: op = CostOp::Le; break;
          case front::BinOp::Gt: op = CostOp::Gt; break;
          case front::BinOp::Ge: op = CostOp::Ge; break;
          case front::BinOp::Eq: op = CostOp::Eq; break;
          case front::BinOp::Ne: op = CostOp::Ne; break;
          case front::BinOp::And: op = CostOp::And; break;
          case front::BinOp::Or: op = CostOp::Or; break;
          default: return -1;
        }
        return push(op, alloc(), a, b);
      }
      case ExprKind::Call: return emit_call(e);
    }
    return -1;
  }

  int emit_call(const Expr& e) {
    if (!e.intrinsic) return emit_fail();  // unresolved: the tree evaluator fails too
    if (*e.intrinsic == front::IntrinsicId::Size) {
      // size() is static under the engine's array-free evaluation: the tree
      // evaluator folds declared extents against PARAMETER constants, with
      // only the dim argument read from the runtime environment. Fold the
      // whole call here against an empty environment; if that fails while
      // the dim argument is static, the call fails at runtime too.
      if (e.args.empty()) return -1;
      if (const auto v = try_eval_scalar(e, probe_env_, nullptr, prog_.symbols)) {
        return emit_const(*v);
      }
      if (e.args.size() >= 2 &&
          !try_eval_scalar(*e.args[1], probe_env_, nullptr, prog_.symbols)) {
        return -1;  // dim argument may resolve at runtime: tree evaluator
      }
      return emit_fail();
    }

    std::vector<int> argv;
    argv.reserve(e.args.size());
    for (const auto& a : e.args) {
      const int r = emit(*a);
      if (r < 0) return r;
      argv.push_back(r);
    }
    if (argv.empty()) return -1;

    const auto unary = [&](CostOp op) { return push(op, alloc(), argv[0]); };
    using enum front::IntrinsicId;
    switch (*e.intrinsic) {
      case Atan: return unary(CostOp::Atan);
      case Cos: return unary(CostOp::Cos);
      case Exp: return unary(CostOp::Exp);
      case Log: return unary(CostOp::Log);
      case Mod:
        return push(integer_operands(e) ? CostOp::IMod : CostOp::FMod, alloc(), argv[0], argv[1]);
      case Sin: return unary(CostOp::Sin);
      case Sqrt: return unary(CostOp::Sqrt);
      case Abs: return unary(CostOp::Abs);
      case Min:
      case Max: {
        const CostOp op = *e.intrinsic == Min ? CostOp::Min2 : CostOp::Max2;
        int v = argv[0];
        for (std::size_t i = 1; i < argv.size(); ++i) v = push(op, alloc(), v, argv[i]);
        return v;
      }
      case Sign: return push(CostOp::Sign2, alloc(), argv[0], argv[1]);
      case Merge: return push(CostOp::Merge, alloc(), argv[0], argv[1], argv[2]);
      case Real:
      case Float:
      case Dble: return argv[0];
      case Int: return unary(CostOp::Trunc);
      case Nint: return unary(CostOp::Nint);
      case Sum: case Product: case Maxval: case Minval: case Maxloc:
      case Cshift: case Tshift: case Size:
        // lowered before pricing (size() is handled above): the tree
        // evaluator fails on these too
        return emit_fail();
    }
    return -1;
  }

  const CompiledProgram& prog_;
  CostProgram& out_;
  ScalarEnv probe_env_;  // empty: static-foldability probe for size()
  std::vector<CostInstr> buf_;
  int next_reg_ = 0;
  std::map<std::uint64_t, std::uint16_t> pool_ids_;
};

class Builder {
 public:
  Builder(const CompiledProgram& prog, CostProgram& out)
      : prog_(prog), out_(out), flattener_(prog, out) {}

  void run() {
    out_.nodes.assign(static_cast<std::size_t>(prog_.node_count), NodeCost{});
    if (prog_.root) visit(*prog_.root);
  }

 private:
  std::int32_t add(const front::ExprPtr& e) {
    if (!e) return -1;
    out_.exprs.push_back(flattener_.compile(*e));
    return static_cast<std::int32_t>(out_.exprs.size() - 1);
  }

  void add_space(const SpmdNode& n, NodeCost& nc) {
    nc.space_first = static_cast<std::int32_t>(out_.space_codes.size());
    nc.space_dims = static_cast<std::int32_t>(n.space.size());
    for (const auto& ix : n.space) {
      out_.space_codes.push_back(add(ix.lo));
      out_.space_codes.push_back(add(ix.hi));
      out_.space_codes.push_back(add(ix.stride));  // -1 = unit step
    }
  }

  void visit(const SpmdNode& n) {
    if (n.id >= 0 && static_cast<std::size_t>(n.id) < out_.nodes.size()) {
      NodeCost& nc = out_.nodes[static_cast<std::size_t>(n.id)];
      switch (n.kind) {
        case SpmdKind::ScalarAssign:
          nc.rhs = add(n.rhs);
          break;
        case SpmdKind::DoLoop:
          nc.do_lo = add(n.do_lo);
          nc.do_hi = add(n.do_hi);
          nc.do_step = add(n.do_step);
          break;
        case SpmdKind::WhileLoop:
          nc.cond = add(n.mask);
          break;
        case SpmdKind::IfBlock:
          nc.cond = add(n.mask);
          break;
        case SpmdKind::LocalLoop:
          add_space(n, nc);
          if (n.inner) {
            nc.inner_lo = add(n.inner->index.lo);
            nc.inner_hi = add(n.inner->index.hi);
          }
          break;
        case SpmdKind::Reduce:
        case SpmdKind::GatherComm:
        case SpmdKind::ScatterComm:
          add_space(n, nc);
          break;
        case SpmdKind::CShiftComm:
          nc.comm_amount = add(n.comm_amount);
          break;
        default:
          break;
      }
    }
    for (const auto& c : n.children) visit(*c);
    for (const auto& c : n.else_children) visit(*c);
  }

  const CompiledProgram& prog_;
  CostProgram& out_;
  Flattener flattener_;
};

}  // namespace

std::shared_ptr<const CostProgram> compile_cost_program(const CompiledProgram& prog) {
  auto cp = std::make_shared<CostProgram>();
  Builder(prog, *cp).run();
  return cp;
}

// ---------------------------------------------------------------------------
// evaluator
// ---------------------------------------------------------------------------

// Fixed-width stripe loop: the trip count is the compile-time kBatchStripe
// and every operand column is contiguous and disjoint from dst (registers
// are distinct slots; in-place dst==a is still elementwise independent), so
// the loop is vectorizable without intrinsics. HPF90D_SIMD_LOOP asks the
// compiler to vectorize it; HPF90D_DISABLE_SIMD (the CI A/B gate) drops the
// hint without changing results — elementwise IEEE arithmetic is
// bit-identical scalar or vectorized (no reassociation, no FMA contraction
// beyond what the scalar loop would also get).
#if defined(HPF90D_DISABLE_SIMD)
#define HPF90D_SIMD_LOOP
#elif defined(__clang__)
#define HPF90D_SIMD_LOOP _Pragma("clang loop vectorize(enable)")
#elif defined(__GNUC__)
#define HPF90D_SIMD_LOOP _Pragma("GCC ivdep")
#else
#define HPF90D_SIMD_LOOP
#endif

// Each instruction dispatches once (instruction-major, so the switch cost
// amortizes over the whole batch) and its lane loop runs as whole 8-lane
// stripes: the inner trip count is the compile-time kBatchStripe, so the
// vectorizer emits exactly one full-width body per stripe — no runtime
// trip-count checks, no scalar prologue or epilogue (columns are padded to
// the stripe width).
#define HPF90D_STRIPE(expr)                                \
  for (std::size_t s = 0; s < S; s += kBatchStripe) {      \
    HPF90D_SIMD_LOOP                                       \
    for (std::size_t l = s; l < s + kBatchStripe; ++l) {   \
      expr;                                                \
    }                                                      \
  }                                                        \
  break

std::size_t eval_code_batch(const CostProgram& cp, const ExprCode& c,
                            const BatchEnv& env, double* regs, double* out,
                            unsigned char* ok) {
  const std::size_t S = env.stride();
  std::fill(ok, ok + S, static_cast<unsigned char>(1));
  const CostInstr* ip = cp.code.data() + c.first;
  const CostInstr* const end = ip + c.count;
  const double* pool = cp.pool.data();
  for (; ip != end; ++ip) {
    const CostInstr in = *ip;
    double* dst = regs + static_cast<std::size_t>(in.dst) * S;
    const double* a = regs + static_cast<std::size_t>(in.a) * S;
    const double* b = regs + static_cast<std::size_t>(in.b) * S;
    switch (in.op) {
      case CostOp::Const: {
        const double v = pool[in.a];
        HPF90D_STRIPE(dst[l] = v);
      }
      case CostOp::Load: {
        const double* v = env.values(in.a);
        const unsigned char* d = env.defined(in.a);
        for (std::size_t s = 0; s < S; s += kBatchStripe) {
          HPF90D_SIMD_LOOP
          for (std::size_t l = s; l < s + kBatchStripe; ++l) {
            ok[l] = d[l] != 0 ? ok[l] : static_cast<unsigned char>(0);
            dst[l] = d[l] != 0 ? v[l] : 0.0;
          }
        }
        break;
      }
      case CostOp::LoadDflt: {
        const double* v = env.values(in.a);
        const unsigned char* d = env.defined(in.a);
        const double dflt = pool[in.b];
        HPF90D_STRIPE(dst[l] = d[l] != 0 ? v[l] : dflt);
      }
      case CostOp::Fail:
        std::fill(ok, ok + S, static_cast<unsigned char>(0));
        std::fill(dst, dst + S, 0.0);
        break;
      case CostOp::Neg: HPF90D_STRIPE(dst[l] = -a[l]);
      case CostOp::Not: HPF90D_STRIPE(dst[l] = a[l] == 0.0 ? 1.0 : 0.0);
      case CostOp::Add: HPF90D_STRIPE(dst[l] = a[l] + b[l]);
      case CostOp::Sub: HPF90D_STRIPE(dst[l] = a[l] - b[l]);
      case CostOp::Mul: HPF90D_STRIPE(dst[l] = a[l] * b[l]);
      case CostOp::Div: HPF90D_STRIPE(dst[l] = a[l] / b[l]);
      case CostOp::Pow:
        // libm calls stay scalar inside the stripe (no vector math lib)
        for (std::size_t l = 0; l < S; ++l) dst[l] = std::pow(a[l], b[l]);
        break;
      case CostOp::IDiv:
      case CostOp::IMod:
        // lanes evicted from lockstep keep evaluating densely on garbage
        // operands; the checked divide fails those lanes instead of trapping
        for (std::size_t l = 0; l < S; ++l) {
          const auto v = front::int_divide(a[l], b[l], in.op == CostOp::IMod);
          ok[l] = v ? ok[l] : static_cast<unsigned char>(0);
          dst[l] = v.value_or(0.0);
        }
        break;
      case CostOp::Lt: HPF90D_STRIPE(dst[l] = a[l] < b[l] ? 1.0 : 0.0);
      case CostOp::Le: HPF90D_STRIPE(dst[l] = a[l] <= b[l] ? 1.0 : 0.0);
      case CostOp::Gt: HPF90D_STRIPE(dst[l] = a[l] > b[l] ? 1.0 : 0.0);
      case CostOp::Ge: HPF90D_STRIPE(dst[l] = a[l] >= b[l] ? 1.0 : 0.0);
      case CostOp::Eq: HPF90D_STRIPE(dst[l] = a[l] == b[l] ? 1.0 : 0.0);
      case CostOp::Ne: HPF90D_STRIPE(dst[l] = a[l] != b[l] ? 1.0 : 0.0);
      case CostOp::And:
        HPF90D_STRIPE(dst[l] = (a[l] != 0.0 && b[l] != 0.0) ? 1.0 : 0.0);
      case CostOp::Or:
        HPF90D_STRIPE(dst[l] = (a[l] != 0.0 || b[l] != 0.0) ? 1.0 : 0.0);
      case CostOp::FMod:
        for (std::size_t l = 0; l < S; ++l) dst[l] = std::fmod(a[l], b[l]);
        break;
      case CostOp::Min2: HPF90D_STRIPE(dst[l] = std::min(a[l], b[l]));
      case CostOp::Max2: HPF90D_STRIPE(dst[l] = std::max(a[l], b[l]));
      case CostOp::Sign2:
        HPF90D_STRIPE(dst[l] = b[l] >= 0 ? std::fabs(a[l]) : -std::fabs(a[l]));
      case CostOp::Exp:
        for (std::size_t l = 0; l < S; ++l) dst[l] = std::exp(a[l]);
        break;
      case CostOp::Log:
        for (std::size_t l = 0; l < S; ++l) dst[l] = std::log(a[l]);
        break;
      case CostOp::Sqrt: HPF90D_STRIPE(dst[l] = std::sqrt(a[l]));
      case CostOp::Abs: HPF90D_STRIPE(dst[l] = std::fabs(a[l]));
      case CostOp::Sin:
        for (std::size_t l = 0; l < S; ++l) dst[l] = std::sin(a[l]);
        break;
      case CostOp::Cos:
        for (std::size_t l = 0; l < S; ++l) dst[l] = std::cos(a[l]);
        break;
      case CostOp::Atan:
        for (std::size_t l = 0; l < S; ++l) dst[l] = std::atan(a[l]);
        break;
      case CostOp::Trunc: HPF90D_STRIPE(dst[l] = std::trunc(a[l]));
      case CostOp::Nint:
        for (std::size_t l = 0; l < S; ++l) dst[l] = std::nearbyint(a[l]);
        break;
      case CostOp::Merge: {
        const double* cc = regs + static_cast<std::size_t>(in.c) * S;
        HPF90D_STRIPE(dst[l] = cc[l] != 0.0 ? a[l] : b[l]);
      }
    }
  }
  const double* res = regs + static_cast<std::size_t>(c.result) * S;
  std::copy(res, res + S, out);
  return S / kBatchStripe;
}

#undef HPF90D_STRIPE
#undef HPF90D_SIMD_LOOP

}  // namespace hpf90d::compiler
