#include "compiler/cost_program.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "support/text.hpp"

namespace hpf90d::compiler {

using front::Expr;
using front::ExprKind;

namespace {

const std::string kIntDivideError = "integer division by zero or overflow";
const support::SourceLoc kNoLoc;
const std::string kNoText;

/// True when `e` has exactly two INTEGER operands: Fortran `/` and `mod`
/// then truncate (front::int_divide), as folding does too.
bool integer_operands(const Expr& e) {
  return e.args.size() == 2 && e.args[0]->type == front::TypeBase::Integer &&
         e.args[1]->type == front::TypeBase::Integer;
}

std::string unavailable(const std::string& name) {
  return "value of '" + name + "' is not available (unresolved critical variable?)";
}

/// The layout cannot resolve the array's extents (as array_extents throws).
support::CompileError unresolved_extents(const std::string& array) {
  return {{}, "extents of '" + array + "' are not resolvable in this configuration"};
}

/// Flattens one expression tree onto the end of the program's code. Every
/// expression compiles: what cannot be evaluated becomes a Fail carrying
/// the diagnostic of the point where evaluation stops.
class Flattener {
 public:
  Flattener(const CompiledProgram& prog, CostProgram& out) : prog_(prog), out_(out) {}

  /// Compiles `e` — or, with `offset`, the element offset of the array
  /// reference `e` — and appends it to the shared code vector.
  [[nodiscard]] ExprCode compile(const Expr& e, bool offset = false) {
    ExprCode code;
    code.first = static_cast<std::uint32_t>(out_.code.size());
    const std::size_t subscripts = out_.subscripts.size();
    restart(code.first);
    int r = -1;
    try {
      r = offset ? emit_element(e, CostOp::ArrayOffset) : emit(e);
    } catch (const std::length_error&) {
      restart(code.first);
      out_.subscripts.resize(subscripts);
      r = emit_fail(e.loc, "expression exceeds the cost program's register file");
    }
    code.count = static_cast<std::uint32_t>(out_.code.size() - code.first);
    code.result = static_cast<std::uint16_t>(r);
    code.regs = static_cast<std::uint16_t>(next_reg_);
    code.arrays_first = static_cast<std::uint32_t>(out_.expr_arrays.size());
    code.arrays_count = static_cast<std::uint32_t>(used_.size());
    out_.expr_arrays.insert(out_.expr_arrays.end(), used_.begin(), used_.end());
    out_.max_regs = std::max<std::uint16_t>(out_.max_regs, code.regs);
    return code;
  }

 private:
  /// Drops whatever the expression starting at `first` emitted so far.
  void restart(std::size_t first) {
    out_.code.resize(first);
    out_.sources.resize(first);
    first_ = first;
    used_.clear();
    next_reg_ = 0;
  }

  [[nodiscard]] int alloc(int count = 1) {
    if (next_reg_ + count > 0xffff) throw std::length_error("cost program register file");
    const int r = next_reg_;
    next_reg_ += count;
    return r;
  }

  /// The pool entry holding `v`, bit for bit (a program has a few dozen).
  [[nodiscard]] std::uint16_t pool_id(double v) {
    for (std::size_t i = 0; i < out_.pool.size(); ++i) {
      if (std::memcmp(&out_.pool[i], &v, sizeof v) == 0) return static_cast<std::uint16_t>(i);
    }
    if (out_.pool.size() >= 0xffff) throw std::length_error("cost program pool");
    out_.pool.push_back(v);
    return static_cast<std::uint16_t>(out_.pool.size() - 1);
  }

  /// Appends an instruction; `loc`/`text` are its failure's diagnostic.
  /// The defaults are objects, not temporaries, so emit's recursive frame
  /// stays small enough for kMaxExprHeight levels under sanitizers too.
  int push(CostOp op, int dst, int a = 0, int b = 0, int c = 0,
           const support::SourceLoc& loc = kNoLoc, const std::string& text = kNoText) {
    out_.code.push_back(CostInstr{op, static_cast<std::uint16_t>(dst),
                                  static_cast<std::uint16_t>(a),
                                  static_cast<std::uint16_t>(b),
                                  static_cast<std::uint16_t>(c)});
    out_.sources.push_back(CostSource{loc, text.empty() ? 0 : text_id(text), -1});
    return dst;
  }

  /// The texts entry equal to `text` (a program has a few dozen names).
  [[nodiscard]] std::uint32_t text_id(const std::string& text) {
    const auto it = std::find(out_.texts.begin(), out_.texts.end(), text);
    if (it != out_.texts.end()) return static_cast<std::uint32_t>(it - out_.texts.begin());
    out_.texts.push_back(text);
    return static_cast<std::uint32_t>(out_.texts.size() - 1);
  }

  int emit_const(double v) { return push(CostOp::Const, alloc(), pool_id(v)); }
  int emit_fail(const support::SourceLoc& loc, const std::string& message) {
    return push(CostOp::Fail, alloc(), 0, 0, 0, loc, message);
  }

  int malformed(const Expr& e) {
    return emit_fail(e.loc, "internal: malformed expression '" + e.str() + "'");
  }
  int unknown_variable(const Expr& e) { return emit_fail(e.loc, unavailable(e.name)); }

  [[nodiscard]] bool known_symbol(int id) const {
    return id >= 0 && static_cast<std::size_t>(id) < prog_.symbols.size();
  }

  int emit(const Expr& e) {
    switch (e.kind) {
      case ExprKind::IntLit: return emit_const(static_cast<double>(e.int_value));
      case ExprKind::RealLit: return emit_const(e.real_value);
      case ExprKind::LogicalLit: return emit_const(e.bool_value ? 1.0 : 0.0);
      case ExprKind::Var: {
        const int id = var_symbol(e);
        if (!known_symbol(id)) return unknown_variable(e);
        const front::Symbol& sym = prog_.symbols.at(id);
        if (sym.kind == front::SymbolKind::Param && sym.const_value) {
          return push(CostOp::LoadDflt, alloc(), id, pool_id(*sym.const_value));
        }
        return push(CostOp::Load, alloc(), id, 0, 0, e.loc, e.name);
      }
      case ExprKind::ArrayRef: return emit_element(e, CostOp::ArrayLoad);
      case ExprKind::Unary: {
        if (e.args.size() != 1) break;
        const int a = emit(*e.args[0]);
        switch (e.un_op) {
          case front::UnOp::Neg: return push(CostOp::Neg, alloc(), a);
          case front::UnOp::Plus: return a;
          case front::UnOp::Not: return push(CostOp::Not, alloc(), a);
        }
        break;
      }
      case ExprKind::Binary: {
        if (e.args.size() != 2) break;
        const int a = emit(*e.args[0]);
        const int b = emit(*e.args[1]);
        CostOp op = CostOp::Add;
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
        }
        return push(op, alloc(), a, b, 0, e.loc, op == CostOp::IDiv ? kIntDivideError : kNoText);
      }
      case ExprKind::Call: return emit_call(e);
    }
    return malformed(e);
  }

  /// The symbol a Var reads; unannotated clones (declared extents) resolve
  /// by name.
  [[nodiscard]] int var_symbol(const Expr& v) const {
    return v.symbol >= 0 ? v.symbol : prog_.symbols.find(v.name);
  }

  /// The slot `v` Loads (a known, non-PARAMETER symbol), or -1.
  [[nodiscard]] int loaded_slot(const Expr& v) const {
    if (v.kind != ExprKind::Var) return -1;
    const int id = var_symbol(v);
    if (!known_symbol(id)) return -1;
    const front::Symbol& sym = prog_.symbols.at(id);
    return sym.kind == front::SymbolKind::Param && sym.const_value ? -1 : id;
  }

  /// Whether subscript `x` has a fused form (see AffineSubscript): `k`, or
  /// a Loaded variable `v` with its Var in `*var` and k in `k`.
  [[nodiscard]] bool affine(const Expr& x, const Expr** var, double& k) const {
    *var = nullptr;
    k = 0;
    if (x.kind == ExprKind::IntLit) {
      k = static_cast<double>(x.int_value);
      return true;
    }
    const Expr* v = &x;
    if (x.kind == ExprKind::Binary && x.args.size() == 2) {
      const Expr& l = *x.args[0];
      const Expr& r = *x.args[1];
      const bool add = x.bin_op == front::BinOp::Add;
      if ((add || x.bin_op == front::BinOp::Sub) && r.kind == ExprKind::IntLit) {
        v = &l;
        k = add ? static_cast<double>(r.int_value) : -static_cast<double>(r.int_value);
      } else if (add && l.kind == ExprKind::IntLit) {
        v = &r;
        k = static_cast<double>(l.int_value);
      } else {
        return false;
      }
    }
    if (loaded_slot(*v) < 0) return false;
    *var = v;
    return true;
  }

  /// An element access. Subscripts of the fused forms go to the subscript
  /// table and the access is one instruction; otherwise they go into
  /// `rank` consecutive registers, then one bounds-checked
  /// ArrayLoad/ArrayOffset over them.
  int emit_element(const Expr& e, CostOp op) {
    const std::size_t start = out_.code.size();
    if (e.kind != ExprKind::ArrayRef || !known_symbol(e.symbol) ||
        prog_.symbols.at(e.symbol).rank() != static_cast<int>(e.subs.size())) {
      return malformed(e);
    }
    const int rank = static_cast<int>(e.subs.size());
    if (const int fused = emit_fused(e, op); fused >= 0) return fused;
    const int base = alloc(rank);
    for (int d = 0; d < rank; ++d) {
      const front::Subscript& sub = e.subs[static_cast<std::size_t>(d)];
      if (sub.kind != front::Subscript::Kind::Scalar) {
        return emit_fail(e.loc, "internal: section in scalar evaluation");
      }
      const std::size_t before = out_.code.size();
      const int r = emit(*sub.scalar);
      if (out_.code.size() > before && out_.code.back().dst == r) {
        out_.code.back().dst = static_cast<std::uint16_t>(base + d);  // produce in place
      } else {
        push(CostOp::Move, base + d, r);
      }
    }
    const int dst = push(op, alloc(), base, use_array(e.symbol, rank, op), 0, e.loc, e.name);
    // the outermost reference starting here is the one reached first
    out_.sources[start].probe = static_cast<std::int32_t>(out_.code.size() - 1 - first_);
    return dst;
  }

  /// The fused access of `e` when every subscript has a fused form and the
  /// table index fits the instruction, else -1 (nothing emitted). Out of
  /// line, like emit_call: emit_element is on emit's recursion.
  [[gnu::noinline]] int emit_fused(const Expr& e, CostOp op) {
    const std::size_t first = out_.subscripts.size();
    if (first > 0xffff) return -1;
    const Expr* var = nullptr;
    double k = 0;
    for (const front::Subscript& sub : e.subs) {
      if (sub.kind != front::Subscript::Kind::Scalar || !affine(*sub.scalar, &var, k)) {
        return -1;
      }
    }
    for (const front::Subscript& sub : e.subs) {
      (void)affine(*sub.scalar, &var, k);
      out_.subscripts.push_back(var == nullptr ? AffineSubscript{-1, k, {}, 0}
                                               : AffineSubscript{loaded_slot(*var), k,
                                                                 var->loc, text_id(var->name)});
    }
    const int rank = static_cast<int>(e.subs.size());
    const int dst = push(op, alloc(), static_cast<int>(first), use_array(e.symbol, rank, op),
                         1, e.loc, e.name);
    out_.sources.back().probe = static_cast<std::int32_t>(out_.code.size() - 1 - first_);
    return dst;
  }

  /// The arrays id of `symbol`, noted among the expression's arrays. A
  /// target's own ArrayOffset goes last even when a subscript read it.
  int use_array(int symbol, int rank, CostOp op) {
    const int id = array_id(symbol, rank);
    if (op == CostOp::ArrayOffset ||
        std::find(used_.begin(), used_.end(), id) == used_.end()) {
      used_.push_back(static_cast<std::uint16_t>(id));
    }
    return id;
  }

  // Out of line: inlined into emit, its locals would grow every level of
  // emit's recursion (a kMaxExprHeight chain must fit a small stack under
  // sanitizers).
  [[gnu::noinline]] int emit_call(const Expr& e) {
    const auto unevaluable = [&] {
      return emit_fail(e.loc, "intrinsic '" + e.name + "' cannot be evaluated here");
    };
    if (!e.intrinsic) return unevaluable();
    if (*e.intrinsic == front::IntrinsicId::Size) return emit_size(e);
    if (e.intrinsic_kind() != front::IntrinsicKind::Elemental) {
      // reductions and shifts are lowered to dedicated SPMD nodes
      return unevaluable();
    }
    if (e.args.empty()) return malformed(e);
    std::vector<int> argv;
    argv.reserve(e.args.size());
    for (const auto& a : e.args) argv.push_back(emit(*a));

    const auto unary = [&](CostOp op) { return push(op, alloc(), argv[0]); };
    const auto binary = [&](CostOp op) {
      return argv.size() < 2 ? malformed(e)
                             : push(op, alloc(), argv[0], argv[1], 0, e.loc,
                                    op == CostOp::IMod ? kIntDivideError : kNoText);
    };
    using enum front::IntrinsicId;
    switch (*e.intrinsic) {
      case Atan: return unary(CostOp::Atan);
      case Cos: return unary(CostOp::Cos);
      case Exp: return unary(CostOp::Exp);
      case Log: return unary(CostOp::Log);
      case Mod: return binary(integer_operands(e) ? CostOp::IMod : CostOp::FMod);
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
      case Sign: return binary(CostOp::Sign2);
      case Merge:
        if (argv.size() < 3) break;
        return push(CostOp::Merge, alloc(), argv[0], argv[1], argv[2]);
      case Real:
      case Float:
      case Dble: return argv[0];
      case Int: return unary(CostOp::Trunc);
      case Nint: return unary(CostOp::Nint);
      case Sum: case Product: case Maxval: case Minval: case Maxloc:
      case Cshift: case Tshift: case Size:
        break;  // not elemental: handled above
    }
    return unevaluable();
  }

  /// size(a) is the product of a's extents; size(a, k) selects one
  /// at run time.
  int emit_size(const Expr& e) {
    if (e.args.empty() || !known_symbol(e.args[0]->symbol)) return malformed(e);
    const front::Symbol& array = prog_.symbols.at(e.args[0]->symbol);
    const int rank = array.rank();
    const int id = array_id(e.args[0]->symbol, rank);
    int& slot = out_.arrays[static_cast<std::size_t>(id)].extent_slot;
    if (slot < 0) {
      if (out_.slots + static_cast<std::size_t>(rank) > 0xffff) {
        throw std::length_error("cost program extent slots");
      }
      slot = static_cast<int>(out_.slots);
      out_.slots += static_cast<std::size_t>(rank);
    }
    if (e.args.size() >= 2) {
      const int k = emit(*e.args[1]);
      return push(CostOp::Size, alloc(), k, id, 0, e.loc, array.name);
    }
    // extents multiply exactly in doubles, as in the long long they came from
    int v = emit_const(1.0);
    for (int d = 1; d <= rank; ++d) {
      const int k = emit_const(d);
      v = push(CostOp::Mul, alloc(), v, push(CostOp::Size, alloc(), k, id, 0, e.loc, array.name));
    }
    return v;
  }

  int array_id(int symbol, int rank) {
    for (std::size_t i = 0; i < out_.arrays.size(); ++i) {
      if (out_.arrays[i].symbol == symbol) return static_cast<int>(i);
    }
    if (out_.arrays.size() >= 0xffff) throw std::length_error("cost program arrays");
    out_.arrays.push_back(CostArray{symbol, rank, -1});
    return static_cast<int>(out_.arrays.size() - 1);
  }

  const CompiledProgram& prog_;
  CostProgram& out_;
  std::size_t first_ = 0;            // the expression's first instruction
  std::vector<std::uint16_t> used_;  // array ids the expression touches
  int next_reg_ = 0;
};

class Builder {
 public:
  Builder(const CompiledProgram& prog, CostProgram& out)
      : prog_(prog), out_(out), flattener_(prog, out) {}

  void run() {
    out_.nodes.assign(static_cast<std::size_t>(prog_.node_count), NodeCost{});
    out_.slots = prog_.symbols.size();  // extents follow as size() needs them
    if (prog_.root) visit(*prog_.root);
  }

 private:
  std::int32_t add(const front::ExprPtr& e, bool offset = false) {
    if (!e) return -1;
    out_.exprs.push_back(flattener_.compile(*e, offset));
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
        case SpmdKind::IfBlock:
          nc.cond = add(n.mask);
          break;
        case SpmdKind::LocalLoop:
          add_space(n, nc);
          nc.cond = add(n.mask);
          nc.rhs = add(n.rhs);
          nc.lhs = add(n.lhs, /*offset=*/true);
          if (n.inner) {
            nc.inner_lo = add(n.inner->index.lo);
            nc.inner_hi = add(n.inner->index.hi);
            nc.arg = add(n.inner->arg);
          }
          break;
        case SpmdKind::Reduce:
          add_space(n, nc);
          nc.arg = add(n.reduce_arg);
          break;
        case SpmdKind::GatherComm:
        case SpmdKind::ScatterComm:
          add_space(n, nc);
          break;
        case SpmdKind::CShiftComm:
          nc.comm_amount = add(n.comm_amount);
          break;
        case SpmdKind::HostIO:
          nc.io_first = static_cast<std::int32_t>(out_.exprs.size());
          for (const auto& a : n.io_args) (void)add(a);
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

void BatchEnv::define_extents(const CostProgram& cp, const DataLayout& layout,
                              std::size_t lane) {
  for (const CostArray& x : cp.arrays) {
    if (x.extent_slot < 0) continue;
    const std::vector<long long>* e = layout.resolved_extents(x.symbol);
    for (int d = 0; e != nullptr && d < x.rank; ++d) {
      define(x.extent_slot + d, lane, static_cast<double>((*e)[static_cast<std::size_t>(d)]));
    }
  }
}

SeededValues seed_values(const front::SymbolTable& symbols, const front::Bindings& bindings) {
  front::Bindings fold_env;
  for (const auto& [name, value] : bindings.values()) fold_env.set(name, value);
  // params may reference earlier params and overridden names
  for (int pass = 0; pass < 3; ++pass) {
    for (const auto& sym : symbols.symbols()) {
      if (sym.kind != front::SymbolKind::Param || !sym.param_value) continue;
      if (fold_env.contains(sym.name)) continue;
      if (const auto v = front::try_fold(*sym.param_value, fold_env)) {
        fold_env.set(sym.name, *v);
      }
    }
  }
  // a symbol's id is its index in the table (SymbolTable::add)
  SeededValues out;
  const auto& syms = symbols.symbols();
  for (std::size_t id = 0; id < syms.size(); ++id) {
    if (const auto v = fold_env.get(syms[id].name)) {
      out.defined.emplace_back(static_cast<int>(id), *v);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// evaluator
// ---------------------------------------------------------------------------

// Lane loops: every operand column is contiguous and disjoint from dst
// (registers are distinct slots; in-place dst==a is still elementwise
// independent), so a loop over the lanes is vectorizable without
// intrinsics. HPF90D_SIMD_LOOP asserts that independence to the compiler;
// elementwise IEEE arithmetic is bit-identical scalar or vectorized (no
// reassociation, no FMA contraction beyond what the scalar loop would also
// get).
#if defined(__clang__)
#define HPF90D_SIMD_LOOP _Pragma("clang loop vectorize(enable)")
#elif defined(__GNUC__)
#define HPF90D_SIMD_LOOP _Pragma("GCC ivdep")
#else
#define HPF90D_SIMD_LOOP
#endif

// Each instruction dispatches once (instruction-major, so the switch cost
// amortizes over the lanes) and runs one plain loop over all its lanes.
// The bodies are branch-free — operands loaded before any select, `&` and
// `|` for the logical operators — because under the default trapping math
// GCC will not if-convert a floating-point operation that sits under a
// condition, and a loop it cannot if-convert stays scalar. So written, GCC
// 12 at -O3 vectorizes these loops for plain x86-64 (SSE2) and wider ISAs
// alike, except Sqrt's (errno) and Trunc's (no SSE2 rounding instruction);
// the native CI leg's vectorization report checks that cost_program.cpp
// keeps vectorized loops.
#define HPF90D_SIMD_LANES(expr)                            \
  HPF90D_SIMD_LOOP                                         \
  for (std::size_t l = 0; l < S; ++l) {                    \
    expr;                                                  \
  }                                                        \
  break

// A lane loop left scalar: libm calls (no vector math library), gathers.
#define HPF90D_LANES(expr)                                 \
  for (std::size_t l = 0; l < S; ++l) {                    \
    expr;                                                  \
  }                                                        \
  break

namespace {

/// The subscript bounds test of an element access: Fortran rounds a
/// subscript half away from zero (the llround the diagnostic quotes), and
/// round(x) lies in 1..extent exactly when x + 0.5 lies in [1, extent + 1).
[[nodiscard]] inline bool subscript_in(double x, double extent) {
  const double y = x + 0.5;
  return y >= 1.0 && y < extent + 1.0;
}

/// 2^52: below it, (x + kIntegral) - kIntegral is x rounded to an integer,
/// so it equals x exactly when x is integral.
constexpr double kIntegral = 4503599627370496.0;

/// Lanes an element access screens at a time (a stack block of flags).
constexpr std::size_t kScreenBlock = 64;

/// The screen of one dimension of an element access over lanes [0, n):
/// adds (v - 1) * stride to off[l] for subscript v = x[l] + k, and to
/// bad[l] a quantity that is 0 exactly when v is integral and in
/// 1..extent (|v - mid| <= half; a fraction of at least 2^-52 scaled by
/// 2^84 outweighs any half below 2^31), positive or NaN otherwise. Pure
/// arithmetic: no compare, so the loop vectorizes under trapping math.
void screen_dimension(const double* x, double k, double mid, double half, double stride,
                      double* off, double* bad, std::size_t n) {
  HPF90D_SIMD_LOOP
  for (std::size_t l = 0; l < n; ++l) {
    const double v = x[l] + k;
    const double y = std::fabs(v - mid) - half +
                     std::fabs(((v + kIntegral) - kIntegral) - v) * 0x1p84;
    bad[l] += y + std::fabs(y);
    off[l] += (v - 1.0) * stride;
  }
}

/// Subscript `d` of lane `l` of element access `in`, as the unfused
/// sequence computes it: an undefined fused variable reads as 0, as its
/// Load would.
double subscript_of(const CostProgram& cp, const CostInstr& in, const BatchEnv& env,
                    const double* regs, std::size_t S, int d, std::size_t l) {
  if (in.c == 0) return regs[(static_cast<std::size_t>(in.a) + d) * S + l];
  const AffineSubscript& sub = cp.subscripts[static_cast<std::size_t>(in.a) + d];
  if (sub.slot < 0) return sub.offset;
  return (env.defined(sub.slot)[l] != 0 ? env.values(sub.slot)[l] : 0.0) + sub.offset;
}

/// Whether two run lists cover the same lanes run for run.
bool same_lanes(std::span<const BatchEnv::Run> a, std::span<const BatchEnv::Run> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const BatchEnv::Run& x, const BatchEnv::Run& y) {
                      return x.lane == y.lane && x.count == y.count;
                    });
}

/// The run path of a fused ArrayLoad/ArrayOffset over a bound `view`. When
/// every subscript variable has runs (BatchEnv::runs), the variables that
/// vary over lanes [0, S) share their runs' lanes (one held by a single
/// step-0 run over those lanes counts as a constant subscript), and every
/// run keeps each subscript integral and inside its extent at both of its
/// ends, it writes lanes [0, S) of dst and returns true: a run as one
/// strided copy out of storage (ArrayLoad) or one ramp of offsets
/// (ArrayOffset), and the padding lanes past the last run lane 0's. No
/// lane fails: a lane a run covers is defined, and its subscripts lie
/// between the run's ends. Otherwise it returns false, dst unspecified.
///
/// Lane j of a run has offset sum_d (v_d + j s_d - 1) stride_d, with v_d
/// the run's first subscript and s_d its step: integers whose sums stay
/// inside the array, so every double below is exact and the ramp is the
/// screen's per-lane sum bit for bit.
bool run_access(const CostProgram& cp, const CostInstr& in, const BatchEnv& env,
                const ArrayView& view, double* dst, std::size_t S) {
  constexpr int kMaxRank = 8;
  const int rank = cp.arrays[in.b].rank;
  const bool load = in.op == CostOp::ArrayLoad;
  if (rank > kMaxRank || (load && view.data == nullptr)) return false;
  const AffineSubscript* const subs = cp.subscripts.data() + in.a;
  double base = 0.0;  // the offset the constant subscripts contribute
  int vary[kMaxRank];
  int varying = 0;
  std::span<const BatchEnv::Run> lead;
  for (int d = 0; d < rank; ++d) {
    const double extent = view.extents[d];
    const double k = subs[d].offset;
    if (!(extent < 2147483648.0) || std::trunc(k) != k) return false;
    double v = k;
    if (subs[d].slot >= 0) {
      const std::span<const BatchEnv::Run> runs = env.runs(subs[d].slot);
      if (runs.empty()) return false;
      if (runs.size() != 1 || runs[0].step != 0.0 || runs[0].count < S) {
        if (lead.empty()) {
          lead = runs;
        } else if (!same_lanes(lead, runs)) {
          return false;
        }
        vary[varying++] = d;
        continue;
      }
      v += runs[0].first;
    }
    if (!(v >= 1.0 && v <= extent)) return false;
    base += (v - 1.0) * view.strides[d];
  }
  if (varying == 0) {
    std::fill_n(dst, S, load ? view.data[static_cast<std::ptrdiff_t>(base)] : base);
    return true;
  }
  std::size_t end = 0;  // lanes the runs wrote
  for (std::size_t r = 0; r < lead.size() && lead[r].lane < S; ++r) {
    const double last = static_cast<double>(lead[r].count - 1);
    double off = base;
    double step = 0.0;
    for (int i = 0; i < varying; ++i) {
      const int d = vary[i];
      const BatchEnv::Run& run = env.runs(subs[d].slot)[r];
      const double v = run.first + subs[d].offset;
      const double w = v + last * run.step;
      const double extent = view.extents[d];
      if (!(v >= 1.0 && v <= extent && w >= 1.0 && w <= extent)) return false;
      off += (v - 1.0) * view.strides[d];
      step += run.step * view.strides[d];
    }
    const std::size_t lane = lead[r].lane;
    const std::size_t n = std::min<std::size_t>(lead[r].count, S - lane);
    double* const out = dst + lane;
    if (load) {
      const double* const src = view.data + static_cast<std::ptrdiff_t>(off);
      const auto stride = static_cast<std::ptrdiff_t>(step);
      if (stride == 1) {
        std::copy(src, src + n, out);
      } else {
        for (std::size_t j = 0; j < n; ++j) out[j] = src[static_cast<std::ptrdiff_t>(j) * stride];
      }
    } else {
      const auto lanes = static_cast<int>(n);
      HPF90D_SIMD_LOOP
      for (int j = 0; j < lanes; ++j) out[j] = off + static_cast<double>(j) * step;
    }
    end = lane + n;
  }
  std::fill(dst + end, dst + S, dst[0]);
  return true;
}

/// The element offsets of an ArrayLoad/ArrayOffset over a bound `view`
/// that run_access does not take, screened lane by lane into dst[0, S),
/// failing the lanes the unfused sequence fails: an undefined fused
/// subscript variable (read as 0, as a Load would), or a subscript outside
/// its extent. A lane whose every subscript is integral and in range takes
/// its offset from the screen; any other recomputes it with subscript_in's
/// exact rounding, adding nothing for a failing dimension, so every offset
/// stays in bounds.
void element_offsets(const CostProgram& cp, const CostInstr& in, const BatchEnv& env,
                     const ArrayView& view, const double* regs, double* dst,
                     unsigned char* ok, std::size_t S) {
  const int rank = cp.arrays[in.b].rank;
  const AffineSubscript* const subs = in.c != 0 ? cp.subscripts.data() + in.a : nullptr;
  for (int d = 0; subs != nullptr && d < rank; ++d) {
    if (subs[d].slot < 0) continue;
    const unsigned char* def = env.defined(subs[d].slot);
    HPF90D_SIMD_LOOP
    for (std::size_t l = 0; l < S; ++l) ok[l] &= static_cast<unsigned char>(def[l] != 0);
  }
  double bad[kScreenBlock];
  for (std::size_t first = 0; first < S; first += kScreenBlock) {
    const std::size_t n = std::min(kScreenBlock, S - first);
    double* const off = dst + first;
    std::fill_n(off, n, 0.0);
    std::fill_n(bad, n, 0.0);
    for (int d = 0; d < rank; ++d) {
      const double extent = view.extents[d];
      const double mid = (extent + 1.0) / 2.0;
      const double half = extent < 2147483648.0 ? (extent - 1.0) / 2.0 : -1.0;
      const double stride = view.strides[d];
      if (subs == nullptr || subs[d].slot >= 0) {
        const double* x = subs == nullptr
                              ? regs + (static_cast<std::size_t>(in.a) + d) * S
                              : env.values(subs[d].slot);
        screen_dimension(x + first, subs == nullptr ? 0.0 : subs[d].offset, mid, half,
                         stride, off, bad, n);
      } else {
        // a constant subscript: one screen for every lane
        double part = 0.0;
        double flag = 0.0;
        screen_dimension(&subs[d].offset, 0.0, mid, half, stride, &part, &flag, 1);
        for (std::size_t l = 0; l < n; ++l) {
          off[l] += part;
          bad[l] += flag;
        }
      }
    }
    for (std::size_t l = 0; l < n; ++l) {
      if (bad[l] == 0.0) continue;
      const std::size_t lane = first + l;
      double offset = 0.0;
      for (int d = 0; d < rank; ++d) {
        const double v = subscript_of(cp, in, env, regs, S, d, lane);
        const bool inside = subscript_in(v, view.extents[d]);
        ok[lane] = inside ? ok[lane] : static_cast<unsigned char>(0);
        offset += (static_cast<double>(static_cast<long long>(inside ? v + 0.5 : 1.0)) - 1.0) *
                  view.strides[d];
      }
      off[l] = offset;
    }
  }
}

/// Runs instructions [ip, end) over lanes [0, S), clearing ok[l] for every
/// lane an instruction fails.
void run(const CostProgram& cp, const CostInstr* ip, const CostInstr* const end,
         const BatchEnv& env, std::span<const ArrayView> arrays, double* regs,
         unsigned char* ok, const std::size_t S) {
  const double* pool = cp.pool.data();
  for (; ip != end; ++ip) {
    const CostInstr in = *ip;
    double* dst = regs + static_cast<std::size_t>(in.dst) * S;
    const double* a = regs + static_cast<std::size_t>(in.a) * S;
    const double* b = regs + static_cast<std::size_t>(in.b) * S;
    switch (in.op) {
      case CostOp::Const: {
        const double v = pool[in.a];
        HPF90D_SIMD_LANES(dst[l] = v);
      }
      case CostOp::Load: {
        const double* v = env.values(in.a);
        const unsigned char* d = env.defined(in.a);
        HPF90D_SIMD_LANES(const double x = v[l];
                          ok[l] &= static_cast<unsigned char>(d[l] != 0);
                          dst[l] = d[l] != 0 ? x : 0.0);
      }
      case CostOp::LoadDflt: {
        const double* v = env.values(in.a);
        const unsigned char* d = env.defined(in.a);
        const double dflt = pool[in.b];
        HPF90D_SIMD_LANES(const double x = v[l]; dst[l] = d[l] != 0 ? x : dflt);
      }
      case CostOp::Fail:
        std::fill(ok, ok + S, static_cast<unsigned char>(0));
        std::fill(dst, dst + S, 0.0);
        break;
      case CostOp::Neg: HPF90D_SIMD_LANES(dst[l] = -a[l]);
      case CostOp::Not: HPF90D_SIMD_LANES(dst[l] = a[l] == 0.0 ? 1.0 : 0.0);
      case CostOp::Add: HPF90D_SIMD_LANES(dst[l] = a[l] + b[l]);
      case CostOp::Sub: HPF90D_SIMD_LANES(dst[l] = a[l] - b[l]);
      case CostOp::Mul: HPF90D_SIMD_LANES(dst[l] = a[l] * b[l]);
      case CostOp::Div: HPF90D_SIMD_LANES(dst[l] = a[l] / b[l]);
      case CostOp::Pow: HPF90D_LANES(dst[l] = std::pow(a[l], b[l]));
      case CostOp::IDiv:
      case CostOp::IMod:
        // lanes that need no value (masked off, evicted, padding) compute
        // on garbage operands: the checked divide fails them, never traps
        for (std::size_t l = 0; l < S; ++l) {
          const auto v = front::int_divide(a[l], b[l], in.op == CostOp::IMod);
          ok[l] = v ? ok[l] : static_cast<unsigned char>(0);
          dst[l] = v.value_or(0.0);
        }
        break;
      case CostOp::Lt: HPF90D_SIMD_LANES(dst[l] = a[l] < b[l] ? 1.0 : 0.0);
      case CostOp::Le: HPF90D_SIMD_LANES(dst[l] = a[l] <= b[l] ? 1.0 : 0.0);
      case CostOp::Gt: HPF90D_SIMD_LANES(dst[l] = a[l] > b[l] ? 1.0 : 0.0);
      case CostOp::Ge: HPF90D_SIMD_LANES(dst[l] = a[l] >= b[l] ? 1.0 : 0.0);
      case CostOp::Eq: HPF90D_SIMD_LANES(dst[l] = a[l] == b[l] ? 1.0 : 0.0);
      case CostOp::Ne: HPF90D_SIMD_LANES(dst[l] = a[l] != b[l] ? 1.0 : 0.0);
      case CostOp::And:
        HPF90D_SIMD_LANES(dst[l] = ((a[l] != 0.0) & (b[l] != 0.0)) ? 1.0 : 0.0);
      case CostOp::Or:
        HPF90D_SIMD_LANES(dst[l] = ((a[l] != 0.0) | (b[l] != 0.0)) ? 1.0 : 0.0);
      case CostOp::FMod: HPF90D_LANES(dst[l] = std::fmod(a[l], b[l]));
      case CostOp::Min2: HPF90D_SIMD_LANES(dst[l] = std::min(a[l], b[l]));
      case CostOp::Max2: HPF90D_SIMD_LANES(dst[l] = std::max(a[l], b[l]));
      case CostOp::Sign2:
        HPF90D_SIMD_LANES(dst[l] = b[l] >= 0 ? std::fabs(a[l]) : -std::fabs(a[l]));
      case CostOp::Exp: HPF90D_LANES(dst[l] = std::exp(a[l]));
      case CostOp::Log: HPF90D_LANES(dst[l] = std::log(a[l]));
      case CostOp::Sqrt: HPF90D_SIMD_LANES(dst[l] = std::sqrt(a[l]));
      case CostOp::Abs: HPF90D_SIMD_LANES(dst[l] = std::fabs(a[l]));
      case CostOp::Sin: HPF90D_LANES(dst[l] = std::sin(a[l]));
      case CostOp::Cos: HPF90D_LANES(dst[l] = std::cos(a[l]));
      case CostOp::Atan: HPF90D_LANES(dst[l] = std::atan(a[l]));
      case CostOp::Trunc: HPF90D_SIMD_LANES(dst[l] = std::trunc(a[l]));
      case CostOp::Nint: HPF90D_LANES(dst[l] = std::round(a[l]));
      case CostOp::Merge: {
        const double* cc = regs + static_cast<std::size_t>(in.c) * S;
        HPF90D_SIMD_LANES(const double x = a[l]; const double y = b[l];
                          dst[l] = cc[l] != 0.0 ? x : y);
      }
      case CostOp::Move: HPF90D_SIMD_LANES(dst[l] = a[l]);
      case CostOp::ArrayLoad:
      case CostOp::ArrayOffset: {
        const ArrayView* view = in.b < arrays.size() ? &arrays[in.b] : nullptr;
        if (view == nullptr || view->extents == nullptr) {
          std::fill(ok, ok + S, static_cast<unsigned char>(0));
          std::fill(dst, dst + S, 0.0);
          break;
        }
        if (in.c != 0 && run_access(cp, in, env, *view, dst, S)) break;
        element_offsets(cp, in, env, *view, regs, dst, ok, S);
        // an empty array has no data, and no lane passed its bounds test
        if (in.op == CostOp::ArrayLoad && view->data != nullptr) {
          const double* data = view->data;
          const int rank = cp.arrays[in.b].rank;
          const double elements = rank > 0 ? view->extents[0] * view->strides[0] : 1.0;
          if (elements < 2147483648.0) {  // every offset fits an int32
            for (std::size_t l = 0; l < S; ++l) {
              dst[l] = data[static_cast<std::int32_t>(dst[l])];
            }
          } else {
            for (std::size_t l = 0; l < S; ++l) dst[l] = data[static_cast<std::size_t>(dst[l])];
          }
        }
        break;
      }
      case CostOp::Size: {
        const CostArray& sized = cp.arrays[in.b];
        for (std::size_t l = 0; l < S; ++l) {
          const double k = std::trunc(a[l]);
          const bool inside = k >= 1.0 && k <= static_cast<double>(sized.rank);
          const int slot = sized.extent_slot + (inside ? static_cast<int>(k) - 1 : 0);
          const bool defined = inside && env.defined(slot)[l] != 0;
          ok[l] = defined ? ok[l] : static_cast<unsigned char>(0);
          dst[l] = defined ? env.values(slot)[l] : 0.0;
        }
        break;
      }
    }
  }
}

/// The diagnostic of instruction `at` failing for lane `lane` (register r
/// at regs[r * S + lane]).
support::CompileError instruction_error(const CostProgram& cp, std::size_t at,
                                        const BatchEnv& env,
                                        std::span<const ArrayView> arrays,
                                        const double* regs, std::size_t S, std::size_t lane) {
  const CostInstr& in = cp.code[at];
  const support::SourceLoc& loc = cp.sources[at].loc;
  const std::string& text = cp.texts[cp.sources[at].text];
  const auto reg = [&](int r) { return regs[static_cast<std::size_t>(r) * S + lane]; };
  switch (in.op) {
    case CostOp::Load:
      return support::CompileError(loc, unavailable(text));
    case CostOp::ArrayLoad:
    case CostOp::ArrayOffset: {
      if (arrays.empty()) {
        return support::CompileError(
            loc, "array element '" + text + "' cannot be read during interpretation");
      }
      // a fused access fails first where one of its Loads would have
      const int rank = cp.arrays[in.b].rank;
      for (int d = 0; in.c != 0 && d < rank; ++d) {
        const AffineSubscript& sub = cp.subscripts[static_cast<std::size_t>(in.a) + d];
        if (sub.slot >= 0 && env.defined(sub.slot)[lane] == 0) {
          return support::CompileError(sub.loc, unavailable(cp.texts[sub.text]));
        }
      }
      const ArrayView& view = arrays[in.b];
      if (view.extents == nullptr) return unresolved_extents(text);
      for (int d = 0; d < rank; ++d) {
        const double x = subscript_of(cp, in, env, regs, S, d, lane);
        if (subscript_in(x, view.extents[d])) continue;
        return support::CompileError(
            {}, "subscript out of bounds for '" + text + "' dim " +
                    std::to_string(d + 1) + ": " + std::to_string(std::llround(x)) +
                    " not in 1.." +
                    std::to_string(static_cast<long long>(view.extents[d])));
      }
      break;
    }
    case CostOp::Size: {
      const double k = std::trunc(reg(in.a));
      const int rank = cp.arrays[in.b].rank;
      if (!(k >= 1.0 && k <= static_cast<double>(rank))) {
        return support::CompileError(
            loc, support::strfmt("size dimension %.17g out of range 1..%d for '%s'", k,
                                     rank, text.c_str()));
      }
      return unresolved_extents(text);
    }
    default:
      break;
  }
  return support::CompileError(loc, text);
}

}  // namespace

std::size_t eval_code_batch(const CostProgram& cp, const ExprCode& c, const BatchEnv& env,
                            std::span<const ArrayView> arrays, double* regs, double* out,
                            unsigned char* ok, std::size_t width) {
  const std::size_t S = width;
  std::fill(ok, ok + S, static_cast<unsigned char>(1));
  const CostInstr* ip = cp.code.data() + c.first;
  run(cp, ip, ip + c.count, env, arrays, regs, ok, S);
  const double* res = regs + static_cast<std::size_t>(c.result) * S;
  std::copy(res, res + S, out);
  return S / kBatchStripe;
}

support::CompileError lane_error(const CostProgram& cp, const ExprCode& c,
                                 const BatchEnv& env, std::span<const ArrayView> arrays,
                                 double* regs, std::size_t width, std::size_t lane) {
  std::vector<unsigned char> ok(width, 1);
  const CostInstr* const first = cp.code.data() + c.first;
  for (std::uint32_t i = 0; i < c.count; ++i) {
    const std::size_t at = c.first + i;
    // without storage the reference fails where it is reached, before its
    // subscripts are evaluated
    const std::int32_t probe = cp.sources[at].probe;
    if (arrays.empty() && probe >= 0) {
      return instruction_error(cp, c.first + static_cast<std::size_t>(probe), env, arrays,
                               regs, width, lane);
    }
    run(cp, first + i, first + i + 1, env, arrays, regs, ok.data(), width);
    if (ok[lane] == 0) return instruction_error(cp, at, env, arrays, regs, width, lane);
  }
  return support::CompileError(support::SourceLoc{}, "internal: lane did not fail");
}

#undef HPF90D_LANES
#undef HPF90D_SIMD_LANES
#undef HPF90D_SIMD_LOOP

}  // namespace hpf90d::compiler
