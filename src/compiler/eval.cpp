#include "compiler/eval.hpp"

#include <cmath>
#include <iterator>

#include "hpf/fold.hpp"
#include "hpf/intrinsics.hpp"
#include "support/diagnostics.hpp"
#include "support/text.hpp"

namespace hpf90d::compiler {

using front::Expr;
using front::ExprKind;
using support::CompileError;

namespace {

/// Failure context for the throwing entry points. The evaluator itself is
/// exception-free: interpretation probes unavailable data values on every
/// sweep point (try_eval_scalar), and throwing/catching a CompileError —
/// with its diagnostic report and message formatting — made the *expected*
/// outcome the most expensive path in the engine's hot loop. Failures
/// instead propagate as nullopt; `err`, when non-null, captures where and
/// why so eval_scalar can still throw the precise curated diagnostic.
struct EvalError {
  front::SourceLoc loc;
  std::string message;
};

constexpr const char* kIntDivideError =
    "integer division by zero or overflow";

void fail(EvalError* err, const front::SourceLoc& loc, std::string message) {
  if (err != nullptr && err->message.empty()) {
    err->loc = loc;
    err->message = std::move(message);
  }
}

std::optional<double> eval_call(const Expr& e, const ScalarEnv& env,
                                ArrayAccess* arrays, const front::SymbolTable& symbols,
                                EvalError* err);

std::optional<double> eval_rec(const Expr& e, const ScalarEnv& env, ArrayAccess* arrays,
                               const front::SymbolTable& symbols, EvalError* err) {
  switch (e.kind) {
    case ExprKind::IntLit:
      return static_cast<double>(e.int_value);
    case ExprKind::RealLit:
      return e.real_value;
    case ExprKind::LogicalLit:
      return e.bool_value ? 1.0 : 0.0;
    case ExprKind::Var: {
      int id = e.symbol;
      if (id < 0) id = symbols.find(e.name);  // unannotated clones (extents)
      if (id >= 0 && env.is_defined(id)) return env.value(id);
      if (id >= 0) {
        const front::Symbol& sym = symbols.at(id);
        if (sym.kind == front::SymbolKind::Param && sym.const_value) {
          return *sym.const_value;
        }
      }
      fail(err, e.loc, "value of '" + e.name +
                           "' is not available (unresolved critical variable?)");
      return std::nullopt;
    }
    case ExprKind::ArrayRef: {
      if (arrays == nullptr) {
        fail(err, e.loc, "array element '" + e.name +
                             "' cannot be read during interpretation");
        return std::nullopt;
      }
      // The simulator's per-element hot path: subscripts stay on the stack
      // up to Fortran's rank limit of 7.
      long long inline_idx[7] = {};
      std::vector<long long> heap_idx;
      long long* idx = inline_idx;
      if (e.subs.size() > std::size(inline_idx)) {
        heap_idx.resize(e.subs.size());
        idx = heap_idx.data();
      }
      for (std::size_t d = 0; d < e.subs.size(); ++d) {
        const auto& sub = e.subs[d];
        if (sub.kind != front::Subscript::Kind::Scalar) {
          fail(err, e.loc, "internal: section in scalar evaluation");
          return std::nullopt;
        }
        const std::optional<double> v = eval_rec(*sub.scalar, env, arrays, symbols, err);
        if (!v) return std::nullopt;
        idx[d] = static_cast<long long>(std::llround(*v));
      }
      return arrays->load(e.symbol, std::span<const long long>(idx, e.subs.size()));
    }
    case ExprKind::Unary: {
      const std::optional<double> v = eval_rec(*e.args[0], env, arrays, symbols, err);
      if (!v) return std::nullopt;
      switch (e.un_op) {
        case front::UnOp::Neg: return -*v;
        case front::UnOp::Plus: return *v;
        case front::UnOp::Not: return *v == 0.0 ? 1.0 : 0.0;
      }
      return 0.0;
    }
    case ExprKind::Binary: {
      const std::optional<double> av = eval_rec(*e.args[0], env, arrays, symbols, err);
      if (!av) return std::nullopt;
      const std::optional<double> bv = eval_rec(*e.args[1], env, arrays, symbols, err);
      if (!bv) return std::nullopt;
      const double a = *av;
      const double b = *bv;
      switch (e.bin_op) {
        case front::BinOp::Add: return a + b;
        case front::BinOp::Sub: return a - b;
        case front::BinOp::Mul: return a * b;
        case front::BinOp::Div:
          if (integer_operands(e)) {
            const std::optional<double> q = front::int_divide(a, b, /*remainder=*/false);
            if (!q) fail(err, e.loc, kIntDivideError);
            return q;
          }
          return a / b;
        case front::BinOp::Pow: return std::pow(a, b);
        case front::BinOp::Lt: return a < b ? 1.0 : 0.0;
        case front::BinOp::Le: return a <= b ? 1.0 : 0.0;
        case front::BinOp::Gt: return a > b ? 1.0 : 0.0;
        case front::BinOp::Ge: return a >= b ? 1.0 : 0.0;
        case front::BinOp::Eq: return a == b ? 1.0 : 0.0;
        case front::BinOp::Ne: return a != b ? 1.0 : 0.0;
        case front::BinOp::And: return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
        case front::BinOp::Or: return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
      }
      return 0.0;
    }
    case ExprKind::Call:
      return eval_call(e, env, arrays, symbols, err);
  }
  return 0.0;
}

/// The 0-based dimension `size(a, k)` asks for: k evaluated and checked
/// against a's rank (a located failure outside 1..rank).
std::optional<long long> size_dim(const Expr& e, const front::Symbol& array,
                                  const ScalarEnv& env, ArrayAccess* arrays,
                                  const front::SymbolTable& symbols, EvalError* err) {
  const std::optional<double> dv = eval_rec(*e.args[1], env, arrays, symbols, err);
  if (!dv) return std::nullopt;
  const double k = std::trunc(*dv);
  if (!(k >= 1.0 && k <= static_cast<double>(array.rank()))) {
    fail(err, e.loc,
         support::strfmt("size dimension %.17g out of range 1..%d for '%s'", k,
                         array.rank(), array.name.c_str()));
    return std::nullopt;
  }
  return static_cast<long long>(k) - 1;
}

std::optional<double> eval_call(const Expr& e, const ScalarEnv& env,
                                ArrayAccess* arrays, const front::SymbolTable& symbols,
                                EvalError* err) {
  if (e.intrinsic == front::IntrinsicId::Size) {
    if (arrays == nullptr) {
      // extents are static: fall back to folding the declared extent
      try {
        const front::Symbol& sym = symbols.at(e.args[0]->symbol);
        front::Bindings env2;
        for (const auto& s : symbols.symbols()) {
          if (s.kind == front::SymbolKind::Param && s.const_value) {
            env2.set(s.name, *s.const_value);
          }
        }
        if (e.args.size() == 2) {
          const std::optional<long long> d = size_dim(e, sym, env, arrays, symbols, err);
          if (!d) return std::nullopt;
          return static_cast<double>(
              front::fold_int(*sym.dims[static_cast<std::size_t>(*d)], env2));
        }
        long long total = 1;
        for (const auto& dim : sym.dims) total *= front::fold_int(*dim, env2);
        return static_cast<double>(total);
      } catch (const CompileError& fold_err) {
        // keep the fold failure's own location (the unfoldable declaration),
        // not the size() call site
        fail(err, fold_err.loc(), fold_err.what());
        return std::nullopt;
      }
    }
    const int sym = e.args[0]->symbol;
    if (e.args.size() == 2) {
      const std::optional<long long> d =
          size_dim(e, symbols.at(sym), env, arrays, symbols, err);
      if (!d) return std::nullopt;
      return static_cast<double>(arrays->extent(sym, static_cast<int>(*d)));
    }
    long long total = 1;
    const front::Symbol& s = symbols.at(sym);
    for (int d = 0; d < s.rank(); ++d) total *= arrays->extent(sym, d);
    return static_cast<double>(total);
  }

  // reductions and shifts are lowered to dedicated SPMD nodes beforehand
  if (e.intrinsic_kind() != front::IntrinsicKind::Elemental) {
    fail(err, e.loc, "intrinsic '" + e.name + "' cannot be evaluated here");
    return std::nullopt;
  }

  // Elemental intrinsics take a handful of arguments: keep them on the
  // stack unless a long min/max argument list needs the heap.
  double inline_argv[8] = {};
  std::vector<double> heap_argv;
  double* argv = inline_argv;
  if (e.args.size() > std::size(inline_argv)) {
    heap_argv.resize(e.args.size());
    argv = heap_argv.data();
  }
  for (std::size_t i = 0; i < e.args.size(); ++i) {
    const std::optional<double> v = eval_rec(*e.args[i], env, arrays, symbols, err);
    if (!v) return std::nullopt;
    argv[i] = *v;
  }

  const std::optional<double> v = front::apply_intrinsic(
      *e.intrinsic, std::span<const double>(argv, e.args.size()), integer_operands(e));
  if (!v) fail(err, e.loc, kIntDivideError);  // integer mod
  return v;
}

}  // namespace

double eval_scalar(const Expr& e, const ScalarEnv& env, ArrayAccess* arrays,
                   const front::SymbolTable& symbols) {
  EvalError err;
  const std::optional<double> v = eval_rec(e, env, arrays, symbols, &err);
  if (!v) throw CompileError(err.loc, err.message);
  return *v;
}

long long eval_int(const Expr& e, const ScalarEnv& env, ArrayAccess* arrays,
                   const front::SymbolTable& symbols) {
  return static_cast<long long>(std::llround(eval_scalar(e, env, arrays, symbols)));
}

std::optional<double> try_eval_scalar(const Expr& e, const ScalarEnv& env,
                                      ArrayAccess* arrays,
                                      const front::SymbolTable& symbols) {
  // err = nullptr: probing an unavailable value costs nothing beyond the
  // walk itself — no message formatting, no exception, no diagnostic. The
  // catch covers throwing callees outside the evaluator (e.g. an
  // out-of-bounds ArrayAccess::load), preserving the old contract.
  try {
    return eval_rec(e, env, arrays, symbols, nullptr);
  } catch (const CompileError&) {
    return std::nullopt;
  }
}

namespace {

/// Shared fold behind seed_environment / seed_values: resolves PARAMETERs
/// against the bindings and hands every defined (id, value) to `define`.
template <class Define>
void fold_seeds(const front::SymbolTable& symbols, const front::Bindings& bindings,
                Define&& define) {
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
  for (const auto& sym : symbols.symbols()) {
    const int id = symbols.find(sym.name);
    if (const auto v = fold_env.get(sym.name)) define(id, *v);
  }
}

}  // namespace

void seed_environment(ScalarEnv& env, const front::SymbolTable& symbols,
                      const front::Bindings& bindings) {
  fold_seeds(symbols, bindings, [&](int id, double v) { env.define(id, v); });
}

SeededValues seed_values(const front::SymbolTable& symbols,
                         const front::Bindings& bindings) {
  SeededValues out;
  fold_seeds(symbols, bindings,
             [&](int id, double v) { out.defined.emplace_back(id, v); });
  return out;
}

}  // namespace hpf90d::compiler
