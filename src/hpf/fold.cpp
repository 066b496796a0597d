#include "hpf/fold.hpp"

#include <cmath>

#include "hpf/intrinsics.hpp"
#include "support/diagnostics.hpp"

namespace hpf90d::front {

using support::CompileError;

void Bindings::set(std::string name, double value) {
  map_[std::move(name)] = value;
}

void Bindings::set_int(std::string name, long long value) {
  map_[std::move(name)] = static_cast<double>(value);
}

std::optional<double> Bindings::get(std::string_view name) const {
  const auto it = map_.find(name);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

bool Bindings::contains(std::string_view name) const {
  return map_.find(name) != map_.end();
}

void Bindings::merge(const Bindings& other) {
  for (const auto& [k, v] : other.map_) map_[k] = v;
}

namespace {

/// Value plus integer-ness so that Fortran integer division/mod semantics
/// can be applied without depending on sema annotations.
struct FoldValue {
  double value = 0.0;
  bool is_int = false;
};

std::optional<FoldValue> fold_rec(const Expr& e, const Bindings& env);

/// Integer-ness of a folded intrinsic result: fold's own rule, kept apart
/// from sema typing because PARAMETER expressions fold before sema runs.
bool folds_to_int(IntrinsicId id, bool int_args) {
  using enum IntrinsicId;
  switch (id) {
    case Atan: case Cos: case Exp: case Log: case Sin: case Sqrt:
    case Real: case Float: case Dble:
      return false;
    case Int: case Nint:
      return true;
    case Mod: case Abs: case Min: case Max: case Sign: case Merge:
      return int_args;
    case Sum: case Product: case Maxval: case Minval: case Maxloc:
    case Cshift: case Tshift: case Size:
      return false;  // never folds
  }
  return false;
}

std::optional<FoldValue> fold_call(const Expr& e, const Bindings& env) {
  // Only elemental intrinsics of scalar arguments fold. PARAMETER
  // expressions are folded before sema, so the name may be unresolved.
  const auto id = e.intrinsic ? e.intrinsic : find_intrinsic(e.name);
  if (!id) return std::nullopt;
  std::vector<double> argv;
  argv.reserve(e.args.size());
  bool int_args = true;
  for (const auto& a : e.args) {
    auto v = fold_rec(*a, env);
    if (!v) return std::nullopt;
    argv.push_back(v->value);
    int_args = int_args && v->is_int;
  }
  const IntrinsicInfo& info = intrinsic_info(*id);
  const auto argc = static_cast<int>(argv.size());
  if (argc < info.min_args || argc > info.max_args) return std::nullopt;
  const auto v = apply_intrinsic(*id, argv, int_args);
  if (!v) return std::nullopt;
  return FoldValue{*v, folds_to_int(*id, int_args)};
}

std::optional<FoldValue> fold_rec(const Expr& e, const Bindings& env) {
  switch (e.kind) {
    case ExprKind::IntLit:
      return FoldValue{static_cast<double>(e.int_value), true};
    case ExprKind::RealLit:
      return FoldValue{e.real_value, false};
    case ExprKind::LogicalLit:
      return FoldValue{e.bool_value ? 1.0 : 0.0, true};
    case ExprKind::Var: {
      const auto v = env.get(e.name);
      if (!v) return std::nullopt;
      // Integer-ness of bindings: treat integral values bound to names as
      // integers; this matches Fortran implicit typing for the loop-bound /
      // extent contexts where folding is used.
      return FoldValue{*v, std::nearbyint(*v) == *v};
    }
    case ExprKind::ArrayRef:
      return std::nullopt;  // array-valued: not scalar-foldable
    case ExprKind::Unary: {
      auto v = fold_rec(*e.args[0], env);
      if (!v) return std::nullopt;
      switch (e.un_op) {
        case UnOp::Neg: return FoldValue{-v->value, v->is_int};
        case UnOp::Plus: return v;
        case UnOp::Not: return FoldValue{v->value == 0.0 ? 1.0 : 0.0, true};
      }
      return std::nullopt;
    }
    case ExprKind::Binary: {
      auto a = fold_rec(*e.args[0], env);
      auto b = fold_rec(*e.args[1], env);
      if (!a || !b) return std::nullopt;
      const bool ii = a->is_int && b->is_int;
      switch (e.bin_op) {
        case BinOp::Add: return FoldValue{a->value + b->value, ii};
        case BinOp::Sub: return FoldValue{a->value - b->value, ii};
        case BinOp::Mul: return FoldValue{a->value * b->value, ii};
        case BinOp::Div:
          if (ii) {
            const auto q = int_divide(a->value, b->value, /*remainder=*/false);
            if (!q) return std::nullopt;
            return FoldValue{*q, true};  // truncating
          }
          return FoldValue{a->value / b->value, false};
        case BinOp::Pow:
          if (ii && b->value >= 0) {
            return FoldValue{std::pow(a->value, b->value), true};
          }
          return FoldValue{std::pow(a->value, b->value), false};
        case BinOp::Lt: return FoldValue{a->value < b->value ? 1.0 : 0.0, true};
        case BinOp::Le: return FoldValue{a->value <= b->value ? 1.0 : 0.0, true};
        case BinOp::Gt: return FoldValue{a->value > b->value ? 1.0 : 0.0, true};
        case BinOp::Ge: return FoldValue{a->value >= b->value ? 1.0 : 0.0, true};
        case BinOp::Eq: return FoldValue{a->value == b->value ? 1.0 : 0.0, true};
        case BinOp::Ne: return FoldValue{a->value != b->value ? 1.0 : 0.0, true};
        case BinOp::And:
          return FoldValue{(a->value != 0.0 && b->value != 0.0) ? 1.0 : 0.0, true};
        case BinOp::Or:
          return FoldValue{(a->value != 0.0 || b->value != 0.0) ? 1.0 : 0.0, true};
      }
      return std::nullopt;
    }
    case ExprKind::Call:
      return fold_call(e, env);
  }
  return std::nullopt;
}

/// Finds the first unresolvable name for error messages.
std::string first_unresolved(const Expr& e, const Bindings& env) {
  switch (e.kind) {
    case ExprKind::Var:
      if (!env.contains(e.name)) return e.name;
      return {};
    case ExprKind::ArrayRef:
      return e.name + "(...)";
    default:
      for (const auto& a : e.args) {
        std::string s = first_unresolved(*a, env);
        if (!s.empty()) return s;
      }
      return {};
  }
}

}  // namespace

std::optional<double> try_fold(const Expr& e, const Bindings& env) {
  const auto v = fold_rec(e, env);
  if (!v) return std::nullopt;
  return v->value;
}

double fold_scalar(const Expr& e, const Bindings& env) {
  const auto v = try_fold(e, env);
  if (!v) {
    const std::string missing = first_unresolved(e, env);
    throw CompileError(e.loc, "cannot evaluate '" + e.str() + "'" +
                                  (missing.empty() ? std::string{}
                                                   : " (unresolved: " + missing + ")"));
  }
  return *v;
}

long long fold_int(const Expr& e, const Bindings& env) {
  const double v = fold_scalar(e, env);
  const double r = std::nearbyint(v);
  if (std::fabs(v - r) > 1e-6) {
    throw CompileError(e.loc, "expected integer value from '" + e.str() + "', got " +
                                  std::to_string(v));
  }
  return static_cast<long long>(r);
}

}  // namespace hpf90d::front
