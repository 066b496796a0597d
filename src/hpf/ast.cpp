#include "hpf/ast.hpp"

#include <sstream>
#include <utility>

namespace hpf90d::front {

int type_size_bytes(TypeBase t) noexcept {
  switch (t) {
    case TypeBase::Integer: return 4;
    case TypeBase::Real: return 4;
    case TypeBase::Double: return 8;
    case TypeBase::Logical: return 4;
  }
  return 4;
}

std::string_view binop_spelling(BinOp op) noexcept {
  switch (op) {
    case BinOp::Add: return "+";
    case BinOp::Sub: return "-";
    case BinOp::Mul: return "*";
    case BinOp::Div: return "/";
    case BinOp::Pow: return "**";
    case BinOp::Lt: return ".lt.";
    case BinOp::Le: return ".le.";
    case BinOp::Gt: return ".gt.";
    case BinOp::Ge: return ".ge.";
    case BinOp::Eq: return ".eq.";
    case BinOp::Ne: return ".ne.";
    case BinOp::And: return ".and.";
    case BinOp::Or: return ".or.";
  }
  return "?";
}

ExprPtr Expr::clone() const {
  // A worklist of (source, destination slot) pairs instead of one call per
  // level: expressions reach kMaxExprHeight levels, and lowering clones
  // them on threads with small stacks. The list is per thread, so cloning
  // allocates only the copy.
  thread_local std::vector<std::pair<const Expr*, ExprPtr*>> work;
  ExprPtr root;
  work.assign(1, {this, &root});
  while (!work.empty()) {
    const auto [src, slot] = work.back();
    work.pop_back();
    auto out = std::make_unique<Expr>();
    out->kind = src->kind;
    out->loc = src->loc;
    out->int_value = src->int_value;
    out->real_value = src->real_value;
    out->bool_value = src->bool_value;
    out->name = src->name;
    out->symbol = src->symbol;
    out->intrinsic = src->intrinsic;
    out->bin_op = src->bin_op;
    out->un_op = src->un_op;
    out->type = src->type;
    out->rank = src->rank;
    out->args.resize(src->args.size());
    for (std::size_t i = 0; i < src->args.size(); ++i) {
      work.emplace_back(src->args[i].get(), &out->args[i]);
    }
    out->subs.resize(src->subs.size());
    for (std::size_t i = 0; i < src->subs.size(); ++i) {
      const Subscript& from = src->subs[i];
      Subscript& to = out->subs[i];
      to.kind = from.kind;
      for (const auto& [part, dst] : {std::pair{&from.scalar, &to.scalar},
                                      std::pair{&from.lo, &to.lo},
                                      std::pair{&from.hi, &to.hi},
                                      std::pair{&from.stride, &to.stride}}) {
        if (*part) work.emplace_back(part->get(), dst);
      }
    }
    *slot = std::move(out);
  }
  return root;
}

namespace {
void render_subscript(std::ostringstream& os, const Subscript& s) {
  switch (s.kind) {
    case Subscript::Kind::Scalar:
      os << s.scalar->str();
      break;
    case Subscript::Kind::All:
      os << ':';
      break;
    case Subscript::Kind::Triplet:
      if (s.lo) os << s.lo->str();
      os << ':';
      if (s.hi) os << s.hi->str();
      if (s.stride) os << ':' << s.stride->str();
      break;
  }
}
}  // namespace

std::string Expr::str() const {
  std::ostringstream os;
  switch (kind) {
    case ExprKind::IntLit:
      os << int_value;
      break;
    case ExprKind::RealLit: {
      std::ostringstream tmp;
      tmp << real_value;
      std::string t = tmp.str();
      os << t;
      if (t.find('.') == std::string::npos && t.find('e') == std::string::npos &&
          t.find("inf") == std::string::npos && t.find("nan") == std::string::npos) {
        os << ".0";
      }
      break;
    }
    case ExprKind::LogicalLit:
      os << (bool_value ? ".true." : ".false.");
      break;
    case ExprKind::Var:
      os << name;
      break;
    case ExprKind::ArrayRef: {
      os << name << '(';
      for (std::size_t i = 0; i < subs.size(); ++i) {
        if (i) os << ',';
        render_subscript(os, subs[i]);
      }
      os << ')';
      break;
    }
    case ExprKind::Binary:
      os << '(' << args[0]->str() << ' ' << binop_spelling(bin_op) << ' '
         << args[1]->str() << ')';
      break;
    case ExprKind::Unary:
      os << (un_op == UnOp::Neg ? "(-" : un_op == UnOp::Not ? "(.not. " : "(+")
         << args[0]->str() << ')';
      break;
    case ExprKind::Call: {
      os << name << '(';
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (i) os << ',';
        os << args[i]->str();
      }
      os << ')';
      break;
    }
  }
  return os.str();
}

ExprPtr make_int_lit(long long v, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::IntLit;
  e->loc = loc;
  e->int_value = v;
  e->real_value = static_cast<double>(v);
  e->type = TypeBase::Integer;
  return e;
}

ExprPtr make_real_lit(double v, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::RealLit;
  e->loc = loc;
  e->real_value = v;
  e->type = TypeBase::Real;
  return e;
}

ExprPtr make_var(std::string name, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Var;
  e->loc = loc;
  e->name = std::move(name);
  return e;
}

ExprPtr make_binary(BinOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Binary;
  e->loc = lhs->loc;
  e->bin_op = op;
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  return e;
}

ExprPtr make_unary(UnOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Unary;
  e->loc = operand->loc;
  e->un_op = op;
  e->args.push_back(std::move(operand));
  return e;
}

}  // namespace hpf90d::front
