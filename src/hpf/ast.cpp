#include "hpf/ast.hpp"

#include <sstream>
#include <utility>

namespace hpf90d::front {

std::string_view type_base_name(TypeBase t) noexcept {
  switch (t) {
    case TypeBase::Integer: return "integer";
    case TypeBase::Real: return "real";
    case TypeBase::Double: return "double precision";
    case TypeBase::Logical: return "logical";
  }
  return "?";
}

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

Subscript Subscript::clone() const {
  Subscript s;
  s.kind = kind;
  if (scalar) s.scalar = scalar->clone();
  if (lo) s.lo = lo->clone();
  if (hi) s.hi = hi->clone();
  if (stride) s.stride = stride->clone();
  return s;
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

ForallIndex ForallIndex::clone() const {
  ForallIndex out;
  out.name = name;
  out.symbol = symbol;
  out.lo = lo->clone();
  out.hi = hi->clone();
  if (stride) out.stride = stride->clone();
  return out;
}

StmtPtr Stmt::clone() const {
  auto out = std::make_unique<Stmt>();
  out->kind = kind;
  out->loc = loc;
  if (lhs) out->lhs = lhs->clone();
  if (rhs) out->rhs = rhs->clone();
  out->forall_indices.reserve(forall_indices.size());
  for (const auto& fi : forall_indices) out->forall_indices.push_back(fi.clone());
  if (mask) out->mask = mask->clone();
  out->do_var = do_var;
  out->do_symbol = do_symbol;
  if (do_lo) out->do_lo = do_lo->clone();
  if (do_hi) out->do_hi = do_hi->clone();
  if (do_step) out->do_step = do_step->clone();
  out->body.reserve(body.size());
  for (const auto& s : body) out->body.push_back(s->clone());
  out->else_body.reserve(else_body.size());
  for (const auto& s : else_body) out->else_body.push_back(s->clone());
  out->print_args.reserve(print_args.size());
  for (const auto& e : print_args) out->print_args.push_back(e->clone());
  return out;
}

std::string Stmt::str(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  std::ostringstream os;
  switch (kind) {
    case StmtKind::Assign:
      os << pad << lhs->str() << " = " << rhs->str() << '\n';
      break;
    case StmtKind::Forall: {
      os << pad << "forall (";
      for (std::size_t i = 0; i < forall_indices.size(); ++i) {
        if (i) os << ", ";
        const auto& fi = forall_indices[i];
        os << fi.name << '=' << fi.lo->str() << ':' << fi.hi->str();
        if (fi.stride) os << ':' << fi.stride->str();
      }
      if (mask) os << ", " << mask->str();
      os << ")\n";
      for (const auto& s : body) os << s->str(indent + 1);
      os << pad << "end forall\n";
      break;
    }
    case StmtKind::Where:
      os << pad << "where (" << mask->str() << ")\n";
      for (const auto& s : body) os << s->str(indent + 1);
      if (!else_body.empty()) {
        os << pad << "elsewhere\n";
        for (const auto& s : else_body) os << s->str(indent + 1);
      }
      os << pad << "end where\n";
      break;
    case StmtKind::Do:
      os << pad << "do " << do_var << " = " << do_lo->str() << ", " << do_hi->str();
      if (do_step) os << ", " << do_step->str();
      os << '\n';
      for (const auto& s : body) os << s->str(indent + 1);
      os << pad << "end do\n";
      break;
    case StmtKind::DoWhile:
      os << pad << "do while (" << mask->str() << ")\n";
      for (const auto& s : body) os << s->str(indent + 1);
      os << pad << "end do\n";
      break;
    case StmtKind::If:
      os << pad << "if (" << mask->str() << ") then\n";
      for (const auto& s : body) os << s->str(indent + 1);
      if (!else_body.empty()) {
        os << pad << "else\n";
        for (const auto& s : else_body) os << s->str(indent + 1);
      }
      os << pad << "end if\n";
      break;
    case StmtKind::Print:
      os << pad << "print *";
      for (const auto& e : print_args) os << ", " << e->str();
      os << '\n';
      break;
  }
  return os.str();
}

std::string Program::str() const {
  std::ostringstream os;
  os << "program " << name << '\n';
  for (const auto& d : decls) {
    os << "  " << type_base_name(d.type) << ' ';
    for (std::size_t i = 0; i < d.items.size(); ++i) {
      if (i) os << ", ";
      os << d.items[i].name;
      if (!d.items[i].dims.empty()) {
        os << '(';
        for (std::size_t k = 0; k < d.items[i].dims.size(); ++k) {
          if (k) os << ',';
          os << d.items[i].dims[k]->str();
        }
        os << ')';
      }
    }
    os << '\n';
  }
  for (const auto& p : parameters) {
    os << "  parameter (" << p.name << " = " << p.value->str() << ")\n";
  }
  for (const auto& rd : raw_directives) os << "!hpf$" << rd.text << '\n';
  for (const auto& s : stmts) os << s->str(1);
  os << "end program " << name << '\n';
  return os.str();
}

}  // namespace hpf90d::front
