#include "compiler/opcount.hpp"

#include <algorithm>

#include "compiler/spmd_ir.hpp"

namespace hpf90d::compiler {

using front::Expr;
using front::ExprKind;
using front::TypeBase;

void OpCounts::add(const OpCounts& other) {
  fadd += other.fadd;
  fmul += other.fmul;
  fdiv += other.fdiv;
  fpow += other.fpow;
  iops += other.iops;
  loads += other.loads;
  stores += other.stores;
  for (std::size_t i = 0; i < intrinsics.size(); ++i) intrinsics[i] += other.intrinsics[i];
  depth = std::max(depth, other.depth);
}

namespace {

bool is_float(TypeBase t) { return t == TypeBase::Real || t == TypeBase::Double; }

void count_rec(const Expr& e, OpCounts& out, int& depth) {
  switch (e.kind) {
    case ExprKind::IntLit:
    case ExprKind::RealLit:
    case ExprKind::LogicalLit:
    case ExprKind::Var:
      depth = 0;  // literals and scalars are register operands
      return;
    case ExprKind::ArrayRef: {
      int sub_depth = 0;
      for (const auto& sub : e.subs) {
        if (sub.kind == front::Subscript::Kind::Scalar) {
          int d = 0;
          count_rec(*sub.scalar, out, d);
          sub_depth = std::max(sub_depth, d);
        }
        out.iops += 1;  // address arithmetic per dimension
      }
      out.loads += 1;
      depth = sub_depth + 1;  // load latency on the chain
      return;
    }
    case ExprKind::Unary: {
      int d = 0;
      count_rec(*e.args[0], out, d);
      if (e.un_op == front::UnOp::Neg) {
        if (is_float(e.type)) ++out.fadd; else ++out.iops;
      }
      depth = d + 1;
      return;
    }
    case ExprKind::Binary: {
      int dl = 0, dr = 0;
      count_rec(*e.args[0], out, dl);
      count_rec(*e.args[1], out, dr);
      const bool f = is_float(e.type) ||
                     is_float(e.args[0]->type) || is_float(e.args[1]->type);
      switch (e.bin_op) {
        case front::BinOp::Add:
        case front::BinOp::Sub:
          f ? ++out.fadd : ++out.iops;
          break;
        case front::BinOp::Mul:
          f ? ++out.fmul : ++out.iops;
          break;
        case front::BinOp::Div:
          f ? ++out.fdiv : ++out.iops;
          break;
        case front::BinOp::Pow:
          ++out.fpow;
          break;
        case front::BinOp::Lt:
        case front::BinOp::Le:
        case front::BinOp::Gt:
        case front::BinOp::Ge:
        case front::BinOp::Eq:
        case front::BinOp::Ne:
          f ? ++out.fadd : ++out.iops;  // compare ~ subtract
          break;
        case front::BinOp::And:
        case front::BinOp::Or:
          ++out.iops;
          break;
      }
      depth = std::max(dl, dr) + 1;
      return;
    }
    case ExprKind::Call: {
      int dmax = 0;
      for (const auto& a : e.args) {
        int d = 0;
        count_rec(*a, out, d);
        dmax = std::max(dmax, d);
      }
      // cheap conversions fold into the pipeline; library calls are charged
      // per id so the SAU can price them individually; reductions / shifts
      // are lowered to dedicated SPMD nodes before cost interpretation, so
      // one still embedded (or an unresolved call) counts as a single
      // element access
      const front::CostClass cost = e.intrinsic
                                        ? front::intrinsic_info(*e.intrinsic).cost
                                        : front::CostClass::Lowered;
      switch (cost) {
        case front::CostClass::Convert: ++out.iops; break;
        case front::CostClass::Cheap: ++out.fadd; break;
        case front::CostClass::Library:
          ++out.intrinsics[static_cast<std::size_t>(*e.intrinsic)];
          break;
        case front::CostClass::Lowered:
        case front::CostClass::Inquiry: ++out.loads; break;
      }
      // a library call has long latency on the chain
      depth = dmax + (cost == front::CostClass::Library ? 8 : 1);
      return;
    }
  }
}

}  // namespace

OpCounts count_expr(const Expr& e) {
  OpCounts out;
  int depth = 0;
  count_rec(e, out, depth);
  out.depth = depth;
  return out;
}

OpCounts count_assignment(const Expr& lhs, const Expr& rhs) {
  OpCounts out = count_expr(rhs);
  if (lhs.kind == ExprKind::ArrayRef) {
    OpCounts addr;
    int d = 0;
    for (const auto& sub : lhs.subs) {
      if (sub.kind == front::Subscript::Kind::Scalar) count_rec(*sub.scalar, addr, d);
      addr.iops += 1;
    }
    addr.loads = 0;  // LHS address math only
    out.add(addr);
  }
  out.stores += 1;
  out.depth += 1;
  return out;
}

void count_array_refs(const front::Expr& e, long long& count) {
  if (e.kind == ExprKind::ArrayRef) ++count;
  for (const auto& a : e.args) count_array_refs(*a, count);
  for (const auto& s : e.subs) {
    if (s.scalar) count_array_refs(*s.scalar, count);
  }
}

namespace {

void node_ops_rec(const SpmdNode& n, std::vector<NodeOpCounts>& out) {
  if (n.id >= 0 && static_cast<std::size_t>(n.id) < out.size()) {
    NodeOpCounts& slot = out[static_cast<std::size_t>(n.id)];
    switch (n.kind) {
      case SpmdKind::ScalarAssign:
        slot.body = count_expr(*n.rhs);
        break;
      case SpmdKind::LocalLoop:
        if (n.inner) {
          slot.body = count_expr(*n.inner->arg);
          slot.body.fadd += 1;  // accumulate
        } else {
          slot.body = count_assignment(*n.lhs, *n.rhs);
        }
        break;
      case SpmdKind::Reduce:
        slot.body = count_expr(*n.reduce_arg);
        slot.body.fadd += 1;
        break;
      default:
        break;
    }
    if (n.mask) slot.cond = count_expr(*n.mask);
    if (n.rhs) count_array_refs(*n.rhs, slot.ws_arrays);
    if (n.inner) count_array_refs(*n.inner->arg, slot.ws_arrays);
    if (n.reduce_arg) count_array_refs(*n.reduce_arg, slot.ws_arrays);
  }
  for (const auto& c : n.children) node_ops_rec(*c, out);
  for (const auto& c : n.else_children) node_ops_rec(*c, out);
}

}  // namespace

std::vector<NodeOpCounts> collect_node_ops(const CompiledProgram& prog) {
  std::vector<NodeOpCounts> out(static_cast<std::size_t>(prog.node_count));
  if (prog.root) node_ops_rec(*prog.root, out);
  return out;
}

void compute_node_ops(CompiledProgram& prog) { prog.node_ops = collect_node_ops(prog); }

}  // namespace hpf90d::compiler
