#include "compiler/spmd_ir.hpp"

#include <sstream>

namespace hpf90d::compiler {

std::string_view spmd_kind_name(SpmdKind k) noexcept {
  switch (k) {
    case SpmdKind::Seq: return "Seq";
    case SpmdKind::ScalarAssign: return "ScalarAssign";
    case SpmdKind::LocalLoop: return "LocalLoop";
    case SpmdKind::OverlapComm: return "OverlapComm";
    case SpmdKind::CShiftComm: return "CShiftComm";
    case SpmdKind::GatherComm: return "GatherComm";
    case SpmdKind::ScatterComm: return "ScatterComm";
    case SpmdKind::SliceBroadcast: return "SliceBroadcast";
    case SpmdKind::Reduce: return "Reduce";
    case SpmdKind::DoLoop: return "DoLoop";
    case SpmdKind::WhileLoop: return "WhileLoop";
    case SpmdKind::IfBlock: return "IfBlock";
    case SpmdKind::HostIO: return "HostIO";
  }
  return "?";
}

std::string_view reduce_op_name(ReduceOp op) noexcept {
  switch (op) {
    case ReduceOp::Sum: return "sum";
    case ReduceOp::Product: return "product";
    case ReduceOp::MaxVal: return "maxval";
    case ReduceOp::MinVal: return "minval";
    case ReduceOp::MaxLoc: return "maxloc";
  }
  return "?";
}

IterIndex IterIndex::clone() const {
  IterIndex out;
  out.name = name;
  out.symbol = symbol;
  if (lo) out.lo = lo->clone();
  if (hi) out.hi = hi->clone();
  if (stride) out.stride = stride->clone();
  return out;
}

std::string SpmdNode::str(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  std::ostringstream os;
  os << pad << '[' << id << "] " << spmd_kind_name(kind);
  switch (kind) {
    case SpmdKind::ScalarAssign:
      os << ": " << lhs->str() << " = " << rhs->str();
      break;
    case SpmdKind::LocalLoop: {
      os << " (";
      for (std::size_t i = 0; i < space.size(); ++i) {
        if (i) os << ", ";
        os << space[i].name << '=' << space[i].lo->str() << ':' << space[i].hi->str();
        if (space[i].stride) os << ':' << space[i].stride->str();
      }
      os << ")";
      if (mask) os << " mask=" << mask->str();
      if (inner) {
        os << " " << lhs->str() << " = " << reduce_op_name(inner->op) << "("
           << inner->index.name << '=' << inner->index.lo->str() << ':'
           << inner->index.hi->str() << ") " << inner->arg->str();
      } else if (lhs && rhs) {
        os << " " << lhs->str() << " = " << rhs->str();
      }
      break;
    }
    case SpmdKind::OverlapComm:
      os << ": array#" << comm_array << " dim " << comm_dim << " offset " << comm_offset
         << " (" << comm_note << ")";
      break;
    case SpmdKind::CShiftComm:
      os << ": array#" << comm_array << " -> temp#" << comm_temp << " dim " << comm_dim
         << " shift " << (comm_amount ? comm_amount->str() : "?");
      break;
    case SpmdKind::GatherComm:
      os << ": array#" << comm_array
         << (gather_pattern == GatherPattern::Irregular ? " irregular" : " remap") << " ("
         << comm_note << ")";
      break;
    case SpmdKind::ScatterComm:
      os << ": array#" << comm_array << " irregular scatter (" << comm_note << ")";
      break;
    case SpmdKind::SliceBroadcast:
      os << ": array#" << comm_array << " dim " << comm_dim << " (" << comm_note << ")";
      break;
    case SpmdKind::Reduce:
      os << ": " << reduce_op_name(reduce_op) << " -> sym#" << reduce_result << " of "
         << (reduce_arg ? reduce_arg->str() : "?");
      break;
    case SpmdKind::DoLoop:
      os << ": " << do_var << " = " << do_lo->str() << ", " << do_hi->str();
      if (do_step) os << ", " << do_step->str();
      break;
    case SpmdKind::WhileLoop:
      os << ": while (" << mask->str() << ")";
      break;
    case SpmdKind::IfBlock:
      os << ": if (" << mask->str() << ")";
      break;
    case SpmdKind::HostIO:
      os << ": print";
      break;
    case SpmdKind::Seq:
      break;
  }
  os << '\n';
  for (const auto& c : children) os << c->str(indent + 1);
  if (!else_children.empty()) {
    os << pad << "else:\n";
    for (const auto& c : else_children) os << c->str(indent + 1);
  }
  return os.str();
}

}  // namespace hpf90d::compiler
