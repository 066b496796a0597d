#include "compiler/codegen_f77.hpp"

#include <sstream>

namespace hpf90d::compiler {

namespace {

class Printer {
 public:
  explicit Printer(const CompiledProgram& prog) : prog_(prog) {}

  std::string run() {
    os_ << "      program " << prog_.name << "_node\n";
    os_ << "c     SPMD node program generated by the HPF/Fortran 90D compiler\n";
    os_ << "c     (loosely synchronous: alternating local computation and\n";
    os_ << "c      global communication phases)\n";
    emit_children(*prog_.root, 0);
    os_ << "      end\n";
    return os_.str();
  }

 private:
  void line(int indent, const std::string& text) {
    os_ << "      ";
    for (int i = 0; i < indent; ++i) os_ << "  ";
    os_ << text << '\n';
  }

  [[nodiscard]] std::string sym_name(int id) const {
    return id >= 0 ? prog_.symbols.at(id).name : std::string("?");
  }

  void emit_children(const SpmdNode& node, int indent) {
    for (const auto& c : node.children) emit(*c, indent);
  }

  void emit(const SpmdNode& node, int indent) {
    switch (node.kind) {
      case SpmdKind::Seq:
        emit_children(node, indent);
        break;
      case SpmdKind::ScalarAssign:
        line(indent, node.lhs->str() + " = " + node.rhs->str());
        break;
      case SpmdKind::LocalLoop: {
        line(indent, "call adjust_bounds()");
        int depth = 0;
        for (const auto& ix : node.space) {
          line(indent + depth, "do " + ix.name + " = max(" + ix.lo->str() +
                                   ", lo$" + ix.name + "), min(" + ix.hi->str() +
                                   ", hi$" + ix.name + ")" +
                                   (ix.stride ? ", " + ix.stride->str() : ""));
          ++depth;
        }
        if (node.mask) {
          line(indent + depth, "if (" + node.mask->str() + ") then");
          ++depth;
        }
        if (node.inner) {
          line(indent + depth, "acc = " + std::string(node.inner->op == ReduceOp::Product ? "1.0" : "0.0"));
          line(indent + depth, "do " + node.inner->index.name + " = " +
                                   node.inner->index.lo->str() + ", " +
                                   node.inner->index.hi->str());
          line(indent + depth + 1,
               "acc = " + std::string(node.inner->op == ReduceOp::Product ? "acc * " : "acc + ") +
                   node.inner->arg->str());
          line(indent + depth, "end do");
          line(indent + depth, node.lhs->str() + " = acc");
        } else {
          line(indent + depth, node.lhs->str() + " = " + node.rhs->str());
        }
        if (node.mask) {
          --depth;
          line(indent + depth, "end if");
        }
        for (std::size_t i = node.space.size(); i-- > 0;) {
          line(indent + static_cast<int>(i), "end do");
        }
        break;
      }
      case SpmdKind::OverlapComm:
        line(indent, "call exchange_overlap(" + sym_name(node.comm_array) + ", dim=" +
                         std::to_string(node.comm_dim + 1) + ", width=" +
                         std::to_string(node.comm_offset) + ")");
        break;
      case SpmdKind::CShiftComm:
        line(indent, "call cshift_to_temp(" + sym_name(node.comm_array) + ", " +
                         sym_name(node.comm_temp) + ", shift=" +
                         (node.comm_amount ? node.comm_amount->str() : "?") + ", dim=" +
                         std::to_string(node.comm_dim + 1) + ")");
        break;
      case SpmdKind::GatherComm:
        line(indent, std::string("call ") +
                         (node.gather_pattern == GatherPattern::Irregular
                              ? "gather_irregular("
                              : "remap_gather(") +
                         sym_name(node.comm_array) + ")");
        break;
      case SpmdKind::ScatterComm:
        line(indent, "call scatter_irregular(" + sym_name(node.comm_array) + ")");
        break;
      case SpmdKind::SliceBroadcast:
        line(indent, "call broadcast_slice(" + sym_name(node.comm_array) + ", dim=" +
                         std::to_string(node.comm_dim + 1) + ")");
        break;
      case SpmdKind::Reduce: {
        const std::string fn = node.reduce_op == ReduceOp::Sum       ? "gsum"
                               : node.reduce_op == ReduceOp::Product ? "gprod"
                               : node.reduce_op == ReduceOp::MaxVal  ? "gmax"
                               : node.reduce_op == ReduceOp::MinVal  ? "gmin"
                                                                     : "gmaxloc";
        line(indent, "call local_reduce(acc, " + node.reduce_arg->str() + ")");
        line(indent, "call " + fn + "(acc, " + sym_name(node.reduce_result) + ")");
        break;
      }
      case SpmdKind::DoLoop:
        line(indent, "do " + node.do_var + " = " + node.do_lo->str() + ", " +
                         node.do_hi->str() +
                         (node.do_step ? ", " + node.do_step->str() : ""));
        emit_children(node, indent + 1);
        line(indent, "end do");
        break;
      case SpmdKind::WhileLoop:
        line(indent, "do while (" + node.mask->str() + ")");
        emit_children(node, indent + 1);
        line(indent, "end do");
        break;
      case SpmdKind::IfBlock:
        line(indent, "if (" + node.mask->str() + ") then");
        emit_children(node, indent + 1);
        if (!node.else_children.empty()) {
          line(indent, "else");
          for (const auto& c : node.else_children) emit(*c, indent + 1);
        }
        line(indent, "end if");
        break;
      case SpmdKind::HostIO: {
        std::string args;
        for (const auto& e : node.io_args) args += ", " + e->str();
        line(indent, "if (mynode() .eq. 0) print *" + args);
        break;
      }
    }
  }

  const CompiledProgram& prog_;
  std::ostringstream os_;
};

}  // namespace

std::string codegen_f77(const CompiledProgram& prog) {
  Printer printer(prog);
  return printer.run();
}

}  // namespace hpf90d::compiler
