#include "hpf/sema.hpp"

#include <algorithm>

#include "hpf/fold.hpp"
#include "hpf/intrinsics.hpp"
#include "support/diagnostics.hpp"

namespace hpf90d::front {

using support::CompileError;

int SymbolTable::add(Symbol sym) {
  if (index_.contains(sym.name)) {
    throw CompileError(sym.loc, "duplicate declaration of '" + sym.name + "'");
  }
  const int id = static_cast<int>(symbols_.size());
  index_.emplace(sym.name, id);
  symbols_.push_back(std::move(sym));
  return id;
}

int SymbolTable::find(std::string_view name) const {
  const auto it = index_.find(std::string(name));
  return it == index_.end() ? -1 : it->second;
}

namespace {

TypeBase implicit_type(std::string_view name) {
  const char c = name.empty() ? 'x' : name.front();
  return (c >= 'i' && c <= 'n') ? TypeBase::Integer : TypeBase::Real;
}

/// Numeric type promotion following Fortran rules within the subset.
TypeBase promote(TypeBase a, TypeBase b) {
  if (a == TypeBase::Double || b == TypeBase::Double) return TypeBase::Double;
  if (a == TypeBase::Real || b == TypeBase::Real) return TypeBase::Real;
  if (a == TypeBase::Logical && b == TypeBase::Logical) return TypeBase::Logical;
  return TypeBase::Integer;
}

bool is_numeric(TypeBase t) { return t != TypeBase::Logical; }

class Analyzer {
 public:
  explicit Analyzer(Program& prog) : prog_(prog) {}

  SymbolTable run() {
    register_parameters();
    register_declarations();
    for (auto& stmt : prog_.stmts) analyze_stmt(*stmt);
    return std::move(table_);
  }

 private:
  void register_parameters() {
    Bindings env;
    for (auto& p : prog_.parameters) {
      Symbol sym;
      sym.name = p.name;
      sym.kind = SymbolKind::Param;
      sym.type = implicit_type(p.name);
      sym.loc = p.loc;
      sym.param_value = p.value->clone();
      if (const auto v = try_fold(*p.value, env)) {
        sym.const_value = *v;
        env.set(p.name, *v);
      }
      table_.add(std::move(sym));
    }
  }

  void register_declarations() {
    for (auto& decl : prog_.decls) {
      for (auto& item : decl.items) {
        const int existing = table_.find(item.name);
        if (existing >= 0) {
          // A declared type for an already-registered PARAMETER adjusts its
          // type (e.g. `integer n` + `parameter (n=...)` in either order).
          Symbol& sym = table_.at(existing);
          if (sym.kind == SymbolKind::Param && item.dims.empty()) {
            sym.type = decl.type;
            continue;
          }
          throw CompileError(item.loc, "duplicate declaration of '" + item.name + "'");
        }
        Symbol sym;
        sym.name = item.name;
        sym.kind = item.dims.empty() ? SymbolKind::Scalar : SymbolKind::Array;
        sym.type = decl.type;
        sym.loc = item.loc;
        for (auto& d : item.dims) sym.dims.push_back(d->clone());
        table_.add(std::move(sym));
      }
    }
    // Annotate array extent expressions (they reference parameters or
    // scalars); later stages clone them into iteration bounds and evaluate
    // them against the scalar environment.
    for (std::size_t i = 0; i < table_.size(); ++i) {
      // note: analyze_expr may auto-declare implicit scalars, growing the
      // table — re-index on every access instead of holding a reference
      const std::size_t ndims = table_.at(static_cast<int>(i)).dims.size();
      for (std::size_t d = 0; d < ndims; ++d) {
        analyze_expr(*table_.at(static_cast<int>(i)).dims[d]);
      }
    }
  }

  int ensure_scalar_symbol(const std::string& name, SourceLoc loc, SymbolKind kind) {
    const int found = table_.find(name);
    if (found >= 0) {
      const Symbol& sym = table_.at(found);
      if (sym.kind == SymbolKind::Array) {
        throw CompileError(loc, "'" + name + "' is an array; scalar expected");
      }
      return found;
    }
    Symbol sym;
    sym.name = name;
    sym.kind = kind;
    sym.type = kind == SymbolKind::LoopIndex ? TypeBase::Integer : implicit_type(name);
    sym.loc = loc;
    return table_.add(std::move(sym));
  }

  // -- statements ---------------------------------------------------------
  void analyze_stmt(Stmt& stmt) {
    switch (stmt.kind) {
      case StmtKind::Assign: {
        analyze_expr(*stmt.lhs);
        analyze_expr(*stmt.rhs);
        if (stmt.lhs->kind == ExprKind::Call) {
          throw CompileError(stmt.loc, "cannot assign to intrinsic '" + stmt.lhs->name + "'");
        }
        const int lr = stmt.lhs->rank;
        const int rr = stmt.rhs->rank;
        if (rr != 0 && lr != rr) {
          throw CompileError(stmt.loc,
                             "non-conformable assignment: lhs rank " + std::to_string(lr) +
                                 ", rhs rank " + std::to_string(rr));
        }
        break;
      }
      case StmtKind::Forall: {
        for (auto& idx : stmt.forall_indices) {
          idx.symbol = ensure_scalar_symbol(idx.name, stmt.loc, SymbolKind::LoopIndex);
          analyze_expr(*idx.lo);
          analyze_expr(*idx.hi);
          if (idx.stride) analyze_expr(*idx.stride);
        }
        if (stmt.mask) {
          analyze_expr(*stmt.mask);
          if (stmt.mask->type != TypeBase::Logical) {
            throw CompileError(stmt.mask->loc, "forall mask must be LOGICAL");
          }
        }
        for (auto& s : stmt.body) {
          if (s->kind != StmtKind::Assign && s->kind != StmtKind::Where) {
            throw CompileError(s->loc, "forall body may contain only assignments");
          }
          analyze_stmt(*s);
        }
        break;
      }
      case StmtKind::Where: {
        analyze_expr(*stmt.mask);
        if (stmt.mask->type != TypeBase::Logical || stmt.mask->rank == 0) {
          throw CompileError(stmt.mask->loc, "where mask must be a LOGICAL array");
        }
        for (auto& s : stmt.body) analyze_stmt(*s);
        for (auto& s : stmt.else_body) analyze_stmt(*s);
        break;
      }
      case StmtKind::Do: {
        stmt.do_symbol = ensure_scalar_symbol(stmt.do_var, stmt.loc, SymbolKind::LoopIndex);
        analyze_expr(*stmt.do_lo);
        analyze_expr(*stmt.do_hi);
        if (stmt.do_step) analyze_expr(*stmt.do_step);
        for (auto& s : stmt.body) analyze_stmt(*s);
        break;
      }
      case StmtKind::DoWhile: {
        analyze_expr(*stmt.mask);
        if (stmt.mask->type != TypeBase::Logical) {
          throw CompileError(stmt.mask->loc, "do while condition must be LOGICAL");
        }
        for (auto& s : stmt.body) analyze_stmt(*s);
        break;
      }
      case StmtKind::If: {
        analyze_expr(*stmt.mask);
        if (stmt.mask->type != TypeBase::Logical || stmt.mask->rank != 0) {
          throw CompileError(stmt.mask->loc, "if condition must be scalar LOGICAL");
        }
        for (auto& s : stmt.body) analyze_stmt(*s);
        for (auto& s : stmt.else_body) analyze_stmt(*s);
        break;
      }
      case StmtKind::Print: {
        for (auto& e : stmt.print_args) analyze_expr(*e);
        break;
      }
    }
  }

  // -- expressions ----------------------------------------------------------
  void analyze_expr(Expr& e) {
    switch (e.kind) {
      case ExprKind::IntLit:
        e.type = TypeBase::Integer;
        e.rank = 0;
        break;
      case ExprKind::RealLit:
        e.type = TypeBase::Real;
        e.rank = 0;
        break;
      case ExprKind::LogicalLit:
        e.type = TypeBase::Logical;
        e.rank = 0;
        break;
      case ExprKind::Var:
        analyze_var(e);
        break;
      case ExprKind::ArrayRef:
        analyze_array_ref(e);
        break;
      case ExprKind::Unary: {
        analyze_expr(*e.args[0]);
        e.rank = e.args[0]->rank;
        if (e.un_op == UnOp::Not) {
          if (e.args[0]->type != TypeBase::Logical) {
            throw CompileError(e.loc, ".not. requires a LOGICAL operand");
          }
          e.type = TypeBase::Logical;
        } else {
          if (!is_numeric(e.args[0]->type)) {
            throw CompileError(e.loc, "unary +/- requires a numeric operand");
          }
          e.type = e.args[0]->type;
        }
        break;
      }
      case ExprKind::Binary:
        analyze_binary(e);
        break;
      case ExprKind::Call:
        analyze_call(e);
        break;
    }
  }

  void analyze_var(Expr& e) {
    int id = table_.find(e.name);
    if (id < 0) {
      if (find_intrinsic(e.name)) {
        throw CompileError(e.loc, "intrinsic '" + e.name + "' used without arguments");
      }
      id = ensure_scalar_symbol(e.name, e.loc, SymbolKind::Scalar);
    }
    const Symbol& sym = table_.at(id);
    e.symbol = id;
    e.type = sym.type;
    e.rank = sym.kind == SymbolKind::Array ? sym.rank() : 0;
  }

  void analyze_array_ref(Expr& e) {
    const int id = table_.find(e.name);
    if (id < 0) {
      throw CompileError(e.loc, "use of undeclared array '" + e.name + "'");
    }
    const Symbol& sym = table_.at(id);
    if (sym.kind != SymbolKind::Array) {
      throw CompileError(e.loc, "'" + e.name + "' is not an array");
    }
    if (static_cast<int>(e.subs.size()) != sym.rank()) {
      throw CompileError(e.loc, "'" + e.name + "' has rank " + std::to_string(sym.rank()) +
                                    " but " + std::to_string(e.subs.size()) +
                                    " subscripts were given");
    }
    e.symbol = id;
    e.type = sym.type;
    int rank = 0;
    for (auto& sub : e.subs) {
      switch (sub.kind) {
        case Subscript::Kind::Scalar:
          analyze_expr(*sub.scalar);
          if (sub.scalar->type != TypeBase::Integer) {
            throw CompileError(sub.scalar->loc, "subscript must be INTEGER");
          }
          if (sub.scalar->rank != 0) {
            // vector subscript — irregular access (e.g. the PIC kernel's
            // gather)
            rank = std::max(rank, sub.scalar->rank);
          }
          break;
        case Subscript::Kind::All:
          ++rank;
          break;
        case Subscript::Kind::Triplet:
          if (sub.lo) analyze_expr(*sub.lo);
          if (sub.hi) analyze_expr(*sub.hi);
          if (sub.stride) analyze_expr(*sub.stride);
          ++rank;
          break;
      }
    }
    e.rank = rank;
  }

  void analyze_binary(Expr& e) {
    analyze_expr(*e.args[0]);
    analyze_expr(*e.args[1]);
    const Expr& a = *e.args[0];
    const Expr& b = *e.args[1];
    if (a.rank != 0 && b.rank != 0 && a.rank != b.rank) {
      throw CompileError(e.loc, "non-conformable operands (ranks " +
                                    std::to_string(a.rank) + " and " +
                                    std::to_string(b.rank) + ")");
    }
    e.rank = std::max(a.rank, b.rank);
    switch (e.bin_op) {
      case BinOp::Add:
      case BinOp::Sub:
      case BinOp::Mul:
      case BinOp::Div:
      case BinOp::Pow:
        if (!is_numeric(a.type) || !is_numeric(b.type)) {
          throw CompileError(e.loc, "arithmetic on LOGICAL operand");
        }
        e.type = promote(a.type, b.type);
        break;
      case BinOp::Lt:
      case BinOp::Le:
      case BinOp::Gt:
      case BinOp::Ge:
      case BinOp::Eq:
      case BinOp::Ne:
        e.type = TypeBase::Logical;
        break;
      case BinOp::And:
      case BinOp::Or:
        if (a.type != TypeBase::Logical || b.type != TypeBase::Logical) {
          throw CompileError(e.loc, ".and./.or. require LOGICAL operands");
        }
        e.type = TypeBase::Logical;
        break;
    }
  }

  void analyze_call(Expr& e) {
    // Parser produced Call for `name(scalar-args...)`; decide array vs
    // intrinsic by symbol lookup (declared arrays shadow intrinsics).
    const int id = table_.find(e.name);
    if (id >= 0 && table_.at(id).kind == SymbolKind::Array) {
      // convert to ArrayRef with scalar subscripts
      e.kind = ExprKind::ArrayRef;
      e.subs.reserve(e.args.size());
      for (auto& a : e.args) {
        Subscript sub;
        sub.kind = Subscript::Kind::Scalar;
        sub.scalar = std::move(a);
        e.subs.push_back(std::move(sub));
      }
      e.args.clear();
      analyze_array_ref(e);
      return;
    }
    e.intrinsic = find_intrinsic(e.name);
    if (!e.intrinsic) {
      throw CompileError(e.loc, "unknown function or undeclared array '" + e.name + "'");
    }
    const IntrinsicInfo& info = intrinsic_info(*e.intrinsic);
    const int argc = static_cast<int>(e.args.size());
    if (argc < info.min_args || argc > info.max_args) {
      throw CompileError(e.loc, "intrinsic '" + e.name + "' takes " +
                                    std::to_string(info.min_args) + ".." +
                                    std::to_string(info.max_args) + " arguments");
    }
    for (auto& a : e.args) analyze_expr(*a);

    switch (info.kind) {
      case IntrinsicKind::Elemental: {
        int rank = 0;
        TypeBase t = e.args[0]->type;
        for (const auto& a : e.args) {
          if (a->rank != 0) {
            if (rank != 0 && a->rank != rank) {
              throw CompileError(e.loc, "non-conformable elemental arguments");
            }
            rank = a->rank;
          }
          t = promote(t, a->type);
        }
        e.rank = rank;
        e.type = t;
        break;
      }
      case IntrinsicKind::Reduction: {
        if (e.args[0]->rank == 0) {
          throw CompileError(e.loc, "'" + e.name + "' requires an array argument");
        }
        const bool has_dim = argc == 2;
        if (has_dim && e.args[1]->rank != 0) {
          throw CompileError(e.loc, "DIM argument must be scalar");
        }
        e.rank = has_dim ? e.args[0]->rank - 1 : 0;
        e.type = e.args[0]->type;
        break;
      }
      case IntrinsicKind::Location: {
        if (e.args[0]->rank != 1) {
          throw CompileError(e.loc, "'" + e.name + "' supports rank-1 arrays only");
        }
        e.rank = 0;  // the row's typing makes it INTEGER
        break;
      }
      case IntrinsicKind::Shift: {
        if (e.args[0]->rank == 0) {
          throw CompileError(e.loc, "'" + e.name + "' requires an array argument");
        }
        if (e.args[1]->rank != 0) {
          throw CompileError(e.loc, "shift amount must be scalar");
        }
        e.rank = e.args[0]->rank;
        e.type = e.args[0]->type;
        break;
      }
      case IntrinsicKind::Inquiry:
        e.rank = 0;
        break;
    }
    switch (info.typing) {
      case ResultTyping::SameAsArg: break;
      case ResultTyping::ForceReal: e.type = TypeBase::Real; break;
      case ResultTyping::ForceDouble: e.type = TypeBase::Double; break;
      case ResultTyping::ForceInteger: e.type = TypeBase::Integer; break;
    }
  }

  Program& prog_;
  SymbolTable table_;
};

}  // namespace

SymbolTable analyze(Program& prog) {
  Analyzer analyzer(prog);
  return analyzer.run();
}

}  // namespace hpf90d::front
