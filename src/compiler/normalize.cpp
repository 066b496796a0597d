#include "compiler/normalize.hpp"

#include <functional>

#include "support/diagnostics.hpp"

namespace hpf90d::compiler {

using front::Expr;
using front::ExprKind;
using front::ExprPtr;
using front::Program;
using front::Stmt;
using front::StmtKind;
using front::StmtPtr;
using front::Subscript;
using front::SymbolKind;
using front::SymbolTable;
using support::CompileError;

namespace {

/// Description of one normalized section dimension of the LHS: the forall
/// index iterates lo:hi:stride directly in LHS index space.
struct SectionDim {
  ExprPtr lo, hi, stride;  // stride null => 1
};

/// Replaces each rank>0 term in `e` with its element under `indices`.
/// Section dim j of any term corresponds positionally to index j (Fortran
/// conformability); `dims` carries the iteration-space section (lo/stride)
/// that index j walks, so a term section `rlo:rhi:rst` maps to element
/// `rlo + ((i - lo)/stride)*rst`. Shift and reduction intrinsic calls stay
/// atomic for the lowerer.
void rewrite_terms(Expr& e, const std::vector<front::ForallIndex>& indices,
                   const std::vector<SectionDim>& dims, const SymbolTable& symbols) {
  switch (e.kind) {
    case ExprKind::IntLit:
    case ExprKind::RealLit:
    case ExprKind::LogicalLit:
      return;
    case ExprKind::Var: {
      if (e.rank == 0) return;
      const front::Symbol& sym = symbols.at(e.symbol);
      e.kind = ExprKind::ArrayRef;
      e.subs.resize(sym.dims.size());
      for (auto& s : e.subs) s.kind = Subscript::Kind::All;
      rewrite_terms(e, indices, dims, symbols);
      return;
    }
    case ExprKind::ArrayRef: {
      if (e.rank == 0) {
        for (auto& sub : e.subs) {
          if (sub.kind == Subscript::Kind::Scalar && sub.scalar->rank > 0) {
            rewrite_terms(*sub.scalar, indices, dims, symbols);
          }
        }
        return;
      }
      const front::Symbol& sym = symbols.at(e.symbol);
      std::size_t pos = 0;
      for (std::size_t k = 0; k < e.subs.size(); ++k) {
        Subscript& sub = e.subs[k];
        if (sub.kind == Subscript::Kind::Scalar) {
          if (sub.scalar->rank > 0) rewrite_terms(*sub.scalar, indices, dims, symbols);
          continue;
        }
        if (pos >= indices.size()) {
          throw CompileError(e.loc, "section rank exceeds assignment rank");
        }
        const front::ForallIndex& idx = indices[pos];
        const SectionDim& ld = dims[pos];

        ExprPtr rlo, rst;
        if (sub.kind == Subscript::Kind::All) {
          rlo = front::make_int_lit(1, e.loc);
        } else {
          rlo = sub.lo ? sub.lo->clone() : front::make_int_lit(1, e.loc);
          if (sub.stride) rst = sub.stride->clone();
        }

        auto iv = front::make_var(idx.name, e.loc);
        iv->symbol = idx.symbol;
        iv->type = front::TypeBase::Integer;
        ExprPtr elem;
        const bool same_lo = rlo->str() == ld.lo->str();
        const bool unit_strides = !ld.stride && !rst;
        const bool const_los = rlo->kind == ExprKind::IntLit &&
                               ld.lo->kind == ExprKind::IntLit;
        if (same_lo && unit_strides) {
          elem = std::move(iv);
        } else if (unit_strides && const_los) {
          // rlo + (i - llo) simplifies to i + c: keeps the subscript in the
          // affine-unit form the communication detector recognizes
          const long long c = rlo->int_value - ld.lo->int_value;
          if (c == 0) {
            elem = std::move(iv);
          } else if (c > 0) {
            elem = front::make_binary(front::BinOp::Add, std::move(iv),
                                      front::make_int_lit(c, e.loc));
            elem->type = front::TypeBase::Integer;
          } else {
            elem = front::make_binary(front::BinOp::Sub, std::move(iv),
                                      front::make_int_lit(-c, e.loc));
            elem->type = front::TypeBase::Integer;
          }
        } else {
          ExprPtr offset =
              front::make_binary(front::BinOp::Sub, std::move(iv), ld.lo->clone());
          if (ld.stride) {
            offset =
                front::make_binary(front::BinOp::Div, std::move(offset), ld.stride->clone());
          }
          if (rst) {
            offset = front::make_binary(front::BinOp::Mul, std::move(offset), std::move(rst));
          }
          elem = front::make_binary(front::BinOp::Add, std::move(rlo), std::move(offset));
          elem->type = front::TypeBase::Integer;
        }
        Subscript scalar;
        scalar.kind = Subscript::Kind::Scalar;
        scalar.scalar = std::move(elem);
        sub = std::move(scalar);
        ++pos;
      }
      e.rank = 0;
      (void)sym;
      return;
    }
    case ExprKind::Unary:
    case ExprKind::Binary:
      for (auto& a : e.args) rewrite_terms(*a, indices, dims, symbols);
      e.rank = 0;
      return;
    case ExprKind::Call: {
      const auto kind = e.intrinsic_kind();
      if (kind == front::IntrinsicKind::Shift || kind == front::IntrinsicKind::Reduction ||
          kind == front::IntrinsicKind::Location) {
        // atomic terms: the lowerer extracts shifts into temporaries and
        // reductions into Reduce nodes / inner loops
        return;
      }
      for (auto& a : e.args) rewrite_terms(*a, indices, dims, symbols);
      e.rank = 0;
      return;
    }
  }
}

class Normalizer {
 public:
  Normalizer(Program& prog, SymbolTable& symbols) : prog_(prog), symbols_(symbols) {}

  void run() {
    for (auto& stmt : prog_.stmts) normalize_stmt(stmt);
  }

 private:
  int fresh_index_symbol(std::string& out_name) {
    out_name = "i__" + std::to_string(++counter_);
    const int found = symbols_.find(out_name);
    if (found >= 0) return found;
    front::Symbol sym;
    sym.name = out_name;
    sym.kind = SymbolKind::LoopIndex;
    sym.type = front::TypeBase::Integer;
    return symbols_.add(std::move(sym));
  }

  void normalize_stmt(StmtPtr& stmt) {
    switch (stmt->kind) {
      case StmtKind::Assign:
        if (stmt->lhs->rank > 0) {
          stmt = array_assign_to_forall(std::move(stmt), /*extra_mask=*/nullptr,
                                        /*negate_mask=*/false);
        }
        break;
      case StmtKind::Where: {
        // where (mask) body [elsewhere else_body]  ->  sequence of masked foralls
        auto seq = std::vector<StmtPtr>{};
        for (auto& s : stmt->body) {
          if (s->kind != StmtKind::Assign || s->lhs->rank == 0) {
            throw CompileError(s->loc, "where body must contain array assignments");
          }
          seq.push_back(array_assign_to_forall(std::move(s), stmt->mask.get(), false));
        }
        for (auto& s : stmt->else_body) {
          if (s->kind != StmtKind::Assign || s->lhs->rank == 0) {
            throw CompileError(s->loc, "elsewhere body must contain array assignments");
          }
          seq.push_back(array_assign_to_forall(std::move(s), stmt->mask.get(), true));
        }
        if (seq.size() == 1) {
          stmt = std::move(seq.front());
        } else {
          // splice: wrap in a 1-trip do loop? Instead, replace this
          // statement with the first and queue the rest via a container
          // statement. The subset keeps it simple: rebuild as an If(.true.)
          // block is ugly — use a Do loop with one iteration? Cleanest is
          // to allow Stmt replacement lists; we model it with a Forall-less
          // sequence carrier: an If with constant-true condition.
          auto carrier = std::make_unique<Stmt>();
          carrier->kind = StmtKind::If;
          carrier->loc = stmt->loc;
          auto cond = std::make_unique<Expr>();
          cond->kind = ExprKind::LogicalLit;
          cond->bool_value = true;
          cond->type = front::TypeBase::Logical;
          carrier->mask = std::move(cond);
          carrier->body = std::move(seq);
          stmt = std::move(carrier);
        }
        break;
      }
      case StmtKind::Forall:
        for (auto& s : stmt->body) {
          if (s->kind == StmtKind::Where) normalize_stmt(s);
        }
        break;
      case StmtKind::Do:
      case StmtKind::DoWhile:
        for (auto& s : stmt->body) normalize_stmt(s);
        break;
      case StmtKind::If:
        for (auto& s : stmt->body) normalize_stmt(s);
        for (auto& s : stmt->else_body) normalize_stmt(s);
        break;
      case StmtKind::Print:
        break;
    }
  }

  /// Canonicalizes an expression used as the assignment LHS into an
  /// ArrayRef with one subscript per dimension (whole arrays get All subs).
  static void canonicalize_lhs(Expr& e, const SymbolTable& symbols) {
    if (e.kind == ExprKind::Var && e.rank > 0) {
      const front::Symbol& sym = symbols.at(e.symbol);
      e.kind = ExprKind::ArrayRef;
      e.subs.resize(sym.dims.size());
      for (auto& s : e.subs) s.kind = Subscript::Kind::All;
    }
  }

  StmtPtr array_assign_to_forall(StmtPtr assign, const Expr* extra_mask, bool negate_mask) {
    canonicalize_lhs(*assign->lhs, symbols_);
    Expr& lhs = *assign->lhs;
    if (lhs.kind != ExprKind::ArrayRef) {
      throw CompileError(assign->loc, "unsupported array assignment target");
    }
    const front::Symbol& lsym = symbols_.at(lhs.symbol);

    // Build the forall header from the LHS sections (iteration runs over
    // actual LHS index values).
    auto forall = std::make_unique<Stmt>();
    forall->kind = StmtKind::Forall;
    forall->loc = assign->loc;

    // For each non-scalar LHS dim: create index and record its section so
    // RHS sections can be mapped positionally.
    std::vector<SectionDim> lhs_dims;
    for (std::size_t k = 0; k < lhs.subs.size(); ++k) {
      Subscript& sub = lhs.subs[k];
      if (sub.kind == Subscript::Kind::Scalar) continue;
      front::ForallIndex idx;
      int sym_id = fresh_index_symbol(idx.name);
      idx.symbol = sym_id;

      SectionDim sd;
      if (sub.kind == Subscript::Kind::All) {
        sd.lo = front::make_int_lit(1, assign->loc);
        sd.hi = lsym.dims[k]->clone();
      } else {
        sd.lo = sub.lo ? sub.lo->clone() : front::make_int_lit(1, assign->loc);
        sd.hi = sub.hi ? sub.hi->clone() : lsym.dims[k]->clone();
        if (sub.stride) sd.stride = sub.stride->clone();
      }
      idx.lo = sd.lo->clone();
      idx.hi = sd.hi->clone();
      if (sd.stride) idx.stride = sd.stride->clone();
      forall->forall_indices.push_back(std::move(idx));
      lhs_dims.push_back(std::move(sd));

      // replace the LHS section with the scalar index
      Subscript scalar;
      scalar.kind = Subscript::Kind::Scalar;
      auto v = front::make_var(forall->forall_indices.back().name, assign->loc);
      v->symbol = sym_id;
      v->type = front::TypeBase::Integer;
      scalar.scalar = std::move(v);
      sub = std::move(scalar);
    }
    lhs.rank = 0;

    // Rewrite RHS (and mask) sections elementwise.
    rewrite_terms(*assign->rhs, forall->forall_indices, lhs_dims, symbols_);
    assign->rhs->rank = 0;
    if (extra_mask != nullptr) {
      ExprPtr m = extra_mask->clone();
      rewrite_terms(*m, forall->forall_indices, lhs_dims, symbols_);
      m->rank = 0;
      if (negate_mask) m = front::make_unary(front::UnOp::Not, std::move(m));
      m->type = front::TypeBase::Logical;
      forall->mask = std::move(m);
    }

    forall->body.push_back(std::move(assign));
    return forall;
  }

  Program& prog_;
  SymbolTable& symbols_;
  int counter_ = 0;
};

}  // namespace

void index_elementwise(front::Expr& e, const std::vector<front::ForallIndex>& indices,
                       const front::SymbolTable& symbols) {
  std::vector<SectionDim> dims;
  dims.reserve(indices.size());
  for (const auto& idx : indices) {
    SectionDim sd;
    sd.lo = idx.lo->clone();
    sd.hi = idx.hi->clone();
    if (idx.stride) sd.stride = idx.stride->clone();
    dims.push_back(std::move(sd));
  }
  rewrite_terms(e, indices, dims, symbols);
}

void normalize(Program& prog, SymbolTable& symbols) {
  Normalizer n(prog, symbols);
  n.run();
}

}  // namespace hpf90d::compiler
