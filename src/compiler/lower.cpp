#include "compiler/lower.hpp"

#include <functional>
#include <set>

#include "compiler/cost_program.hpp"
#include "compiler/normalize.hpp"
#include "hpf/fold.hpp"
#include "support/diagnostics.hpp"

namespace hpf90d::compiler {

using front::Expr;
using front::ExprKind;
using front::ExprPtr;
using front::Stmt;
using front::StmtKind;
using front::SymbolKind;
using support::CompileError;

namespace {

class Lowerer {
 public:
  Lowerer(CompiledProgram& out, const StructuralMaps& maps)
      : out_(out), maps_(maps) {}

  void run() {
    out_.root = std::make_unique<SpmdNode>();
    out_.root->kind = SpmdKind::Seq;
    for (auto& stmt : out_.ast.stmts) {
      lower_stmt(*stmt, out_.root->children);
    }
    mark_invariant_comm(*out_.root);
    number_nodes(*out_.root);
  }

  /// Post-pass: a comm node whose source array is never stored to inside
  /// the same loop body re-sends identical data every trip; flag it so the
  /// engine can apply the computation/communication overlap heuristic.
  static void collect_written(const SpmdNode& n, std::set<int>& written) {
    if (n.kind == SpmdKind::LocalLoop && n.lhs != nullptr) written.insert(n.lhs->symbol);
    if (n.kind == SpmdKind::CShiftComm) written.insert(n.comm_temp);
    if (n.kind == SpmdKind::ScatterComm) written.insert(n.comm_array);
    for (const auto& c : n.children) collect_written(*c, written);
    for (const auto& c : n.else_children) collect_written(*c, written);
  }

  static void mark_invariant_comm(SpmdNode& n) {
    if (n.kind == SpmdKind::DoLoop || n.kind == SpmdKind::WhileLoop) {
      std::set<int> written;
      for (const auto& c : n.children) collect_written(*c, written);
      for (auto& c : n.children) {
        if ((c->kind == SpmdKind::OverlapComm || c->kind == SpmdKind::CShiftComm ||
             c->kind == SpmdKind::GatherComm || c->kind == SpmdKind::SliceBroadcast) &&
            !written.contains(c->comm_array)) {
          c->comm_src_invariant = true;
        }
      }
    }
    for (auto& c : n.children) mark_invariant_comm(*c);
    for (auto& c : n.else_children) mark_invariant_comm(*c);
  }

 private:
  // ---------------------------------------------------------------------
  int new_temp_array(int like_symbol, front::SourceLoc loc) {
    const front::Symbol& like = out_.symbols.at(like_symbol);
    front::Symbol sym;
    sym.name = "t__" + std::to_string(++temp_counter_);
    sym.kind = SymbolKind::Array;
    sym.type = like.type;
    sym.loc = loc;
    for (const auto& d : like.dims) sym.dims.push_back(d->clone());
    const int id = out_.symbols.add(std::move(sym));
    out_.temp_aliases.emplace_back(id, like_symbol);
    return id;
  }

  int new_temp_scalar(front::TypeBase type, front::SourceLoc loc) {
    front::Symbol sym;
    sym.name = "r__" + std::to_string(++temp_counter_);
    sym.kind = SymbolKind::Scalar;
    sym.type = type;
    sym.loc = loc;
    return out_.symbols.add(std::move(sym));
  }

  int new_index_symbol(std::string& out_name) {
    out_name = "j__" + std::to_string(++temp_counter_);
    front::Symbol sym;
    sym.name = out_name;
    sym.kind = SymbolKind::LoopIndex;
    sym.type = front::TypeBase::Integer;
    return out_.symbols.add(std::move(sym));
  }

  // ---------------------------------------------------------------------
  void lower_stmt(Stmt& stmt, std::vector<SpmdNodePtr>& into) {
    switch (stmt.kind) {
      case StmtKind::Assign:
        lower_scalar_assign(stmt, into);
        break;
      case StmtKind::Forall:
        lower_forall(stmt, into);
        break;
      case StmtKind::Where:
        throw CompileError(stmt.loc, "internal: where survived normalization");
      case StmtKind::Do: {
        auto node = std::make_unique<SpmdNode>();
        node->kind = SpmdKind::DoLoop;
        node->loc = stmt.loc;
        node->do_var = stmt.do_var;
        node->do_symbol = stmt.do_symbol;
        node->do_lo = stmt.do_lo->clone();
        node->do_hi = stmt.do_hi->clone();
        if (stmt.do_step) node->do_step = stmt.do_step->clone();
        for (auto& s : stmt.body) lower_stmt(*s, node->children);
        into.push_back(std::move(node));
        break;
      }
      case StmtKind::DoWhile: {
        auto node = std::make_unique<SpmdNode>();
        node->kind = SpmdKind::WhileLoop;
        node->loc = stmt.loc;
        node->mask = stmt.mask->clone();
        for (auto& s : stmt.body) lower_stmt(*s, node->children);
        into.push_back(std::move(node));
        break;
      }
      case StmtKind::If: {
        auto node = std::make_unique<SpmdNode>();
        node->kind = SpmdKind::IfBlock;
        node->loc = stmt.loc;
        node->mask = stmt.mask->clone();
        for (auto& s : stmt.body) lower_stmt(*s, node->children);
        for (auto& s : stmt.else_body) lower_stmt(*s, node->else_children);
        into.push_back(std::move(node));
        break;
      }
      case StmtKind::Print: {
        auto node = std::make_unique<SpmdNode>();
        node->kind = SpmdKind::HostIO;
        node->loc = stmt.loc;
        for (auto& e : stmt.print_args) node->io_args.push_back(e->clone());
        into.push_back(std::move(node));
        break;
      }
    }
  }

  // --- scalar statements -------------------------------------------------
  void lower_scalar_assign(Stmt& stmt, std::vector<SpmdNodePtr>& into) {
    ExprPtr rhs = stmt.rhs->clone();
    extract_reductions(rhs, into, stmt.loc);
    auto node = std::make_unique<SpmdNode>();
    node->kind = SpmdKind::ScalarAssign;
    node->loc = stmt.loc;
    node->lhs = stmt.lhs->clone();
    node->rhs = std::move(rhs);
    into.push_back(std::move(node));
  }

  /// Replaces every full-reduction call in `root` with a reference to a
  /// fresh scalar temporary, emitting the Reduce nodes that compute them.
  /// An explicit worklist visits the tree in pre-order (arguments, then
  /// subscripts, left to right), so the Reduce nodes come out in source
  /// order and an expression of any height lowers in constant stack.
  void extract_reductions(ExprPtr& root, std::vector<SpmdNodePtr>& into,
                          front::SourceLoc loc) {
    std::vector<ExprPtr*> work{&root};
    while (!work.empty()) {
      ExprPtr& e = *work.back();
      work.pop_back();
      const auto kind = e->intrinsic_kind();
      if ((kind == front::IntrinsicKind::Reduction ||
           kind == front::IntrinsicKind::Location) &&
          e->rank == 0 && e->args.size() == 1) {
        into.push_back(make_reduce_node(*e, loc, into));
        const int result = into.back()->reduce_result;
        auto var = front::make_var(out_.symbols.at(result).name, loc);
        var->symbol = result;
        var->type = out_.symbols.at(result).type;
        e = std::move(var);
        continue;
      }
      for (auto s = e->subs.rbegin(); s != e->subs.rend(); ++s) {
        if (s->scalar) work.push_back(&s->scalar);
      }
      for (auto a = e->args.rbegin(); a != e->args.rend(); ++a) work.push_back(&*a);
    }
  }

  static ReduceOp reduce_op_for(const Expr& call, front::SourceLoc loc) {
    using enum front::IntrinsicId;
    switch (*call.intrinsic) {
      case Sum: return ReduceOp::Sum;
      case Product: return ReduceOp::Product;
      case Maxval: return ReduceOp::MaxVal;
      case Minval: return ReduceOp::MinVal;
      case Maxloc: return ReduceOp::MaxLoc;
      case Atan: case Cos: case Exp: case Log: case Mod: case Sin: case Sqrt:
      case Abs: case Min: case Max: case Sign: case Merge:
      case Real: case Float: case Dble: case Int: case Nint:
      case Cshift: case Tshift: case Size:
        break;
    }
    throw CompileError(loc, "unsupported reduction '" + call.name + "'");
  }

  /// Builds a Reduce node for `call` = sum/product/maxval/minval/maxloc of
  /// an array-valued expression.
  SpmdNodePtr make_reduce_node(const Expr& call, front::SourceLoc loc,
                               std::vector<SpmdNodePtr>& into) {
    ExprPtr arg = call.args[0]->clone();

    // iteration space from the first array term's shape
    const Expr* shape_term = find_shape_term(*arg);
    if (shape_term == nullptr) {
      throw CompileError(loc, "cannot determine shape of reduction argument");
    }
    std::vector<front::ForallIndex> indices = build_indices_for(*shape_term, loc);
    index_elementwise(*arg, indices, out_.symbols);

    auto node = std::make_unique<SpmdNode>();
    node->kind = SpmdKind::Reduce;
    node->loc = loc;
    node->reduce_op = reduce_op_for(call, loc);
    for (auto& idx : indices) {
      IterIndex it;
      it.name = idx.name;
      it.symbol = idx.symbol;
      it.lo = std::move(idx.lo);
      it.hi = std::move(idx.hi);
      if (idx.stride) it.stride = std::move(idx.stride);
      node->space.push_back(std::move(it));
    }

    // shifts inside the (now elementwise) argument
    extract_shifts(arg, node->space, into, loc);

    // home & comm analysis: partition by the first distributed term of the
    // argument (reductions compute where their data lives)
    const Expr* home_ref = find_distributed_ref(*arg);
    if (home_ref != nullptr) {
      CommAnalysis ca = analyze_forall(node->space, *home_ref, arg.get(), nullptr,
                                       nullptr, -1, maps_, out_.symbols);
      emit_requirements(ca.pre, into, loc, node->space);
      node->home_symbol = ca.partition.home_symbol;
      node->home_driver = ca.partition.home_driver;
      node->home_driver_offset = ca.partition.home_driver_offset;
    }

    node->reduce_arg = std::move(arg);
    node->reduce_result = new_temp_scalar(call.type, loc);  // maxloc: Integer
    return node;
  }

  const Expr* find_shape_term(const Expr& e) const {
    if ((e.kind == ExprKind::Var || e.kind == ExprKind::ArrayRef) && e.rank > 0) {
      return &e;
    }
    if (e.intrinsic_kind() == front::IntrinsicKind::Shift) {
      return find_shape_term(*e.args[0]);
    }
    for (const auto& a : e.args) {
      if (const Expr* t = find_shape_term(*a)) return t;
    }
    return nullptr;
  }

  const Expr* find_distributed_ref(const Expr& e) const {
    if (e.kind == ExprKind::ArrayRef && maps_.contains(e.symbol)) return &e;
    for (const auto& a : e.args) {
      if (const Expr* t = find_distributed_ref(*a)) return t;
    }
    for (const auto& s : e.subs) {
      if (s.scalar) {
        if (const Expr* t = find_distributed_ref(*s.scalar)) return t;
      }
    }
    return nullptr;
  }

  /// Builds fresh iteration indices covering `term`'s section shape.
  std::vector<front::ForallIndex> build_indices_for(const Expr& term,
                                                    front::SourceLoc loc) {
    std::vector<front::ForallIndex> indices;
    const front::Symbol& sym = out_.symbols.at(term.symbol);
    if (term.kind == ExprKind::Var) {
      for (const auto& d : sym.dims) {
        front::ForallIndex idx;
        idx.symbol = new_index_symbol(idx.name);
        idx.lo = front::make_int_lit(1, loc);
        idx.hi = d->clone();
        indices.push_back(std::move(idx));
      }
      return indices;
    }
    for (std::size_t k = 0; k < term.subs.size(); ++k) {
      const front::Subscript& sub = term.subs[k];
      if (sub.kind == front::Subscript::Kind::Scalar) continue;
      front::ForallIndex idx;
      idx.symbol = new_index_symbol(idx.name);
      if (sub.kind == front::Subscript::Kind::All) {
        idx.lo = front::make_int_lit(1, loc);
        idx.hi = sym.dims[k]->clone();
      } else {
        idx.lo = sub.lo ? sub.lo->clone() : front::make_int_lit(1, loc);
        idx.hi = sub.hi ? sub.hi->clone() : sym.dims[k]->clone();
        if (sub.stride) idx.stride = sub.stride->clone();
      }
      indices.push_back(std::move(idx));
    }
    return indices;
  }

  // --- forall -----------------------------------------------------------
  void lower_forall(Stmt& stmt, std::vector<SpmdNodePtr>& into) {
    // build the iteration space once; shared by every body assignment
    std::vector<IterIndex> space;
    for (const auto& fi : stmt.forall_indices) {
      IterIndex it;
      it.name = fi.name;
      it.symbol = fi.symbol;
      it.lo = fi.lo->clone();
      it.hi = fi.hi->clone();
      if (fi.stride) it.stride = fi.stride->clone();
      space.push_back(std::move(it));
    }

    for (auto& body_stmt : stmt.body) {
      if (body_stmt->kind != StmtKind::Assign) {
        throw CompileError(body_stmt->loc, "forall body must be assignments");
      }
      lower_forall_assignment(stmt, *body_stmt, space, into);
    }
  }

  void lower_forall_assignment(Stmt& forall, Stmt& assign,
                               const std::vector<IterIndex>& space,
                               std::vector<SpmdNodePtr>& into) {
    ExprPtr lhs = assign.lhs->clone();
    ExprPtr rhs = assign.rhs->clone();
    ExprPtr mask = forall.mask ? forall.mask->clone() : nullptr;

    auto node = std::make_unique<SpmdNode>();
    node->kind = SpmdKind::LocalLoop;
    node->loc = assign.loc;
    for (const auto& ix : space) node->space.push_back(ix.clone());

    // top-level dim-reduction RHS: p(i) = product(a, dim)
    if (rhs->intrinsic_kind() == front::IntrinsicKind::Reduction &&
        rhs->args.size() == 2) {
      lower_dim_reduction(*node, std::move(rhs), space, into);
    } else {
      extract_shifts(rhs, space, into, assign.loc);
      if (mask) extract_shifts(mask, space, into, assign.loc);
      node->rhs = std::move(rhs);
    }
    if (mask) node->mask = std::move(mask);

    const Expr* inner_arg = node->inner ? node->inner->arg.get() : nullptr;
    const int inner_symbol = node->inner ? node->inner->index.symbol : -1;
    CommAnalysis ca = analyze_forall(node->space, *lhs, node->rhs.get(),
                                     node->mask.get(), inner_arg, inner_symbol,
                                     maps_, out_.symbols);
    emit_requirements(ca.pre, into, assign.loc, node->space);
    node->lhs = std::move(lhs);
    node->home_symbol = ca.partition.home_symbol;
    node->home_driver = ca.partition.home_driver;
    node->home_driver_offset = ca.partition.home_driver_offset;
    node->per_element = !out_.options.message_vectorization;
    into.push_back(std::move(node));
    emit_requirements(ca.post, into, assign.loc, into.back()->space);
  }

  void lower_dim_reduction(SpmdNode& node, ExprPtr call,
                           const std::vector<IterIndex>& space,
                           std::vector<SpmdNodePtr>& into) {
    const ReduceOp op = reduce_op_for(*call, node.loc);
    ExprPtr arg = std::move(call->args[0]);
    const long long dim = require_const_int(*call->args[1]);
    const Expr* shape_term = find_shape_term(*arg);
    if (shape_term == nullptr) {
      throw CompileError(node.loc, "cannot determine shape of dim-reduction argument");
    }
    const front::Symbol& tsym = out_.symbols.at(shape_term->symbol);
    const int arg_rank = tsym.rank();
    if (dim < 1 || dim > arg_rank) {
      throw CompileError(node.loc, "DIM argument out of range");
    }

    // index list for the argument: result indices in order, inner index at
    // position dim-1
    SpmdNode::InnerReduce inner;
    inner.op = op;
    inner.index.symbol = new_index_symbol(inner.index.name);
    inner.index.lo = front::make_int_lit(1, node.loc);
    inner.index.hi = tsym.dims[static_cast<std::size_t>(dim - 1)]->clone();

    std::vector<front::ForallIndex> arg_indices;
    std::size_t next_space = 0;
    for (int k = 0; k < arg_rank; ++k) {
      front::ForallIndex idx;
      if (k == dim - 1) {
        idx.name = inner.index.name;
        idx.symbol = inner.index.symbol;
        idx.lo = inner.index.lo->clone();
        idx.hi = inner.index.hi->clone();
      } else {
        if (next_space >= space.size()) {
          throw CompileError(node.loc, "dim-reduction rank mismatch");
        }
        const IterIndex& s = space[next_space++];
        idx.name = s.name;
        idx.symbol = s.symbol;
        idx.lo = s.lo->clone();
        idx.hi = s.hi->clone();
        if (s.stride) idx.stride = s.stride->clone();
      }
      arg_indices.push_back(std::move(idx));
    }
    index_elementwise(*arg, arg_indices, out_.symbols);
    extract_shifts(arg, space, into, node.loc);
    inner.arg = std::move(arg);
    node.inner = std::move(inner);
  }

  long long require_const_int(const Expr& e) {
    front::Bindings empty;
    // allow PARAMETER names in DIM
    for (const auto& s : out_.symbols.symbols()) {
      if (s.kind == SymbolKind::Param && s.const_value) empty.set(s.name, *s.const_value);
    }
    return front::fold_int(e, empty);
  }

  /// Replaces cshift/tshift calls (atomic, conformable with the space) by
  /// references to shift temporaries filled by CShiftComm nodes.
  void extract_shifts(ExprPtr& e, const std::vector<IterIndex>& space,
                      std::vector<SpmdNodePtr>& into, front::SourceLoc loc) {
    if (e->intrinsic_kind() == front::IntrinsicKind::Shift) {
      const Expr* src = e->args[0].get();
      if (src->kind != ExprKind::Var && src->kind != ExprKind::ArrayRef) {
        throw CompileError(e->loc, "shift argument must be an array name");
      }
      if (src->kind == ExprKind::ArrayRef && src->rank != 0) {
        // whole-section ref: require full extent (subset restriction)
        for (const auto& s : src->subs) {
          if (s.kind == front::Subscript::Kind::Triplet) {
            throw CompileError(e->loc, "shift of a partial section is not supported");
          }
        }
      }
      const int src_sym = src->symbol;
      const front::Symbol& ssym = out_.symbols.at(src_sym);
      const int temp = new_temp_array(src_sym, loc);

      auto comm = std::make_unique<SpmdNode>();
      comm->kind = SpmdKind::CShiftComm;
      comm->loc = loc;
      comm->comm_array = src_sym;
      comm->comm_temp = temp;
      comm->comm_amount = e->args[1]->clone();
      long long dim = 1;
      if (e->args.size() == 3) dim = require_const_int(*e->args[2]);
      if (dim < 1 || dim > ssym.rank()) {
        throw CompileError(e->loc, "shift DIM out of range");
      }
      comm->comm_dim = static_cast<int>(dim - 1);
      comm->comm_note = e->name + "(" + ssym.name + ")";
      into.push_back(std::move(comm));

      // replace call with temp element ref indexed by the space vars
      auto ref = std::make_unique<Expr>();
      ref->kind = ExprKind::ArrayRef;
      ref->loc = e->loc;
      ref->name = out_.symbols.at(temp).name;
      ref->symbol = temp;
      ref->type = ssym.type;
      ref->rank = 0;
      if (static_cast<int>(space.size()) != ssym.rank()) {
        throw CompileError(e->loc,
                           "shift result rank does not match iteration space");
      }
      for (const auto& ix : space) {
        front::Subscript sub;
        sub.kind = front::Subscript::Kind::Scalar;
        auto v = front::make_var(ix.name, e->loc);
        v->symbol = ix.symbol;
        v->type = front::TypeBase::Integer;
        sub.scalar = std::move(v);
        ref->subs.push_back(std::move(sub));
      }
      e = std::move(ref);
      return;
    }
    for (auto& a : e->args) extract_shifts(a, space, into, loc);
    for (auto& s : e->subs) {
      if (s.scalar) extract_shifts(s.scalar, space, into, loc);
    }
  }

  void emit_requirements(const std::vector<CommRequirement>& reqs,
                         std::vector<SpmdNodePtr>& into, front::SourceLoc loc,
                         const std::vector<IterIndex>& space) {
    for (const auto& req : reqs) {
      auto node = std::make_unique<SpmdNode>();
      node->loc = loc;
      node->comm_array = req.array;
      node->comm_dim = req.dim;
      node->comm_note = req.note;
      node->per_element = !out_.options.message_vectorization;
      for (const auto& ix : space) node->space.push_back(ix.clone());
      switch (req.type) {
        case CommRequirement::Type::Overlap:
          node->kind = SpmdKind::OverlapComm;
          node->comm_offset = req.offset;
          break;
        case CommRequirement::Type::Gather:
          node->kind = SpmdKind::GatherComm;
          node->gather_pattern = req.pattern;
          break;
        case CommRequirement::Type::Scatter:
          node->kind = SpmdKind::ScatterComm;
          node->gather_pattern = req.pattern;
          break;
        case CommRequirement::Type::SliceBroadcast:
          node->kind = SpmdKind::SliceBroadcast;
          break;
      }
      into.push_back(std::move(node));
    }
  }

  void number_nodes(SpmdNode& node) {
    node.id = out_.node_count++;
    for (auto& c : node.children) number_nodes(*c);
    for (auto& c : node.else_children) number_nodes(*c);
  }

  CompiledProgram& out_;
  const StructuralMaps& maps_;
  int temp_counter_ = 0;
};

}  // namespace

CompiledProgram lower_program(std::string name, front::Program ast,
                              front::SymbolTable symbols,
                              front::DirectiveSet directives, CompilerOptions options) {
  CompiledProgram out;
  out.name = std::move(name);
  out.ast = std::move(ast);
  out.symbols = std::move(symbols);
  out.directives = std::move(directives);
  out.options = options;
  const StructuralMaps maps = build_structural_maps(out.directives, out.symbols);
  Lowerer lowerer(out, maps);
  lowerer.run();
  // Operation counts and the flattened cost bytecode are part of the
  // compiled artifact: priced once here, shared by every engine arena and
  // the simulator's cost model.
  compute_node_ops(out);
  out.cost_program = compile_cost_program(out);
  return out;
}

}  // namespace hpf90d::compiler
