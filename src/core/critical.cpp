#include "core/critical.hpp"

#include <algorithm>

#include "hpf/intrinsics.hpp"

namespace hpf90d::core {

using compiler::SpmdKind;
using compiler::SpmdNode;
using front::Expr;
using front::ExprKind;

namespace {

void collect_vars(const Expr& e, std::set<int>& out) {
  if (e.kind == ExprKind::Var && e.symbol >= 0) out.insert(e.symbol);
  // An inquiry reads its array argument's shape, never its data.
  const bool inquiry = e.intrinsic_kind() == front::IntrinsicKind::Inquiry;
  for (std::size_t i = inquiry ? 1 : 0; i < e.args.size(); ++i) collect_vars(*e.args[i], out);
  for (const auto& s : e.subs) {
    if (s.scalar) collect_vars(*s.scalar, out);
  }
}

/// Abstract forward execution: which scalar symbols acquire traceable
/// values, and which symbols steer control flow.
class Walker {
 public:
  Walker(const compiler::CompiledProgram& prog, const front::Bindings& bindings)
      : prog_(prog) {
    for (const auto& sym : prog.symbols.symbols()) {
      const int id = prog.symbols.find(sym.name);
      if (bindings.contains(sym.name)) {
        known_.insert(id);
        bound_.insert(id);
      } else if (sym.kind == front::SymbolKind::Param) {
        known_.insert(id);
      }
    }
  }

  void walk(const SpmdNode& n) {
    switch (n.kind) {
      case SpmdKind::Seq:
        for (const auto& c : n.children) walk(*c);
        break;
      case SpmdKind::ScalarAssign: {
        std::set<int> used;
        collect_vars(*n.rhs, used);
        const bool traceable =
            std::all_of(used.begin(), used.end(),
                        [&](int s) { return known_.contains(s); }) &&
            !contains_array(*n.rhs);
        if (traceable) {
          known_.insert(n.lhs->symbol);
        } else {
          known_.erase(n.lhs->symbol);  // overwritten with a data value
        }
        break;
      }
      case SpmdKind::LocalLoop:
        for (const auto& ix : n.space) {
          mark_critical(*ix.lo);
          mark_critical(*ix.hi);
          if (ix.stride) mark_critical(*ix.stride);
          known_.insert(ix.symbol);
        }
        if (n.inner) {
          mark_critical(*n.inner->index.lo);
          mark_critical(*n.inner->index.hi);
          known_.insert(n.inner->index.symbol);
        }
        break;
      case SpmdKind::Reduce:
        for (const auto& ix : n.space) {
          mark_critical(*ix.lo);
          mark_critical(*ix.hi);
          known_.insert(ix.symbol);
        }
        // reduction results are data values, not traceable constants
        known_.erase(n.reduce_result);
        break;
      case SpmdKind::DoLoop:
        mark_critical(*n.do_lo);
        mark_critical(*n.do_hi);
        if (n.do_step) mark_critical(*n.do_step);
        known_.insert(n.do_symbol);
        for (const auto& c : n.children) walk(*c);
        break;
      case SpmdKind::WhileLoop:
        mark_critical(*n.mask);
        for (const auto& c : n.children) walk(*c);
        break;
      case SpmdKind::IfBlock:
        mark_critical(*n.mask);
        for (const auto& c : n.children) walk(*c);
        for (const auto& c : n.else_children) walk(*c);
        break;
      default:
        break;
    }
  }

  [[nodiscard]] CriticalVariableReport report() const {
    CriticalVariableReport out;
    for (int s : critical_order_) {
      const std::string& name = prog_.symbols.at(s).name;
      out.critical.push_back(name);
      if (bound_.contains(s)) {
        out.bound.push_back(name);
      } else if (known_at_use_.contains(s)) {
        out.traced.push_back(name);
      } else {
        out.unresolved.push_back(name);
      }
    }
    return out;
  }

 private:
  static bool contains_array(const Expr& e) {
    if (e.kind == ExprKind::ArrayRef) return true;
    for (const auto& a : e.args) {
      if (contains_array(*a)) return true;
    }
    return false;
  }

  void mark_critical(const Expr& e) {
    std::set<int> used;
    collect_vars(e, used);
    for (int s : used) {
      const auto& sym = prog_.symbols.at(s);
      if (sym.kind == front::SymbolKind::LoopIndex) continue;
      if (!critical_.contains(s)) {
        critical_.insert(s);
        critical_order_.push_back(s);
      }
      if (known_.contains(s)) known_at_use_.insert(s);
    }
  }

  const compiler::CompiledProgram& prog_;
  std::set<int> known_;
  std::set<int> bound_;
  std::set<int> critical_;
  std::vector<int> critical_order_;
  std::set<int> known_at_use_;
};

}  // namespace

CriticalVariableReport analyze_critical(const compiler::CompiledProgram& prog,
                                        const front::Bindings& bindings) {
  Walker walker(prog, bindings);
  walker.walk(*prog.root);
  return walker.report();
}

}  // namespace hpf90d::core
