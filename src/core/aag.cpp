#include "core/aag.hpp"

#include <sstream>

namespace hpf90d::core {

using compiler::SpmdKind;
using compiler::SpmdNode;

std::string_view aau_kind_name(AAUKind k) noexcept {
  switch (k) {
    case AAUKind::Seq: return "Seq";
    case AAUKind::Iter: return "Iter";
    case AAUKind::IterD: return "IterD";
    case AAUKind::Condt: return "Condt";
    case AAUKind::CondtD: return "CondtD";
    case AAUKind::Comm: return "Comm";
    case AAUKind::Reduct: return "Reduct";
    case AAUKind::IO: return "IO";
  }
  return "?";
}

AAUKind classify_spmd_node(const SpmdNode& node) noexcept {
  switch (node.kind) {
    case SpmdKind::Seq:
    case SpmdKind::ScalarAssign:
      return AAUKind::Seq;
    case SpmdKind::LocalLoop:
      return node.mask ? AAUKind::CondtD : AAUKind::IterD;
    case SpmdKind::OverlapComm:
    case SpmdKind::CShiftComm:
    case SpmdKind::GatherComm:
    case SpmdKind::ScatterComm:
    case SpmdKind::SliceBroadcast:
      return AAUKind::Comm;
    case SpmdKind::Reduce:
      return AAUKind::Reduct;
    case SpmdKind::DoLoop:
    case SpmdKind::WhileLoop:
      return AAUKind::Iter;
    case SpmdKind::IfBlock:
      return AAUKind::Condt;
    case SpmdKind::HostIO:
      return AAUKind::IO;
  }
  return AAUKind::Seq;
}

namespace {

std::string label_of(const SpmdNode& node, const front::SymbolTable& symbols) {
  auto sym_name = [&](int id) {
    return id >= 0 ? symbols.at(id).name : std::string("?");
  };
  switch (node.kind) {
    case SpmdKind::ScalarAssign:
      return node.lhs->str() + " = " + node.rhs->str();
    case SpmdKind::LocalLoop:
      return node.inner ? node.lhs->str() + " = " +
                              std::string(compiler::reduce_op_name(node.inner->op)) + "(...)"
                        : node.lhs->str() + " = " + node.rhs->str();
    case SpmdKind::OverlapComm:
      return "overlap exchange " + sym_name(node.comm_array);
    case SpmdKind::CShiftComm:
      return "cshift " + sym_name(node.comm_array) + " -> " + sym_name(node.comm_temp);
    case SpmdKind::GatherComm:
      return (node.gather_pattern == compiler::GatherPattern::Irregular
                  ? "irregular gather "
                  : "remap gather ") +
             sym_name(node.comm_array);
    case SpmdKind::ScatterComm:
      return "irregular scatter " + sym_name(node.comm_array);
    case SpmdKind::SliceBroadcast:
      return "slice broadcast " + sym_name(node.comm_array);
    case SpmdKind::Reduce:
      return std::string(compiler::reduce_op_name(node.reduce_op)) + " reduction";
    case SpmdKind::DoLoop:
      return "do " + node.do_var;
    case SpmdKind::WhileLoop:
      return "do while";
    case SpmdKind::IfBlock:
      return "if";
    case SpmdKind::HostIO:
      return "print";
    case SpmdKind::Seq:
      return "program";
  }
  return "?";
}

std::string pattern_of(const SpmdNode& node) {
  switch (node.kind) {
    case SpmdKind::OverlapComm:
    case SpmdKind::CShiftComm:
      return "nearest neighbour";
    case SpmdKind::GatherComm:
    case SpmdKind::ScatterComm:
      return node.gather_pattern == compiler::GatherPattern::Irregular
                 ? "runtime resolved"
                 : "all-to-all remap";
    case SpmdKind::SliceBroadcast:
      return "broadcast tree";
    case SpmdKind::Reduce:
      return "recursive halving/doubling";
    default:
      return "";
  }
}

}  // namespace

SynchronizedAAG::SynchronizedAAG(const compiler::CompiledProgram& prog) {
  aaus_.resize(static_cast<std::size_t>(prog.node_count));
  build(*prog.root, -1);
  root_ = prog.root->id;

  // label + comm table + per-line index
  for (auto& aau : aaus_) {
    if (aau.node == nullptr) continue;
    aau.label = label_of(*aau.node, prog.symbols);
    if (aau.loc.valid()) by_line_[aau.loc.line].push_back(aau.id);
    if (aau.kind == AAUKind::Comm || aau.kind == AAUKind::Reduct) {
      CommTableEntry entry;
      entry.aau = aau.id;
      entry.operation = aau.label;
      entry.pattern = pattern_of(*aau.node);
      entry.array_symbol = aau.node->comm_array;
      entry.note = aau.node->comm_note;
      comm_table_.push_back(std::move(entry));
    }
  }

  // synchronization edges: each comm AAU connects its neighbouring
  // computation AAUs inside the same sequence
  for (const auto& aau : aaus_) {
    if (aau.node == nullptr) continue;
    for (std::size_t i = 0; i < aau.children.size(); ++i) {
      const AAU& child = at(aau.children[i]);
      if (child.kind != AAUKind::Comm && child.kind != AAUKind::Reduct) continue;
      SyncEdge edge;
      edge.comm = child.id;
      for (std::size_t j = i; j-- > 0;) {
        const AAU& prev = at(aau.children[j]);
        if (prev.kind == AAUKind::IterD || prev.kind == AAUKind::CondtD ||
            prev.kind == AAUKind::Seq) {
          edge.from = prev.id;
          break;
        }
      }
      for (std::size_t j = i + 1; j < aau.children.size(); ++j) {
        const AAU& next = at(aau.children[j]);
        if (next.kind == AAUKind::IterD || next.kind == AAUKind::CondtD ||
            next.kind == AAUKind::Seq) {
          edge.to = next.id;
          break;
        }
      }
      edges_.push_back(edge);
    }
  }
}

void SynchronizedAAG::build(const SpmdNode& node, int parent) {
  AAU aau;
  aau.id = node.id;
  aau.kind = classify_spmd_node(node);
  aau.loc = node.loc;
  aau.node = &node;
  aau.parent = parent;
  for (const auto& c : node.children) aau.children.push_back(c->id);
  for (const auto& c : node.else_children) aau.children.push_back(c->id);
  aaus_.at(static_cast<std::size_t>(node.id)) = std::move(aau);
  for (const auto& c : node.children) build(*c, node.id);
  for (const auto& c : node.else_children) build(*c, node.id);
}

std::vector<int> SynchronizedAAG::aaus_on_line(std::uint32_t line) const {
  const auto it = by_line_.find(line);
  return it == by_line_.end() ? std::vector<int>{} : it->second;
}

std::vector<int> SynchronizedAAG::subtree(int id) const {
  std::vector<int> out;
  std::vector<int> stack{id};
  while (!stack.empty()) {
    const int cur = stack.back();
    stack.pop_back();
    out.push_back(cur);
    for (int c : at(cur).children) stack.push_back(c);
  }
  return out;
}

std::string SynchronizedAAG::str() const {
  std::ostringstream os;
  std::vector<std::pair<int, int>> stack{{root_, 0}};
  while (!stack.empty()) {
    const auto [id, depth] = stack.back();
    stack.pop_back();
    const AAU& aau = at(id);
    for (int d = 0; d < depth; ++d) os << "  ";
    os << '[' << aau.id << "] " << aau_kind_name(aau.kind);
    if (!aau.label.empty()) os << ": " << aau.label;
    if (aau.loc.valid()) os << "  (line " << aau.loc.line << ')';
    os << '\n';
    for (std::size_t i = aau.children.size(); i-- > 0;) {
      stack.emplace_back(aau.children[i], depth + 1);
    }
  }
  os << "comm table: " << comm_table_.size() << " entries, sync edges: "
     << edges_.size() << '\n';
  return os.str();
}

}  // namespace hpf90d::core
