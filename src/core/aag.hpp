// aag.hpp — the Application Abstraction Graph and Synchronized AAG.
//
// The abstraction parse (paper §4.2) intercepts the SPMD program structure
// from compilation phase 1 and abstracts its execution and communication
// structure: AAUs for every construct, a communication table recording the
// specification and status of every communication operation, and
// synchronization edges superimposed on the control structure (SAAG).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/aau.hpp"

namespace hpf90d::core {

struct AAU {
  int id = -1;  // == SpmdNode::id (stable mapping back to the IR)
  AAUKind kind = AAUKind::Seq;
  front::SourceLoc loc;
  std::string label;
  const compiler::SpmdNode* node = nullptr;
  int parent = -1;
  std::vector<int> children;  // AAU ids in execution order
};

/// One entry of the communication table (specification and status of each
/// communication/synchronization operation).
struct CommTableEntry {
  int aau = -1;
  std::string operation;  // "overlap exchange", "cshift", "gsum", ...
  std::string pattern;    // "nearest neighbour", "recursive tree", ...
  int array_symbol = -1;
  std::string note;
};

/// Synchronization edge of the SAAG: communication AAU `comm` synchronizes
/// the computation AAUs before and after it.
struct SyncEdge {
  int from = -1;  // producing computation AAU (-1 = program start)
  int comm = -1;  // the communication AAU
  int to = -1;    // consuming computation AAU (-1 = program end)
};

class SynchronizedAAG {
 public:
  /// Abstraction parse: builds the AAG/SAAG from the compiled program.
  explicit SynchronizedAAG(const compiler::CompiledProgram& prog);

  [[nodiscard]] const std::vector<AAU>& aaus() const noexcept { return aaus_; }
  [[nodiscard]] const AAU& at(int id) const { return aaus_.at(static_cast<std::size_t>(id)); }
  [[nodiscard]] int root() const noexcept { return root_; }
  [[nodiscard]] const std::vector<CommTableEntry>& comm_table() const noexcept {
    return comm_table_;
  }

  /// AAU ids attached to a source line (per-line metric queries, §4.2).
  [[nodiscard]] std::vector<int> aaus_on_line(std::uint32_t line) const;

  /// All AAU ids in the subtree rooted at `id` (sub-AAG queries).
  [[nodiscard]] std::vector<int> subtree(int id) const;

  [[nodiscard]] std::string str() const;

 private:
  void build(const compiler::SpmdNode& node, int parent);

  std::vector<AAU> aaus_;
  std::vector<CommTableEntry> comm_table_;
  std::vector<SyncEdge> edges_;
  std::map<std::uint32_t, std::vector<int>> by_line_;
  int root_ = 0;
};

}  // namespace hpf90d::core
