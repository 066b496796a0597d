// sema.hpp — semantic analysis for the HPF/Fortran 90D subset: symbol table
// construction, implicit typing, name resolution (including the array-ref vs
// intrinsic-call ambiguity), and type/rank annotation of every expression.
#pragma once

#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "hpf/ast.hpp"

namespace hpf90d::front {

enum class SymbolKind {
  Scalar,       // declared or implicitly typed scalar variable
  Array,        // declared array
  Param,        // PARAMETER constant
  LoopIndex,    // forall index or do-loop variable (integer scalar)
};

struct Symbol {
  std::string name;  // canonical lower case
  SymbolKind kind = SymbolKind::Scalar;
  TypeBase type = TypeBase::Real;
  std::vector<ExprPtr> dims;              // Array: extent expressions
  ExprPtr param_value;                    // Param: defining expression
  std::optional<double> const_value;      // Param: eagerly folded when possible
  SourceLoc loc;

  [[nodiscard]] int rank() const noexcept { return static_cast<int>(dims.size()); }
};

class SymbolTable {
 public:
  /// Adds a symbol; throws on duplicates.
  int add(Symbol sym);

  [[nodiscard]] int find(std::string_view name) const;  // -1 if absent
  [[nodiscard]] const Symbol& at(int index) const { return symbols_.at(static_cast<std::size_t>(index)); }
  [[nodiscard]] Symbol& at(int index) { return symbols_.at(static_cast<std::size_t>(index)); }
  [[nodiscard]] std::size_t size() const noexcept { return symbols_.size(); }

  /// Deque, not vector: Symbol references stay valid while later pipeline
  /// stages add compiler temporaries.
  [[nodiscard]] const std::deque<Symbol>& symbols() const noexcept { return symbols_; }

 private:
  std::deque<Symbol> symbols_;
  std::unordered_map<std::string, int> index_;
};

/// Runs semantic analysis over `prog` in place:
///  * builds the symbol table (declarations, parameters, implicit typing:
///    names starting i–n are INTEGER, others REAL),
///  * re-classifies parser Call nodes whose name is a declared array into
///    ArrayRef nodes (validating subscript counts),
///  * resolves every name to a symbol index and annotates type and rank,
///  * checks conformability of assignments, masks, and forall headers.
/// Throws support::CompileError on the first unrecoverable problem.
[[nodiscard]] SymbolTable analyze(Program& prog);

}  // namespace hpf90d::front
