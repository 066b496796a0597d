// eval.hpp — scalar expression evaluation over a symbol environment.
//
// Two consumers share this evaluator:
//   * the functional simulator (sim/executor) supplies an ArrayAccess that
//     reads real distributed-array storage;
//   * the interpretation engine (core/engine) evaluates the replicated
//     scalar control flow of the SPMD program with *no* array access —
//     exactly the paper's critical-variable machinery: scalar definitions
//     are traced by executing them, user bindings override.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "hpf/ast.hpp"
#include "hpf/fold.hpp"
#include "hpf/sema.hpp"

namespace hpf90d::compiler {

/// Array element access interface; null means "no arrays available" (the
/// predictor), in which case ArrayRef evaluation throws CompileError.
class ArrayAccess {
 public:
  virtual ~ArrayAccess() = default;
  [[nodiscard]] virtual double load(int symbol, std::span<const long long> index) = 0;
  [[nodiscard]] virtual long long extent(int symbol, int dim) = 0;
};

/// Mutable scalar environment indexed by symbol id. Values are stored as
/// double; Fortran integer semantics are applied by the evaluator based on
/// static types.
class ScalarEnv {
 public:
  explicit ScalarEnv(std::size_t symbol_count)
      : values_(symbol_count, 0.0), defined_(symbol_count, 0) {}

  /// Re-initializes for a (possibly different) symbol count, reusing the
  /// existing buffers; equivalent to constructing a fresh environment.
  void reset(std::size_t symbol_count) {
    values_.assign(symbol_count, 0.0);
    defined_.assign(symbol_count, 0);
  }

  void define(int symbol, double value) {
    values_[static_cast<std::size_t>(symbol)] = value;
    defined_[static_cast<std::size_t>(symbol)] = 1;
  }
  [[nodiscard]] bool is_defined(int symbol) const {
    return defined_[static_cast<std::size_t>(symbol)] != 0;
  }
  [[nodiscard]] double value(int symbol) const {
    return values_[static_cast<std::size_t>(symbol)];
  }

 private:
  std::vector<double> values_;
  std::vector<char> defined_;
};

/// True when `e` has exactly two INTEGER operands: Fortran `/` and `mod`
/// then truncate (front::int_divide), as every evaluator must agree.
[[nodiscard]] inline bool integer_operands(const front::Expr& e) {
  return e.args.size() == 2 && e.args[0]->type == front::TypeBase::Integer &&
         e.args[1]->type == front::TypeBase::Integer;
}

/// Evaluates a scalar (rank-0) expression. Throws support::CompileError on
/// an undefined scalar, an array access without accessor, or a construct
/// that cannot be evaluated (shift/reduction calls — those are lowered to
/// dedicated SPMD nodes before evaluation).
[[nodiscard]] double eval_scalar(const front::Expr& e, const ScalarEnv& env,
                                 ArrayAccess* arrays,
                                 const front::SymbolTable& symbols);

/// Convenience: evaluate and truncate to integer (checked).
[[nodiscard]] long long eval_int(const front::Expr& e, const ScalarEnv& env,
                                 ArrayAccess* arrays,
                                 const front::SymbolTable& symbols);

/// Non-throwing evaluation: nullopt when a value is unavailable (used by
/// the interpretation engine to trace scalar definitions best-effort).
[[nodiscard]] std::optional<double> try_eval_scalar(const front::Expr& e,
                                                    const ScalarEnv& env,
                                                    ArrayAccess* arrays,
                                                    const front::SymbolTable& symbols);

/// Seeds `env` with every PARAMETER symbol's folded value and then the
/// user `bindings` (which take precedence — the framework's problem-size
/// override mechanism).
void seed_environment(ScalarEnv& env, const front::SymbolTable& symbols,
                      const front::Bindings& bindings);

/// The (symbol id, value) pairs seed_environment would define, in symbol
/// order, as a replayable flat list. The parameter re-fold behind
/// seed_environment is pure in (symbols, bindings), so a caller running
/// repeated sweeps can compute this once per (program, problem) and scatter
/// it into any number of environments (see core::BatchLane::seed).
struct SeededValues {
  std::vector<std::pair<int, double>> defined;
};
[[nodiscard]] SeededValues seed_values(const front::SymbolTable& symbols,
                                       const front::Bindings& bindings);

}  // namespace hpf90d::compiler
