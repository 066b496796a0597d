// opcount.hpp — static operation counts for expressions.
//
// The paper's system characterization computes iterative/conditional
// overheads "using instruction counts" (§4.4). Both cost models share this
// counter: the interpretation engine multiplies the counts by SAU
// per-operation parameters, while the simulator feeds them through a finer
// i860 issue/dependence model (sim/exec_cost.hpp).
#pragma once

#include <array>

#include "hpf/ast.hpp"

namespace hpf90d::compiler {

struct OpCounts {
  // floating-point operations
  int fadd = 0;   // add/sub/compare
  int fmul = 0;
  int fdiv = 0;
  int fpow = 0;
  // integer / address arithmetic (subscript evaluation, loop index math)
  int iops = 0;
  // memory traffic (array element accesses; scalars live in registers)
  int loads = 0;
  int stores = 0;
  // library intrinsic invocations (exp, sqrt, ...), indexed by IntrinsicId
  std::array<int, front::kIntrinsicCount> intrinsics{};
  // critical-path depth of the expression DAG (operations on the longest
  // dependence chain) — drives the simulator's pipeline model
  int depth = 0;

  void add(const OpCounts& other);
  [[nodiscard]] int total_flops() const noexcept { return fadd + fmul + fdiv + fpow; }
  /// Time of the library calls under per-id prices (machine/sau.hpp), summed
  /// in registry order.
  [[nodiscard]] double library_time(
      const std::array<double, front::kIntrinsicCount>& price) const noexcept {
    double t = 0.0;
    for (std::size_t i = 0; i < front::kLibraryIntrinsics; ++i) {
      if (intrinsics[i] != 0) t += intrinsics[i] * price[i];
    }
    return t;
  }
};

/// Counts the work of evaluating `e` once (one element of a data-parallel
/// operation, or one scalar evaluation). Array references count one load
/// plus one integer op per subscript dimension (address arithmetic);
/// whole-array / section terms are counted as a single element access —
/// callers multiply by the iteration count.
[[nodiscard]] OpCounts count_expr(const front::Expr& e);

/// Counts `lhs = rhs` for one element: rhs evaluation + one store + lhs
/// subscript arithmetic.
[[nodiscard]] OpCounts count_assignment(const front::Expr& lhs, const front::Expr& rhs);

/// Adds the number of ArrayRef nodes under `e` (subscripts included) to
/// `count`. Shared by the engine's and the simulator's working-set
/// heuristics — one definition so the two cost models cannot drift — and
/// deliberately plain recursion: it runs per node visit on the sweep hot
/// path.
void count_array_refs(const front::Expr& e, long long& count);

}  // namespace hpf90d::compiler
