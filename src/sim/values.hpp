// values.hpp — runtime array storage for the functional simulator.
//
// The simulator executes the SPMD program with real data so that numerical
// results can be validated against serial evaluation (the environment's
// "functional interpreter" role, paper §1). Storage is global (the
// simulator sees all of memory) while *timing* attribution follows the
// DataLayout ownership maps; this keeps data movement exact without
// duplicating every block per processor.
//
// Local storage is row-major (last dimension contiguous; see README's
// `src/sim/` paragraph): this mirrors (transposed) the Fortran column-major layout and preserves
// the (BLOCK,*) vs (*,BLOCK) packing asymmetry the paper's Laplace study
// depends on.
#pragma once

#include <span>
#include <vector>

#include "compiler/cost_program.hpp"
#include "compiler/mapping.hpp"
#include "hpf/sema.hpp"

namespace hpf90d::sim {

class Storage {
 public:
  /// Arena construction: no program bound yet; call rebind() before use.
  Storage() = default;

  /// Targets the storage at a (symbol table, layout) pair, invalidating
  /// every array while keeping the per-array buffers' capacity. The
  /// referenced arguments must outlive the next use.
  void rebind(const front::SymbolTable& symbols, const compiler::DataLayout& layout);

  /// The array as the cost bytecode reads and writes it (row-major data,
  /// extents and strides); allocates it on first touch. Unbound (null
  /// extents) when the layout cannot resolve its extents.
  [[nodiscard]] compiler::ArrayView view(int symbol);

  [[nodiscard]] std::span<double> raw(int symbol);
  /// Geometry queries. They resolve the array's shape without filling its
  /// data, so they answer the same before and after the first element
  /// access — the executor's timing half relies on that.
  [[nodiscard]] const std::vector<long long>& extents(int symbol);
  [[nodiscard]] long long total_elements(int symbol);

  /// Fortran cshift semantics into another array of identical shape:
  /// dst(..., i, ...) = src(..., 1 + mod(i - 1 + shift, n), ...) along
  /// `dim` (0-based).
  void cshift_into(int dst_symbol, int src_symbol, int dim, long long shift);

 private:
  struct ArrayStore {
    std::vector<long long> extents;
    std::vector<double> extents_d, strides_d;  // for ArrayView: row-major strides
    std::vector<double> data;
    bool shaped = false;     // extents/strides derived
    bool allocated = false;  // data filled
  };

  ArrayStore& shape(int symbol);
  ArrayStore& ensure(int symbol);

  // Pointers (not references) so rebind() can re-target the storage; null
  // only between default construction and the first rebind.
  const front::SymbolTable* symbols_ = nullptr;
  const compiler::DataLayout* layout_ = nullptr;
  std::vector<ArrayStore> arrays_;
};

}  // namespace hpf90d::sim
