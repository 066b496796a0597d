// suite.hpp — the NPAC HPF/Fortran 90D validation application set
// (paper Table 1): Livermore Fortran Kernels 1, 2, 3, 9, 14, 22; Purdue
// Benchmarking Set problems 1-4; PI quadrature; an N-body simulation; a
// parallel stock option pricing model; and the Laplace solver in three
// distributions.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "hpf/fold.hpp"

namespace hpf90d::suite {

struct BenchmarkApp {
  std::string id;           // short identifier, e.g. "lfk1"
  std::string name;         // paper row name, e.g. "LFK 1"
  std::string description;  // paper Table 1 description
  std::string source;       // HPF/Fortran 90D source text
  /// Sweep of problem sizes (value bound to the app's size parameter).
  std::vector<long long> problem_sizes;
  /// Data-element count the paper reports for a given size value (PBS 2/3
  /// count n*m elements).
  std::function<long long(long long)> data_elements;
  /// Bindings for one problem size (size parameter + derived parameters
  /// such as LFK 2's level count).
  std::function<front::Bindings(long long)> bindings;
  /// Directive overrides (Laplace distribution variants).
  std::vector<std::string> directive_overrides;
  /// Rank of the processor grid the paper's experiments force (2 for the
  /// (BLOCK,BLOCK) Laplace rows: near-square 2x2 and 2x4 grids); unset
  /// lets the layout choose.
  std::optional<int> grid_rank;
};

/// The full validation set in paper Table 1 order.
[[nodiscard]] const std::vector<BenchmarkApp>& validation_suite();

/// Lookup by id; throws std::out_of_range when unknown.
[[nodiscard]] const BenchmarkApp& app(std::string_view id);

/// The processor counts of the paper's experiments.
[[nodiscard]] inline std::vector<int> paper_system_sizes() { return {1, 2, 4, 8}; }

}  // namespace hpf90d::suite
