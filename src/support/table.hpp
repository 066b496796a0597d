// table.hpp — fixed-width text tables used by the bench harness to print
// paper-style rows (Table 1, Table 2, and the figure series).
#pragma once

#include <string>
#include <vector>

namespace hpf90d::support {

/// Accumulates rows of string cells and renders them with aligned columns.
/// Numeric-looking cells are right-aligned, everything else left-aligned.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  [[nodiscard]] std::string str() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace hpf90d::support
