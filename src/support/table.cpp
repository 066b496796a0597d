#include "support/table.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace hpf90d::support {

namespace {
bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c)) && c != '.' && c != '-' &&
        c != '+' && c != '%' && c != 'e' && c != 'E' && c != 'x') {
      return false;
    }
  }
  return true;
}
}  // namespace

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

std::string TextTable::str() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t i = 0; i < header_.size(); ++i) widths[i] = header_[i].size();
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }

  auto hrule = [&] {
    std::string s = "+";
    for (std::size_t w : widths) s += std::string(w + 2, '-') + "+";
    return s + "\n";
  };
  auto render_row = [&](const std::vector<std::string>& cells) {
    std::ostringstream os;
    os << "|";
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < cells.size() ? cells[i] : std::string{};
      const std::size_t pad = widths[i] - cell.size();
      if (looks_numeric(cell)) {
        os << ' ' << std::string(pad, ' ') << cell << " |";
      } else {
        os << ' ' << cell << std::string(pad, ' ') << " |";
      }
    }
    os << '\n';
    return os.str();
  };

  std::ostringstream os;
  os << hrule() << render_row(header_) << hrule();
  for (const auto& row : rows_) os << render_row(row);
  os << hrule();
  return os.str();
}

}  // namespace hpf90d::support
