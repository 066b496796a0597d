#include "machine/sag.hpp"

#include <sstream>

namespace hpf90d::machine {

int SystemAbstractionGraph::add_unit(SAU sau, int parent) {
  const int id = static_cast<int>(units_.size());
  units_.push_back(Entry{std::move(sau), parent});
  return id;
}

void SystemAbstractionGraph::replace_unit(int index, SAU sau) {
  units_.at(static_cast<std::size_t>(index)).sau = std::move(sau);
}

std::string SystemAbstractionGraph::str() const {
  std::ostringstream os;
  // render as an indented tree (children follow parents in insertion order)
  std::vector<int> depth(units_.size(), 0);
  for (std::size_t i = 0; i < units_.size(); ++i) {
    const int p = units_[i].parent;
    depth[i] = p >= 0 ? depth[static_cast<std::size_t>(p)] + 1 : 0;
    for (int d = 0; d < depth[i]; ++d) os << "  ";
    os << "- " << units_[i].sau.name << '\n';
  }
  return os.str();
}

}  // namespace hpf90d::machine
