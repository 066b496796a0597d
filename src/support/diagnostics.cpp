#include "support/diagnostics.hpp"

#include <sstream>

namespace hpf90d::support {

std::string SourceLoc::str() const {
  if (!valid()) return "<unknown>";
  std::ostringstream os;
  os << line << ':' << column;
  return os.str();
}

CompileError::CompileError(SourceLoc loc, const std::string& what)
    : std::runtime_error(loc.str() + ": " + what), loc_(loc) {}

}  // namespace hpf90d::support
