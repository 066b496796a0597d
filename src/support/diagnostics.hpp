// diagnostics.hpp — source locations and the located error shared by every
// stage of the HPF/Fortran 90D pipeline (lexer through interpreter).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace hpf90d::support {

/// A position in an HPF/Fortran 90D source file. Lines and columns are
/// 1-based; line 0 means "no location" (e.g. synthesized nodes).
struct SourceLoc {
  std::uint32_t line = 0;
  std::uint32_t column = 0;

  [[nodiscard]] bool valid() const noexcept { return line != 0; }
  [[nodiscard]] std::string str() const;

  friend bool operator==(const SourceLoc&, const SourceLoc&) = default;
};

/// Thrown when a pipeline stage cannot proceed (syntax error, unsupported
/// construct, unresolved critical variable, ...).
class CompileError : public std::runtime_error {
 public:
  explicit CompileError(const std::string& what) : std::runtime_error(what) {}
  CompileError(SourceLoc loc, const std::string& what);

  [[nodiscard]] SourceLoc loc() const noexcept { return loc_; }

 private:
  SourceLoc loc_;
};

}  // namespace hpf90d::support
