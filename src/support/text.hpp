// text.hpp — small string utilities used throughout the pipeline. Fortran is
// case-insensitive, so case-folding helpers live here next to generic
// trimming/splitting/formatting.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hpf90d::support {

/// Lower-cases ASCII; Fortran identifiers and keywords are case-insensitive
/// and the pipeline canonicalizes them to lower case.
[[nodiscard]] std::string to_lower(std::string_view s);

/// Case-insensitive ASCII equality.
[[nodiscard]] bool iequals(std::string_view a, std::string_view b) noexcept;

[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Splits on a single character; empty fields are kept.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

[[nodiscard]] bool starts_with_ci(std::string_view s, std::string_view prefix) noexcept;

/// printf-style helper returning std::string (format must be a literal-style
/// trusted string; used for report rendering only).
[[nodiscard]] std::string strfmt(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Renders seconds with an auto-chosen unit (s / ms / us) for reports.
[[nodiscard]] std::string format_seconds(double seconds);

/// FNV-1a 64-bit: cheap, stable content hash for cache keys. Keys built
/// from it should also embed the input length, so a collision needs
/// same-length inputs (the compaction posture of the session's program
/// key and of the layout fingerprint's structure digest).
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace hpf90d::support
