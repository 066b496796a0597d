// codec.hpp — the one copy of each text-reading job behind every importer
// and codec: strict field numbers, a line reader with length-prefixed
// payloads, a JSON reader, and the writers' escaping and number format.
// Formats stay with their owners (RunReport, StudyResult, the plan/stats
// codec, the layout/recipe spill); this is only the shared machinery.
#pragma once

#include <climits>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace hpf90d::support {

// --- strict field numbers ------------------------------------------------------
//
// std::sto* over the whole field: trailing bytes, an empty field and
// out-of-range values are rejected (std::nullopt). Leading whitespace and
// a leading '+' are accepted, as std::sto* accepts them. "inf"/"nan" parse,
// since the %.17g writers emit them.

/// A signed integer within [lo, hi].
[[nodiscard]] std::optional<long long> parse_int(std::string_view field,
                                                 long long lo = LLONG_MIN,
                                                 long long hi = LLONG_MAX);
/// An unsigned integer; a leading '-' is rejected (std::stoull would wrap it).
[[nodiscard]] std::optional<unsigned long long> parse_uint(std::string_view field);
[[nodiscard]] std::optional<double> parse_double(std::string_view field);

// --- writers -------------------------------------------------------------------

/// "%.17g": the shortest printf form that round-trips every double.
[[nodiscard]] std::string format_g17(double v);

/// JSON string-body escaping: quote, backslash, \n, \t, and \u00xx for the
/// other control bytes (RFC 8259 forbids them raw).
[[nodiscard]] std::string json_escape(std::string_view s);

/// CSV cell: names never contain commas by construction (registry keys and
/// plan labels); replace any with ';' defensively.
[[nodiscard]] std::string csv_field(std::string_view s);

// --- line reader -----------------------------------------------------------------

/// Throws the caller's error type; pass e.g. `support::raise<CodecError>`.
using Raise = void (*)(const std::string& message);

template <class Error>
[[noreturn]] void raise(const std::string& message) {
  throw Error(message);
}

/// Cursor over newline-terminated lines plus length-prefixed payloads.
/// Every failure reads "<context>: <why> at offset N" and is thrown through
/// `raise`, so each codec keeps its own error type.
class LineReader {
 public:
  LineReader(std::string_view text, std::string_view context, Raise raise)
      : text_(text), context_(context), raise_(raise) {}

  /// Next newline-terminated line (the final line may omit the newline).
  [[nodiscard]] std::string_view next_line();

  /// Exactly `n` raw bytes followed by a newline or the end of the text.
  [[nodiscard]] std::string_view take_bytes(std::size_t n);

  [[nodiscard]] bool at_end() const noexcept { return pos_ >= text_.size(); }

  /// Strict field numbers that fail through this reader.
  [[nodiscard]] long long int_field(std::string_view cell, long long lo = LLONG_MIN,
                                    long long hi = LLONG_MAX) const;
  [[nodiscard]] unsigned long long uint_field(std::string_view cell) const;
  [[nodiscard]] double double_field(std::string_view cell) const;

  [[noreturn]] void fail(const std::string& why) const;

 private:
  std::string_view text_;
  std::string_view context_;
  Raise raise_;
  std::size_t pos_ = 0;
};

// --- JSON reader -----------------------------------------------------------------

/// Recursive-descent reader for the JSON our writers emit: objects, arrays,
/// ASCII strings, numbers and booleans. Fails loudly with
/// std::invalid_argument("<context>: <why> at offset N").
class JsonReader {
 public:
  JsonReader(std::string_view text, std::string_view context)
      : text_(text), context_(context) {}

  void expect(char c);
  [[nodiscard]] bool consume(char c);
  /// A fixed-order key: the string `name` followed by ':'.
  void key(std::string_view name);
  [[nodiscard]] std::string string();
  [[nodiscard]] double number();
  [[nodiscard]] std::uint64_t unsigned_number();
  /// A strict integer within int's range.
  [[nodiscard]] int int_number();
  [[nodiscard]] bool boolean();
  /// Only whitespace may follow the document.
  void end();

  [[noreturn]] void fail(const std::string& why) const;

 private:
  void skip_ws();
  /// The run of bytes that may belong to a number token.
  [[nodiscard]] std::string_view number_token();

  std::string_view text_;
  std::string_view context_;
  std::size_t pos_ = 0;
};

}  // namespace hpf90d::support
