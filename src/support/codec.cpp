#include "support/codec.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "support/text.hpp"

namespace hpf90d::support {

namespace {

/// Runs a strto* conversion over exactly `field`: the bytes are copied to a
/// NUL-terminated buffer (on the stack for the short fields codecs carry),
/// and the conversion must consume all of them without a range error —
/// what std::sto* plus a whole-field check enforce.
template <class T, class Convert>
std::optional<T> convert_whole(std::string_view field, Convert convert) {
  char small[64];
  std::string large;
  const char* s = small;
  if (field.size() < sizeof small) {
    std::memcpy(small, field.data(), field.size());
    small[field.size()] = '\0';
  } else {
    large.assign(field);
    s = large.c_str();
  }
  char* end = nullptr;
  const int saved_errno = errno;
  errno = 0;
  const T v = convert(s, &end);
  const bool range_error = errno == ERANGE;
  errno = saved_errno;
  if (end == s || range_error || end != s + field.size()) return std::nullopt;
  return v;
}

}  // namespace

std::optional<long long> parse_int(std::string_view field, long long lo, long long hi) {
  const auto v = convert_whole<long long>(
      field, [](const char* s, char** end) { return std::strtoll(s, end, 10); });
  if (!v || *v < lo || *v > hi) return std::nullopt;
  return v;
}

std::optional<unsigned long long> parse_uint(std::string_view field) {
  // strtoull accepts (and wraps) "-1"; an unsigned field must not.
  if (field.find('-') != std::string_view::npos) return std::nullopt;
  return convert_whole<unsigned long long>(
      field, [](const char* s, char** end) { return std::strtoull(s, end, 10); });
}

std::optional<double> parse_double(std::string_view field) {
  return convert_whole<double>(field,
                               [](const char* s, char** end) { return std::strtod(s, end); });
}

std::string format_g17(double v) { return strfmt("%.17g", v); }

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strfmt("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string csv_field(std::string_view s) {
  std::string out(s);
  std::replace(out.begin(), out.end(), ',', ';');
  return out;
}

// --- LineReader ------------------------------------------------------------------

std::string_view LineReader::next_line() {
  if (at_end()) fail("unexpected end of input");
  std::size_t eol = text_.find('\n', pos_);
  if (eol == std::string_view::npos) eol = text_.size();
  const std::string_view line = text_.substr(pos_, eol - pos_);
  pos_ = std::min(eol + 1, text_.size());
  return line;
}

std::string_view LineReader::take_bytes(std::size_t n) {
  // text_.size() - pos_ cannot underflow (pos_ <= size) and n is never
  // added to anything, so a huge length prefix cannot wrap the bound.
  if (text_.size() - pos_ < n) fail("truncated payload");
  const std::string_view bytes = text_.substr(pos_, n);
  pos_ += n;
  if (pos_ < text_.size() && text_[pos_] == '\n') ++pos_;
  else if (pos_ != text_.size()) fail("missing payload terminator");
  return bytes;
}

long long LineReader::int_field(std::string_view cell, long long lo, long long hi) const {
  const auto v = parse_int(cell);
  if (!v) fail("malformed integer \"" + std::string(cell) + "\"");
  if (*v < lo || *v > hi) {
    fail("integer " + std::to_string(*v) + " outside " + std::to_string(lo) + ".." +
         std::to_string(hi));
  }
  return *v;
}

unsigned long long LineReader::uint_field(std::string_view cell) const {
  const auto v = parse_uint(cell);
  if (!v) fail("malformed unsigned integer \"" + std::string(cell) + "\"");
  return *v;
}

double LineReader::double_field(std::string_view cell) const {
  const auto v = parse_double(cell);
  if (!v) fail("malformed number \"" + std::string(cell) + "\"");
  return *v;
}

void LineReader::fail(const std::string& why) const {
  raise_(std::string(context_) + ": " + why + " at offset " + std::to_string(pos_));
  throw std::logic_error("LineReader: error handler returned");
}

// --- JsonReader ------------------------------------------------------------------

void JsonReader::expect(char c) {
  skip_ws();
  if (pos_ >= text_.size() || text_[pos_] != c) fail(std::string("expected '") + c + "'");
  ++pos_;
}

bool JsonReader::consume(char c) {
  skip_ws();
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

void JsonReader::key(std::string_view name) {
  const std::string got = string();
  if (got != name) {
    fail("expected key \"" + std::string(name) + "\", got \"" + got + '"');
  }
  expect(':');
}

std::string JsonReader::string() {
  expect('"');
  std::string out;
  while (pos_ < text_.size() && text_[pos_] != '"') {
    char c = text_[pos_++];
    if (c == '\\') {
      if (pos_ >= text_.size()) fail("dangling escape");
      const char e = text_[pos_++];
      switch (e) {
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case '"': c = '"'; break;
        case '\\': c = '\\'; break;
        case 'u': {
          // json_escape only emits \u00xx for control bytes; accept the
          // full ASCII range and reject anything wider.
          if (text_.size() - pos_ < 4) fail("truncated \\u escape");
          unsigned v = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            v <<= 4;
            if (h >= '0' && h <= '9') v += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') v += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') v += static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          if (v > 0x7f) fail("non-ASCII \\u escape unsupported");
          c = static_cast<char>(v);
          break;
        }
        default: fail("unsupported escape");
      }
    }
    out += c;
  }
  if (pos_ >= text_.size()) fail("unterminated string");
  ++pos_;  // closing quote
  return out;
}

std::string_view JsonReader::number_token() {
  skip_ws();
  const std::size_t start = pos_;
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' ||
        c == 'E' || c == 'i' || c == 'n' || c == 'f' || c == 'a') {
      ++pos_;
    } else {
      break;
    }
  }
  if (pos_ == start) fail("expected number");
  return text_.substr(start, pos_ - start);
}

double JsonReader::number() {
  const auto v = parse_double(number_token());
  if (!v) fail("malformed number");
  return *v;
}

std::uint64_t JsonReader::unsigned_number() {
  const auto v = parse_uint(number_token());
  if (!v) fail("malformed unsigned integer");
  return *v;
}

int JsonReader::int_number() {
  const auto v = parse_int(number_token(), INT_MIN, INT_MAX);
  if (!v) fail("malformed integer");
  return static_cast<int>(*v);
}

bool JsonReader::boolean() {
  skip_ws();
  if (text_.substr(pos_, 4) == "true") {
    pos_ += 4;
    return true;
  }
  if (text_.substr(pos_, 5) == "false") {
    pos_ += 5;
    return false;
  }
  fail("expected boolean");
}

void JsonReader::end() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing bytes after document");
}

void JsonReader::fail(const std::string& why) const {
  throw std::invalid_argument(std::string(context_) + ": " + why + " at offset " +
                              std::to_string(pos_));
}

void JsonReader::skip_ws() {
  while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                 text_[pos_] == '\t' || text_[pos_] == '\r')) {
    ++pos_;
  }
}

}  // namespace hpf90d::support
