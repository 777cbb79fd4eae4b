#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <iosfwd>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>

#include "common/status.h"

namespace gnn4tdl {

/// Parses all of `token` as one number: std::from_chars, the whole token
/// consumed, no overflow, and for floating types a finite value ("nan" and
/// "inf" parse but are rejected). Leaves `*out` untouched on failure.
template <typename T>
bool ParseWholeNumber(std::string_view token, T* out) {
  if (token.empty()) return false;
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  *out = value;
  return true;
}

/// A whitespace-tokenizing reader over a whole text artifact held in memory
/// (the gnn4tdl text formats: frozen models, featurizer, edge-list and
/// parameter blocks). It tracks the bytes left and the line number, so every
/// error is an IoError naming the field, the offending value, the limit it
/// broke and the line:
///
///   frozen model line 7003: feature rows '4000000000' exceeds the limit
///   1672510 that the 3345020 bytes left hold at 2 bytes each
///
/// Counts that size an allocation go through Size(), which holds them to
/// what the rest of the input can back before anything is allocated.
class BoundedReader {
 public:
  /// `text` must outlive the reader. `name` prefixes every error.
  BoundedReader(std::string_view text, std::string name)
      : pos_(text.data()), end_(text.data() + text.size()),
        name_(std::move(name)) {}

  /// The next whitespace-delimited token; empty at the end of the input.
  std::string_view Token();

  /// Reads a token that must equal `word`.
  [[nodiscard]] Status Expect(std::string_view word);

  /// Reads an unsigned count that must not exceed `cap`, nor the number of
  /// items of at least `min_bytes_per_item` bytes the remaining input can
  /// hold (0 skips that bound).
  [[nodiscard]] Status Size(std::string_view field, size_t min_bytes_per_item,
                            size_t cap, size_t* out);

  /// Reads a finite double.
  [[nodiscard]] Status Double(std::string_view field, double* out);

  /// Reads an integer of type T that must fit it.
  template <std::integral T>
  [[nodiscard]] Status Integer(std::string_view field, T* out) {
    const std::string_view token = Token();
    if (ParseWholeNumber(token, out)) return Status::OK();
    return Malformed(field, token, "an integer");
  }

  /// Skips whitespace and returns the next character without consuming it;
  /// '\0' at the end of the input.
  char Peek();

  /// True when nothing but blanks is left on the current line.
  bool AtLineEnd();

  /// Skips the rest of the current line.
  void SkipLine();

  /// Bytes not yet consumed.
  size_t remaining() const { return static_cast<size_t>(end_ - pos_); }
  /// The 1-based line of the read position: that of the last token read,
  /// or of the next one after Peek().
  size_t line() const { return line_; }

  /// "<name> line <line>: <field> '<value>' <problem>" with `code`.
  [[nodiscard]] Status Error(std::string_view field, std::string_view value,
                             std::string_view problem,
                             StatusCode code = StatusCode::kIoError) const;

 private:
  /// Truncation or a token that is not `want`.
  Status Malformed(std::string_view field, std::string_view token,
                   std::string_view want) const;

  const char* pos_;
  const char* end_;
  size_t line_ = 1;
  std::string name_;
};

/// Appends text into one string; the matching writer of BoundedReader.
/// Doubles are printed as printf's %.17g (the bytes an ostream writes at
/// precision 17), so they read back bit-exact.
class TextWriter {
 public:
  TextWriter& operator<<(std::string_view text) {
    text_.append(text);
    return *this;
  }
  TextWriter& operator<<(char c) {
    text_.push_back(c);
    return *this;
  }
  TextWriter& operator<<(double value);
  template <std::integral T>
    requires(!std::same_as<T, char> && !std::same_as<T, bool>)
  TextWriter& operator<<(T value) {
    char buf[24];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    text_.append(buf, ptr);
    return *this;
  }

  const std::string& str() const { return text_; }

  /// Writes everything appended so far to `out` in one call; IoError naming
  /// `what` if the stream fails.
  [[nodiscard]] Status WriteTo(std::ostream& out, std::string_view what) const;

 private:
  std::string text_;
};

/// The rest of `in`, read in one pass through its stream buffer.
std::string ReadAll(std::istream& in);

}  // namespace gnn4tdl
