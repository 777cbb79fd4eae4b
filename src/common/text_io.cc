#include "common/text_io.h"

#include <algorithm>
#include <istream>
#include <ostream>

namespace gnn4tdl {

namespace {

bool IsSpace(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
         c == '\f';
}

}  // namespace

char BoundedReader::Peek() {
  while (pos_ < end_ && IsSpace(*pos_)) {
    if (*pos_ == '\n') ++line_;
    ++pos_;
  }
  return pos_ < end_ ? *pos_ : '\0';
}

std::string_view BoundedReader::Token() {
  Peek();
  const char* start = pos_;
  while (pos_ < end_ && !IsSpace(*pos_)) ++pos_;
  return std::string_view(start, static_cast<size_t>(pos_ - start));
}

Status BoundedReader::Expect(std::string_view word) {
  const std::string_view token = Token();
  if (token == word) return Status::OK();
  if (token.empty()) {
    return Status::IoError(name_ + " line " + std::to_string(line_) +
                           ": truncated before '" + std::string(word) + "'");
  }
  return Error("field", token,
               "is not the expected '" + std::string(word) + "'");
}

Status BoundedReader::Size(std::string_view field, size_t min_bytes_per_item,
                           size_t cap, size_t* out) {
  const std::string_view token = Token();
  size_t value = 0;
  if (!ParseWholeNumber(token, &value)) {
    return Malformed(field, token, "an unsigned integer");
  }
  if (value > cap) {
    return Error(field, token, "exceeds the limit " + std::to_string(cap));
  }
  if (min_bytes_per_item > 0 && value > remaining() / min_bytes_per_item) {
    return Error(field, token,
                 "exceeds the limit " +
                     std::to_string(remaining() / min_bytes_per_item) +
                     " that the " + std::to_string(remaining()) +
                     " bytes left hold at " +
                     std::to_string(min_bytes_per_item) + " bytes each");
  }
  *out = value;
  return Status::OK();
}

Status BoundedReader::Double(std::string_view field, double* out) {
  const std::string_view token = Token();
  if (ParseWholeNumber(token, out)) return Status::OK();
  return Malformed(field, token, "a finite number");
}

bool BoundedReader::AtLineEnd() {
  while (pos_ < end_ && *pos_ != '\n' && IsSpace(*pos_)) ++pos_;
  return pos_ == end_ || *pos_ == '\n';
}

void BoundedReader::SkipLine() {
  pos_ = std::find(pos_, end_, '\n');
}

Status BoundedReader::Error(std::string_view field, std::string_view value,
                            std::string_view problem, StatusCode code) const {
  return Status(code, name_ + " line " + std::to_string(line_) + ": " +
                          std::string(field) + " '" + std::string(value) +
                          "' " + std::string(problem));
}

Status BoundedReader::Malformed(std::string_view field, std::string_view token,
                                std::string_view want) const {
  if (token.empty()) {
    return Status::IoError(name_ + " line " + std::to_string(line_) +
                           ": truncated before " + std::string(field));
  }
  return Error(field, token, "is not " + std::string(want));
}

TextWriter& TextWriter::operator<<(double value) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value,
                                       std::chars_format::general, 17);
  text_.append(buf, ptr);
  return *this;
}

Status TextWriter::WriteTo(std::ostream& out, std::string_view what) const {
  if (!out) {
    return Status::IoError(std::string(what) + " output stream is not writable");
  }
  out.write(text_.data(), static_cast<std::streamsize>(text_.size()));
  if (!out) return Status::IoError("write failure on " + std::string(what));
  return Status::OK();
}

std::string ReadAll(std::istream& in) {
  std::string text;
  std::streambuf* buf = in.rdbuf();
  if (!in || buf == nullptr) return text;
  // in_avail() is the whole rest of a string stream or a regular file, so
  // the usual read fills one allocation and the spare byte sees the end.
  text.resize(static_cast<size_t>(std::max<std::streamsize>(buf->in_avail(), 0)) + 1);
  size_t used = 0;
  for (;;) {
    used += static_cast<size_t>(
        buf->sgetn(text.data() + used,
                   static_cast<std::streamsize>(text.size() - used)));
    if (used < text.size()) break;
    text.resize(text.size() * 2);
  }
  text.resize(used);
  in.setstate(std::ios::eofbit);
  return text;
}

}  // namespace gnn4tdl
