#include "common/number_codec.h"

#include <charconv>
#include <system_error>

namespace wcop {
namespace codec {

namespace {

template <typename T>
void AppendNumber(std::string* out, T v) {
  char buf[kMaxNumberToken];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

template <typename T>
std::optional<T> ParseNumber(std::string_view token) {
  // from_chars already rejects '+' and leading whitespace; an empty token
  // fails as "no digits".
  if (token.size() > kMaxNumberToken) {
    return std::nullopt;
  }
  T v{};
  const char* end = token.data() + token.size();
  const std::from_chars_result r = std::from_chars(token.data(), end, v);
  if (r.ec != std::errc() || r.ptr != end) {
    return std::nullopt;
  }
  return v;
}

bool IsSpace(char c) {
  return c == ' ' || c == '\n' || c == '\r' || c == '\t';
}

}  // namespace

void AppendDouble(std::string* out, double v) { AppendNumber(out, v); }
void AppendUint(std::string* out, uint64_t v) { AppendNumber(out, v); }
void AppendInt(std::string* out, int64_t v) { AppendNumber(out, v); }

void AppendUintToken(std::string* out, uint64_t v) {
  AppendUint(out, v);
  out->push_back(' ');
}

void AppendIntToken(std::string* out, int64_t v) {
  AppendInt(out, v);
  out->push_back(' ');
}

void AppendDoubleToken(std::string* out, double v) {
  AppendDouble(out, v);
  out->push_back(' ');
}

void AppendWordToken(std::string* out, std::string_view word) {
  out->append(word);
  out->push_back(' ');
}

void AppendBlobToken(std::string* out, std::string_view blob) {
  AppendUintToken(out, blob.size());
  AppendWordToken(out, blob);
}

void EndLine(std::string* out) {
  if (!out->empty() && out->back() == ' ') {
    out->back() = '\n';
  } else {
    out->push_back('\n');
  }
}

std::optional<double> ParseDouble(std::string_view token) {
  return ParseNumber<double>(token);
}
std::optional<uint64_t> ParseUint(std::string_view token) {
  return ParseNumber<uint64_t>(token);
}
std::optional<int64_t> ParseInt(std::string_view token) {
  return ParseNumber<int64_t>(token);
}

Status TokenScanner::Corrupt(std::string_view detail) const {
  return Status::DataLoss(std::string(what_) + ": " + std::string(detail));
}

Result<std::string_view> TokenScanner::Next() {
  while (pos_ < text_.size() && IsSpace(text_[pos_])) {
    ++pos_;
  }
  if (pos_ >= text_.size()) {
    return Corrupt("unexpected end of payload");
  }
  const size_t start = pos_;
  while (pos_ < text_.size() && !IsSpace(text_[pos_])) {
    ++pos_;
  }
  return text_.substr(start, pos_ - start);
}

Result<uint64_t> TokenScanner::NextUint() {
  WCOP_ASSIGN_OR_RETURN(std::string_view tok, Next());
  const std::optional<uint64_t> v = ParseUint(tok);
  if (!v.has_value()) {
    return Corrupt("bad integer '" + std::string(tok.substr(0, 40)) + "'");
  }
  return *v;
}

Result<int64_t> TokenScanner::NextInt() {
  WCOP_ASSIGN_OR_RETURN(std::string_view tok, Next());
  const std::optional<int64_t> v = ParseInt(tok);
  if (!v.has_value()) {
    return Corrupt("bad integer '" + std::string(tok.substr(0, 40)) + "'");
  }
  return *v;
}

Result<double> TokenScanner::NextDouble() {
  WCOP_ASSIGN_OR_RETURN(std::string_view tok, Next());
  const std::optional<double> v = ParseDouble(tok);
  if (!v.has_value()) {
    return Corrupt("bad double '" + std::string(tok.substr(0, 40)) + "'");
  }
  return *v;
}

Result<bool> TokenScanner::NextBool() {
  WCOP_ASSIGN_OR_RETURN(uint64_t v, NextUint());
  if (v > 1) {
    return Corrupt("bad flag " + std::to_string(v));
  }
  return v == 1;
}

Result<size_t> TokenScanner::NextCount() {
  WCOP_ASSIGN_OR_RETURN(uint64_t n, NextUint());
  if (n > text_.size() - pos_) {
    return Corrupt("implausible count " + std::to_string(n));
  }
  return static_cast<size_t>(n);
}

Result<std::string_view> TokenScanner::NextBlob() {
  WCOP_ASSIGN_OR_RETURN(uint64_t len, NextUint());
  // Exactly one separator between the length and the bytes.
  if (pos_ >= text_.size() || !IsSpace(text_[pos_]) ||
      len > text_.size() - pos_ - 1) {
    return Corrupt("truncated blob");
  }
  const std::string_view blob = text_.substr(pos_ + 1, len);
  pos_ += 1 + len;
  return blob;
}

Status TokenScanner::Expect(std::string_view want) {
  WCOP_ASSIGN_OR_RETURN(std::string_view tok, Next());
  if (tok != want) {
    return Corrupt("expected '" + std::string(want) + "'");
  }
  return Status::OK();
}

}  // namespace codec
}  // namespace wcop
