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

Status TokenScanner::Expect(std::string_view want) {
  WCOP_ASSIGN_OR_RETURN(std::string_view tok, Next());
  if (tok != want) {
    return Corrupt("expected '" + std::string(want) + "'");
  }
  return Status::OK();
}

}  // namespace codec
}  // namespace wcop
