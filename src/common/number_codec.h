#ifndef WCOP_COMMON_NUMBER_CODEC_H_
#define WCOP_COMMON_NUMBER_CODEC_H_

/// The one number and token codec of every durable text artifact: WCOP-B
/// and shard checkpoints (one shared layout, anon/checkpoint.h), window
/// manifests and job records, plus the block records of version-1
/// trajectory stores, which are still read. Version-2 store blocks are
/// binary (store/store_file.h, DESIGN.md "Dataset store & sharding").
///
/// Writers append tokens with the Append*Token helpers below (one token,
/// then exactly one space; EndLine turns the last space into a newline)
/// and readers take them back with TokenScanner, which splits on any
/// whitespace. Strings that may hold whitespace travel as length-prefixed
/// blobs (AppendBlobToken / TokenScanner::NextBlob).
///
/// Doubles are written as the shortest decimal that parses back to the same
/// bits (std::to_chars) and read with std::from_chars, so Append + Parse is
/// bit-exact for every finite double, -0.0 and subnormals included.
/// Infinities and NaNs spell "inf", "-inf", "nan", "-nan" and parse back
/// (a NaN keeps its sign, not its payload). Files written by older builds
/// spell doubles as printf("%.17g"), which is also a round-tripping decimal,
/// so both spellings parse to the same bits and no format version changed.
///
/// Accepted token grammar — the whole token, nothing trailing, at most
/// kMaxNumberToken bytes:
///   double:  ['-'] decimal digits with at most one '.', then an optional
///            exponent ('e'|'E') ['+'|'-'] digits; or inf / infinity / nan
///            in any case, after an optional '-'.
///   integer: ['-'] digits (the '-' only for signed values).
/// Rejected, unlike strtod/strtoll: a leading '+', leading whitespace, hex
/// floats ("0x1p3"), and values outside the target type's range ("1e400",
/// "1e-400", 2^64). No writer of these formats ever emitted any of them.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace wcop {
namespace codec {

/// Longest number token a parser accepts; the longest double spelling
/// either writer produces is 24 bytes ("-2.2250738585072014e-308").
inline constexpr size_t kMaxNumberToken = 32;

void AppendDouble(std::string* out, double v);
void AppendUint(std::string* out, uint64_t v);
void AppendInt(std::string* out, int64_t v);

/// nullopt when `token` is not exactly one number of the grammar above.
std::optional<double> ParseDouble(std::string_view token);
std::optional<uint64_t> ParseUint(std::string_view token);
std::optional<int64_t> ParseInt(std::string_view token);

/// Token writers: the value, then one space separator.
void AppendUintToken(std::string* out, uint64_t v);
void AppendIntToken(std::string* out, int64_t v);
void AppendDoubleToken(std::string* out, double v);
void AppendWordToken(std::string* out, std::string_view word);
/// "<len> <bytes> ": arbitrary bytes, whitespace included.
void AppendBlobToken(std::string* out, std::string_view blob);
/// Ends the line: the trailing separator becomes '\n'.
void EndLine(std::string* out);

/// Whitespace-separated token reader over a text payload. Every failure is
/// kDataLoss with the message prefixed by `what` ("store record", ...), so
/// a damaged artifact is rejected, never half-decoded.
class TokenScanner {
 public:
  TokenScanner(std::string_view text, const char* what, size_t pos = 0)
      : text_(text), what_(what), pos_(pos) {}

  /// Byte offset just past the last token read.
  size_t pos() const { return pos_; }

  Result<std::string_view> Next();
  Result<uint64_t> NextUint();
  Result<int64_t> NextInt();
  Result<double> NextDouble();
  /// "0" or "1".
  Result<bool> NextBool();
  /// An element count. Every element takes at least one byte, so a count
  /// above the bytes left is rejected before anyone reserves for it.
  Result<size_t> NextCount();
  /// A blob written by AppendBlobToken: the length, exactly one separator,
  /// then that many bytes of any kind.
  Result<std::string_view> NextBlob();
  /// Reads one token and requires it to equal `want`.
  Status Expect(std::string_view want);

 private:
  Status Corrupt(std::string_view detail) const;

  std::string_view text_;
  const char* what_;
  size_t pos_;
};

}  // namespace codec
}  // namespace wcop

#endif  // WCOP_COMMON_NUMBER_CODEC_H_
