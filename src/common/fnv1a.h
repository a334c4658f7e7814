#ifndef WCOP_COMMON_FNV1A_H_
#define WCOP_COMMON_FNV1A_H_

/// FNV-1a 64, the one hash behind every durable fingerprint (WCOP-B and
/// shard checkpoints, window manifests) and the daemon's trace ids.
/// Fingerprints are stored on disk and compared by later runs, so what is
/// fed in is fixed: integers and double bit patterns go in byte by byte,
/// least significant first, on every platform.

#include <bit>
#include <cstdint>
#include <string_view>

namespace wcop {

class Fnv1a {
 public:
  /// `state` continues a hash whose value() it is (or seeds a new one).
  explicit Fnv1a(uint64_t state = kOffsetBasis) : h_(state) {}

  void Bytes(std::string_view bytes) {
    for (const char c : bytes) {
      Byte(static_cast<unsigned char>(c));
    }
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      Byte(static_cast<unsigned char>(v >> (8 * i)));
    }
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Double(double v) { U64(std::bit_cast<uint64_t>(v)); }

  uint64_t value() const { return h_; }

 private:
  static constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr uint64_t kPrime = 0x100000001b3ULL;

  void Byte(unsigned char b) {
    h_ ^= b;
    h_ *= kPrime;
  }

  uint64_t h_;
};

}  // namespace wcop

#endif  // WCOP_COMMON_FNV1A_H_
