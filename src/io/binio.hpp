// Succinct binary primitives for the wire codec and the cache artifacts
// (src/io/serialize.hpp): LEB128 varints, zigzag-coded signed deltas,
// length-prefixed strings, and a bit-exact double codec.
//
// Doubles are written as the LEB128 varint of the *byte-reversed* IEEE 754
// bit pattern: clean values (integers, halves, short decimals) have long
// runs of trailing mantissa zeros, which byte reversal turns into leading
// zeros the varint drops — 2.0 encodes in one byte, a full-entropy double
// costs 10 (vs 8 raw). Mixed payloads win large; round trips are bit-exact
// for every value including ±inf, NaN payloads and signed zeros.
//
// Every encoded unit lives inside a length-delimited block:
//
//   offset 0  1 byte   magic 0xFB
//   offset 1  1 byte   kind (which codec body follows, see serialize.hpp)
//   offset 2  varint   body format version
//   ...       varint   body length in bytes
//   ...       body
//
// so blocks can be concatenated in one stream and skipped without
// decoding. Reader enforces canonical LEB128 (overlong encodings are
// malformed, so decode(encode(x)) is the unique encoding), checks every
// declared length against the bytes actually present *before* allocating,
// and reports the byte offset of the first malformed unit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace fsw::binio {

/// First byte of every binary block.
inline constexpr unsigned char kMagicByte = 0xFB;

/// Cap on a block's declared body length: a corrupt or hostile length
/// prefix must fail the read, not become a multi-gigabyte allocation.
inline constexpr std::uint64_t kMaxBlockBody = 1ull << 30;

/// Appends primitive encodings to an owned buffer.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  /// Unsigned LEB128 (the canonical, shortest encoding).
  void u64(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<char>(0x80 | (v & 0x7f)));
      v >>= 7;
    }
    buf_.push_back(static_cast<char>(v));
  }

  /// Zigzag-mapped LEB128: small magnitudes of either sign stay short.
  void i64(std::int64_t v) {
    u64((static_cast<std::uint64_t>(v) << 1) ^
        static_cast<std::uint64_t>(v >> 63));
  }

  /// Bit-exact double: LEB128 of the byte-reversed IEEE 754 pattern.
  void f64(double v);

  /// Length-prefixed bytes (no reserved tokens — any value round-trips).
  void str(std::string_view s) {
    u64(s.size());
    buf_.append(s.data(), s.size());
  }

  /// LZ-compressed string: the varint decompressed length, then a token
  /// stream of literal runs and back-references (varint length/distance;
  /// overlapping references allowed, so runs collapse too). Canonical
  /// cache keys repeat their per-service tokens hundreds of times and
  /// shrink 10-30x; an incompressible string costs one extra varint.
  /// Greedy matching over a last-occurrence index is deterministic, so
  /// re-encode is byte-identical.
  void zstr(std::string_view s);

  void raw(std::string_view bytes) { buf_.append(bytes.data(), bytes.size()); }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked decoding over a borrowed buffer. Every malformed input
/// (truncated varint, overlong LEB128, a declared length exceeding the
/// bytes present) throws std::runtime_error naming `where` and the byte
/// offset — never over-reads, never allocates for a length it cannot
/// satisfy.
class Reader {
 public:
  Reader(std::string_view buf, const char* where)
      : buf_(buf), where_(where) {}

  std::uint8_t u8() {
    need(1, "byte");
    return static_cast<std::uint8_t>(buf_[pos_++]);
  }

  std::uint64_t u64();

  std::int64_t i64() {
    const std::uint64_t z = u64();
    return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  double f64();

  /// The string's bytes, zero-copy (a view into the borrowed buffer).
  std::string_view str();

  /// Decompresses a Writer::zstr token stream (owned — the bytes do not
  /// exist contiguously in the buffer). Every malformed stream — a
  /// literal or match overrunning the declared length, a reference
  /// outside the decoded prefix, a declared length beyond kMaxBlockBody —
  /// throws before the overrun.
  [[nodiscard]] std::string zstr();

  [[nodiscard]] std::size_t offset() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return buf_.size() - pos_;
  }
  [[nodiscard]] bool atEnd() const noexcept { return pos_ == buf_.size(); }

  /// Throws unless every byte was consumed (a body longer than its codec
  /// decodes is as malformed as one shorter).
  void expectEnd() const;

  [[noreturn]] void fail(const std::string& what) const;

 private:
  void need(std::size_t n, const char* what) const {
    if (remaining() < n) {
      fail(std::string("truncated ") + what + " (need " + std::to_string(n) +
           " bytes, have " + std::to_string(remaining()) + ")");
    }
  }

  std::string_view buf_;
  std::size_t pos_ = 0;
  const char* where_;
};

/// Wraps a finished body in the block container (magic, kind, version,
/// length, body).
[[nodiscard]] std::string finishBlock(char kind, std::uint64_t version,
                                      std::string body);

/// One block pulled off a stream (the read consumes exactly the block's
/// bytes and leaves the stream at whatever follows). Throws
/// std::runtime_error on a bad magic/kind byte, a body length beyond
/// kMaxBlockBody, or truncation.
struct Block {
  char kind = 0;
  std::uint64_t version = 0;
  std::string body;
};
[[nodiscard]] Block readBlock(std::istream& is, const char* where);

/// Opens an in-memory block, verifying magic, kind, that the version is
/// exactly `version`, and that the declared body length is exactly the
/// remaining payload (wire payloads are whole frames — trailing bytes are
/// malformed). The returned Reader is positioned at the body; `blob` must
/// outlive it.
[[nodiscard]] Reader openBlock(std::string_view blob, char kind,
                               std::uint64_t version, const char* where);

}  // namespace fsw::binio
