#include "src/io/binio.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <stdexcept>
#include <unordered_map>

namespace fsw::binio {

namespace {

std::uint64_t byteswap64(std::uint64_t v) {
  return ((v & 0x00000000000000ffull) << 56) |
         ((v & 0x000000000000ff00ull) << 40) |
         ((v & 0x0000000000ff0000ull) << 24) |
         ((v & 0x00000000ff000000ull) << 8) |
         ((v & 0x000000ff00000000ull) >> 8) |
         ((v & 0x0000ff0000000000ull) >> 24) |
         ((v & 0x00ff000000000000ull) >> 40) |
         ((v & 0xff00000000000000ull) >> 56);
}

}  // namespace

void Writer::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(byteswap64(bits));
}

void Writer::zstr(std::string_view s) {
  u64(s.size());
  if (s.empty()) return;
  // Greedy LZ over a last-occurrence index of 4-byte prefixes. Matches may
  // overlap their own output (dist < len), which is how pure repetition
  // collapses to one reference. The token stream is
  //   [litLen, literal bytes, matchLen, dist]*  [litLen, literal bytes]?
  // and ends exactly when the decompressed length is reached, so a final
  // match needs no empty literal tail.
  constexpr std::size_t kMinMatch = 4;
  std::unordered_map<std::uint32_t, std::size_t> last;
  std::size_t litStart = 0;
  std::size_t i = 0;
  const auto emitLiterals = [&](std::size_t end) {
    u64(end - litStart);
    raw(s.substr(litStart, end - litStart));
  };
  while (i < s.size()) {
    std::size_t matchLen = 0;
    std::size_t matchPos = 0;
    if (i + kMinMatch <= s.size()) {
      std::uint32_t key = 0;
      std::memcpy(&key, s.data() + i, sizeof(key));
      if (const auto it = last.find(key); it != last.end()) {
        const std::size_t cand = it->second;
        std::size_t len = 0;
        while (i + len < s.size() && s[cand + len] == s[i + len]) ++len;
        if (len >= kMinMatch) {
          matchLen = len;
          matchPos = cand;
        }
      }
      last[key] = i;
    }
    if (matchLen > 0) {
      emitLiterals(i);
      u64(matchLen);
      u64(i - matchPos);
      i += matchLen;
      litStart = i;
    } else {
      ++i;
    }
  }
  if (litStart < s.size()) emitLiterals(s.size());
}

std::uint64_t Reader::u64() {
  std::uint64_t v = 0;
  unsigned shift = 0;
  for (;;) {
    if (pos_ >= buf_.size()) fail("truncated varint");
    const auto b = static_cast<unsigned char>(buf_[pos_++]);
    if (shift == 63 && (b & 0x7f) > 1) {
      fail("varint overflows 64 bits");
    }
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      // Canonical LEB128 only: a final zero byte after any prior byte is
      // the overlong spelling of a shorter encoding. Rejecting it keeps
      // encode() the unique byte string for every value.
      if (b == 0 && shift != 0) fail("overlong varint (non-canonical LEB128)");
      return v;
    }
    shift += 7;
    if (shift > 63) fail("varint longer than 10 bytes");
  }
}

double Reader::f64() {
  const std::uint64_t bits = byteswap64(u64());
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string_view Reader::str() {
  const std::size_t at = pos_;
  const std::uint64_t len = u64();
  if (len > remaining()) {
    const std::size_t have = remaining();
    pos_ = at;
    fail("declared string length " + std::to_string(len) + " exceeds the " +
         std::to_string(have) + " bytes present");
  }
  const std::string_view s = buf_.substr(pos_, static_cast<std::size_t>(len));
  pos_ += static_cast<std::size_t>(len);
  return s;
}

std::string Reader::zstr() {
  const std::uint64_t rawLen = u64();
  if (rawLen > kMaxBlockBody) {
    fail("declared decompressed length " + std::to_string(rawLen) +
         " exceeds the " + std::to_string(kMaxBlockBody) + "-byte cap");
  }
  std::string out;
  out.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(rawLen, remaining() * 8)));
  while (out.size() < rawLen) {
    const std::uint64_t lit = u64();
    if (lit > rawLen - out.size()) {
      fail("literal run overruns the declared decompressed length");
    }
    if (lit > remaining()) {
      fail("truncated literal run (need " + std::to_string(lit) +
           " bytes, have " + std::to_string(remaining()) + ")");
    }
    out.append(buf_.substr(pos_, static_cast<std::size_t>(lit)));
    pos_ += static_cast<std::size_t>(lit);
    if (out.size() == rawLen) break;
    const std::uint64_t len = u64();
    if (len == 0) fail("zero-length match");
    if (len > rawLen - out.size()) {
      fail("match overruns the declared decompressed length");
    }
    const std::uint64_t dist = u64();
    if (dist == 0 || dist > out.size()) {
      fail("match distance " + std::to_string(dist) +
           " outside the decoded prefix");
    }
    // Byte-wise copy: a reference may overlap the bytes it produces.
    for (std::uint64_t k = 0; k < len; ++k) {
      out.push_back(out[out.size() - static_cast<std::size_t>(dist)]);
    }
  }
  return out;
}

void Reader::expectEnd() const {
  if (!atEnd()) {
    fail(std::to_string(remaining()) + " trailing bytes after the decoded body");
  }
}

void Reader::fail(const std::string& what) const {
  throw std::runtime_error(std::string(where_) + ": " + what +
                           " (at byte offset " + std::to_string(pos_) + ")");
}

std::string finishBlock(char kind, std::uint64_t version, std::string body) {
  Writer header;
  header.u8(kMagicByte);
  header.u8(static_cast<std::uint8_t>(kind));
  header.u64(version);
  header.u64(body.size());
  std::string block = header.take();
  block.append(body);
  return block;
}

namespace {

/// A canonical LEB128 varint read byte-by-byte off a stream (block
/// headers only — bodies are slurped whole and decoded via Reader).
std::uint64_t streamVarint(std::istream& is, const char* where,
                           const char* what) {
  std::uint64_t v = 0;
  unsigned shift = 0;
  for (;;) {
    const int c = is.get();
    if (c < 0) {
      throw std::runtime_error(std::string(where) + ": truncated " + what +
                               " varint in block header");
    }
    const auto b = static_cast<unsigned char>(c);
    if (shift == 63 && (b & 0x7f) > 1) {
      throw std::runtime_error(std::string(where) + ": " + what +
                               " varint overflows 64 bits");
    }
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      if (b == 0 && shift != 0) {
        throw std::runtime_error(std::string(where) + ": overlong " + what +
                                 " varint (non-canonical LEB128)");
      }
      return v;
    }
    shift += 7;
    if (shift > 63) {
      throw std::runtime_error(std::string(where) + ": " + what +
                               " varint longer than 10 bytes");
    }
  }
}

}  // namespace

Block readBlock(std::istream& is, const char* where) {
  const int magic = is.get();
  if (magic != static_cast<int>(kMagicByte)) {
    throw std::runtime_error(std::string(where) +
                             ": missing binary block magic byte");
  }
  const int kind = is.get();
  if (kind < 0) {
    throw std::runtime_error(std::string(where) +
                             ": truncated block header (no kind byte)");
  }
  Block block;
  block.kind = static_cast<char>(kind);
  block.version = streamVarint(is, where, "version");
  const std::uint64_t len = streamVarint(is, where, "body-length");
  if (len > kMaxBlockBody) {
    throw std::runtime_error(std::string(where) + ": declared body length " +
                             std::to_string(len) + " exceeds the " +
                             std::to_string(kMaxBlockBody) + "-byte block cap");
  }
  block.body.resize(static_cast<std::size_t>(len));
  if (len > 0) {
    is.read(block.body.data(), static_cast<std::streamsize>(len));
    if (static_cast<std::uint64_t>(is.gcount()) != len) {
      throw std::runtime_error(
          std::string(where) + ": truncated block body (declared " +
          std::to_string(len) + " bytes, stream held " +
          std::to_string(is.gcount()) + ")");
    }
  }
  return block;
}

Reader openBlock(std::string_view blob, char kind, std::uint64_t version,
                 const char* where) {
  Reader r(blob, where);
  if (r.u8() != kMagicByte) {
    r.fail("missing binary block magic byte");
  }
  const char gotKind = static_cast<char>(r.u8());
  if (gotKind != kind) {
    r.fail(std::string("unexpected block kind '") + gotKind +
           "' (expected '" + kind + "')");
  }
  const std::uint64_t gotVersion = r.u64();
  if (gotVersion != version) {
    r.fail("unsupported binary version " + std::to_string(gotVersion) +
           " (expected " + std::to_string(version) + ")");
  }
  const std::uint64_t len = r.u64();
  if (len != r.remaining()) {
    r.fail("declared body length " + std::to_string(len) + " but " +
           std::to_string(r.remaining()) + " bytes follow");
  }
  return r;
}

}  // namespace fsw::binio
