// The binary primitives under hostile input: truncated varints at every
// cut, overlong (non-canonical) LEB128, huge declared lengths, tampered
// block headers — every malformed buffer throws a clean std::runtime_error
// naming the context and byte offset, never over-reads, never allocates
// for a length it cannot satisfy. Round trips are bit-exact for every
// value, signed zeros and NaN payloads included. The CI sanitizer matrix
// (ASan+UBSan) runs these, so an over-read or signed overflow in the
// decoder fails loudly here.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/io/binio.hpp"

namespace fsw::binio {
namespace {

std::uint64_t bitsOf(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(BinIo, VarintRoundTripsEdgeValues) {
  const std::vector<std::uint64_t> values = {
      0,
      1,
      127,
      128,
      129,
      (1ull << 14) - 1,
      1ull << 14,
      (1ull << 35) + 12345,
      std::numeric_limits<std::uint64_t>::max() - 1,
      std::numeric_limits<std::uint64_t>::max()};
  Writer w;
  for (const std::uint64_t v : values) w.u64(v);
  const std::string buf = w.take();
  Reader r(buf, "test");
  for (const std::uint64_t v : values) EXPECT_EQ(r.u64(), v);
  r.expectEnd();
}

TEST(BinIo, ZigzagRoundTripsEdgeValues) {
  const std::vector<std::int64_t> values = {
      0,
      -1,
      1,
      -64,
      63,
      -65,
      64,
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max()};
  Writer w;
  for (const std::int64_t v : values) w.i64(v);
  const std::string buf = w.take();
  Reader r(buf, "test");
  for (const std::int64_t v : values) EXPECT_EQ(r.i64(), v);
  r.expectEnd();
}

TEST(BinIo, DoubleRoundTripsAreBitExact) {
  const std::vector<double> values = {
      0.0,
      -0.0,  // == compares equal to 0.0; the bit patterns must differ
      2.0,
      1.0 / 3.0,
      5e-324,  // smallest denormal
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  Writer w;
  for (const double v : values) w.f64(v);
  const std::string buf = w.take();
  Reader r(buf, "test");
  for (const double v : values) EXPECT_EQ(bitsOf(r.f64()), bitsOf(v));
  r.expectEnd();
}

TEST(BinIo, CleanDoublesEncodeShort) {
  // The byte-reversal property the artifact sizes lean on: clean values
  // shed their trailing mantissa zeros.
  Writer w;
  w.f64(2.0);
  EXPECT_LE(w.take().size(), 2u);
  Writer w2;
  w2.f64(0.0);
  EXPECT_EQ(w2.take().size(), 1u);
}

TEST(BinIo, TruncatedVarintsThrowAtEveryCut) {
  Writer w;
  w.u64((1ull << 56) + 987654321);  // a long varint
  const std::string buf = w.take();
  ASSERT_GT(buf.size(), 2u);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    const std::string cutBuf = buf.substr(0, cut);
    Reader r(cutBuf, "test");
    EXPECT_THROW((void)r.u64(), std::runtime_error) << "cut at " << cut;
  }
}

TEST(BinIo, OverlongLeb128IsRejected) {
  // 0x80 0x00 decodes to 0 but is not the canonical one-byte encoding.
  {
    const std::string buf("\x80\x00", 2);
    Reader r(buf, "test");
    EXPECT_THROW((void)r.u64(), std::runtime_error);
  }
  // Same for a longer value: canonical tail byte, then a redundant zero.
  {
    const std::string buf("\xff\x80\x00", 3);
    Reader r(buf, "test");
    EXPECT_THROW((void)r.u64(), std::runtime_error);
  }
}

TEST(BinIo, OversizedVarintsAreRejected) {
  // Ten continuation bytes: longer than any 64-bit value needs.
  {
    const std::string buf(10, '\x80');
    Reader r(buf, "test");
    EXPECT_THROW((void)r.u64(), std::runtime_error);
  }
  // Exactly ten bytes but the tenth carries bits above bit 63.
  {
    std::string buf(9, '\xff');
    buf.push_back('\x7f');
    Reader r(buf, "test");
    EXPECT_THROW((void)r.u64(), std::runtime_error);
  }
  // The max value itself is fine: nine 0xff then 0x01.
  {
    std::string buf(9, '\xff');
    buf.push_back('\x01');
    Reader r(buf, "test");
    EXPECT_EQ(r.u64(), std::numeric_limits<std::uint64_t>::max());
  }
}

TEST(BinIo, HugeDeclaredStringLengthFailsWithoutAllocating) {
  // A declared length in the exabytes with two bytes of payload behind
  // it: the reader must fail on the length check, not try to allocate or
  // read past the buffer.
  Writer w;
  w.u64(1ull << 60);
  std::string buf = w.take();
  buf += "ab";
  Reader r(buf, "test");
  EXPECT_THROW((void)r.str(), std::runtime_error);
}

TEST(BinIo, StringsRoundTripIncludingEmbeddedNulAndMagicByte) {
  std::string tricky("a\0b", 3);
  tricky.push_back(static_cast<char>(kMagicByte));
  Writer w;
  w.str("");
  w.str(tricky);
  const std::string buf = w.take();
  Reader r(buf, "test");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), tricky);
  r.expectEnd();
}

TEST(BinIo, ErrorsNameContextAndByteOffset) {
  Writer w;
  w.u64(7);
  const std::string buf = w.take();
  Reader r(buf, "score cache");
  (void)r.u64();
  try {
    (void)r.u8();  // past the end
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("score cache"), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset 1"), std::string::npos) << what;
  }
}

TEST(BinIo, ExpectEndRejectsTrailingBytes) {
  Writer w;
  w.u64(1);
  w.u8(0);
  const std::string buf = w.take();
  Reader r(buf, "test");
  (void)r.u64();
  EXPECT_THROW(r.expectEnd(), std::runtime_error);
}

TEST(BinIo, BlockRoundTripsThroughAStream) {
  Writer w;
  w.u64(42);
  w.str("payload");
  const std::string blob = finishBlock('T', 3, w.take());
  EXPECT_EQ(static_cast<unsigned char>(blob[0]), kMagicByte);

  std::stringstream ss(blob);
  const Block block = readBlock(ss, "test");
  EXPECT_EQ(block.kind, 'T');
  EXPECT_EQ(block.version, 3u);
  Reader r(block.body, "test");
  EXPECT_EQ(r.u64(), 42u);
  EXPECT_EQ(r.str(), "payload");
  r.expectEnd();
  // The stream is positioned exactly after the block (blocks concatenate
  // back to back).
  EXPECT_EQ(ss.peek(), std::char_traits<char>::eof());

  // A text stream is not a block.
  std::stringstream text("fswscorecache 2\n");
  EXPECT_THROW((void)readBlock(text, "test"), std::runtime_error);
}

TEST(BinIo, OpenBlockVerifiesMagicKindVersionAndLength) {
  Writer w;
  w.u64(5);
  const std::string blob = finishBlock('T', 1, w.take());

  EXPECT_NO_THROW({
    Reader r = openBlock(blob, 'T', 1, "test");
    EXPECT_EQ(r.u64(), 5u);
  });
  EXPECT_THROW((void)openBlock(blob, 'X', 1, "test"), std::runtime_error);
  // Exactly one version is accepted: newer and older both fail.
  EXPECT_THROW((void)openBlock(blob, 'T', 2, "test"), std::runtime_error);
  EXPECT_THROW((void)openBlock(blob, 'T', 0, "test"), std::runtime_error);
  EXPECT_THROW((void)openBlock("text 1\n", 'T', 1, "test"),
               std::runtime_error);
  // Trailing bytes beyond the declared body are malformed.
  EXPECT_THROW((void)openBlock(blob + "x", 'T', 1, "test"),
               std::runtime_error);
  // Truncation anywhere inside the blob is a clean error.
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    EXPECT_THROW((void)openBlock(blob.substr(0, cut), 'T', 1, "test"),
                 std::runtime_error)
        << "cut at " << cut;
  }
}

TEST(BinIo, BlockWithHugeDeclaredBodyIsRejectedBeforeAllocation) {
  // Hand-craft a header declaring a body beyond kMaxBlockBody.
  Writer w;
  w.u8(kMagicByte);
  w.u8(static_cast<std::uint8_t>('T'));
  w.u64(1);                  // version
  w.u64(kMaxBlockBody + 1);  // declared body length
  const std::string blob = w.take();
  std::stringstream ss(blob);
  EXPECT_THROW((void)readBlock(ss, "test"), std::runtime_error);
  EXPECT_THROW((void)openBlock(blob, 'T', 1, "test"), std::runtime_error);
}

TEST(BinIo, TruncatedBlockStreamsThrow) {
  Writer w;
  w.str("some body content");
  const std::string blob = finishBlock('T', 2, w.take());
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1},
                                std::size_t{3}, blob.size() - 1}) {
    std::stringstream ss(blob.substr(0, cut));
    EXPECT_THROW((void)readBlock(ss, "test"), std::runtime_error)
        << "cut at " << cut;
  }
}

TEST(BinIo, ZstrRoundTripsEveryShape) {
  std::string tricky("a\0b", 3);
  tricky.push_back(static_cast<char>(kMagicByte));
  std::string repetitive;
  for (int i = 0; i < 64; ++i) repetitive += "C1;2.5:0.125";
  const std::vector<std::string> values = {
      "",                        // empty
      "x",                       // below the minimum match length
      "abcd",                    // exactly one potential match seed
      tricky,                    // embedded NUL and the magic byte
      repetitive,                // the cache-key shape zstr exists for
      std::string(1000, 'z'),    // pure run: overlapping self-reference
  };
  Writer w;
  for (const auto& v : values) w.zstr(v);
  const std::string buf = w.take();
  Reader r(buf, "test");
  for (const auto& v : values) EXPECT_EQ(r.zstr(), v);
  r.expectEnd();
}

TEST(BinIo, ZstrCompressesRepetitiveKeys) {
  // The shape request keys take: one token per service, repeated.
  std::string key = "sig";
  for (int i = 0; i < 200; ++i) key += ";1.5:0.99998";
  Writer w;
  w.zstr(key);
  const std::string buf = w.take();
  EXPECT_LT(buf.size(), key.size() / 10) << buf.size() << " vs " << key.size();
  Reader r(buf, "test");
  EXPECT_EQ(r.zstr(), key);
}

TEST(BinIo, ZstrReencodeIsByteIdentical) {
  std::string key = "app";
  for (int i = 0; i < 50; ++i) key += ";2:0.5";
  Writer w1;
  w1.zstr(key);
  const std::string first = w1.take();
  Reader r(first, "test");
  Writer w2;
  w2.zstr(r.zstr());
  EXPECT_EQ(w2.take(), first);
}

TEST(BinIo, ZstrTruncationThrowsAtEveryCut) {
  std::string s;
  for (int i = 0; i < 16; ++i) s += "tok:123|";
  Writer w;
  w.zstr(s);
  const std::string buf = w.take();
  ASSERT_GT(buf.size(), 4u);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    const std::string cutBuf = buf.substr(0, cut);
    Reader r(cutBuf, "test");
    EXPECT_THROW((void)r.zstr(), std::runtime_error) << "cut at " << cut;
  }
}

TEST(BinIo, ZstrRejectsMalformedTokenStreams) {
  const auto expectFails = [](Writer& w, const char* what) {
    const std::string buf = w.take();
    Reader r(buf, "test");
    EXPECT_THROW((void)r.zstr(), std::runtime_error) << what;
  };
  {
    Writer w;
    w.u64(kMaxBlockBody + 1);
    expectFails(w, "declared decompressed length beyond the block cap");
  }
  {
    Writer w;
    w.u64(2);  // decompressed length 2
    w.u64(3);  // but a 3-byte literal run
    w.raw("abc");
    expectFails(w, "literal run overrunning the declared length");
  }
  {
    Writer w;
    w.u64(8);
    w.u64(4);
    w.raw("abab");
    w.u64(0);  // match length 0
    w.u64(2);
    expectFails(w, "zero-length match");
  }
  {
    Writer w;
    w.u64(6);
    w.u64(4);
    w.raw("abab");
    w.u64(5);  // 4 + 5 > 6
    w.u64(2);
    expectFails(w, "match overrunning the declared length");
  }
  {
    Writer w;
    w.u64(8);
    w.u64(4);
    w.raw("abab");
    w.u64(4);
    w.u64(0);
    expectFails(w, "distance zero");
  }
  {
    Writer w;
    w.u64(8);
    w.u64(4);
    w.raw("abab");
    w.u64(4);
    w.u64(5);  // only 4 bytes decoded so far
    expectFails(w, "distance beyond the decoded prefix");
  }
}

TEST(BinIo, ZstrOverlappingReferenceDecodesAsRun) {
  // Hand-built stream: one literal byte then a 7-byte reference at
  // distance 1 — the canonical overlapping-copy case.
  Writer w;
  w.u64(8);
  w.u64(1);
  w.raw("q");
  w.u64(7);
  w.u64(1);
  const std::string buf = w.take();
  Reader r(buf, "test");
  EXPECT_EQ(r.zstr(), "qqqqqqqq");
  r.expectEnd();
}

}  // namespace
}  // namespace fsw::binio
