// Canonical binary codec: round-trips, bounds checking, canonical-bytes
// stability (signatures and digests depend on it).
#include <gtest/gtest.h>

#include "sftbft/common/codec.hpp"

namespace sftbft {
namespace {

TEST(Codec, ScalarRoundTrip) {
  Encoder enc;
  enc.u8(0xab);
  enc.u16(0xbeef);
  enc.u32(0xdeadbeef);
  enc.u64(0x0123456789abcdefULL);
  enc.i64(-42);
  enc.boolean(true);
  enc.boolean(false);

  Decoder dec(enc.data());
  EXPECT_EQ(dec.u8(), 0xab);
  EXPECT_EQ(dec.u16(), 0xbeef);
  EXPECT_EQ(dec.u32(), 0xdeadbeefu);
  EXPECT_EQ(dec.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(dec.i64(), -42);
  EXPECT_TRUE(dec.boolean());
  EXPECT_FALSE(dec.boolean());
  EXPECT_TRUE(dec.exhausted());
}

TEST(Codec, BytesAndStrings) {
  Encoder enc;
  enc.bytes(Bytes{1, 2, 3});
  enc.str("hello");
  enc.bytes({});  // empty is legal

  Decoder dec(enc.data());
  EXPECT_EQ(dec.bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(dec.str(), "hello");
  EXPECT_TRUE(dec.bytes().empty());
  EXPECT_TRUE(dec.exhausted());
}

TEST(Codec, RawHasNoLengthPrefix) {
  Encoder enc;
  enc.raw(Bytes{9, 8, 7});
  EXPECT_EQ(enc.data().size(), 3u);
  Decoder dec(enc.data());
  EXPECT_EQ(dec.raw(3), (Bytes{9, 8, 7}));
}

TEST(Codec, TruncatedInputThrows) {
  Encoder enc;
  enc.u64(7);
  Decoder dec(enc.data());
  dec.u32();
  EXPECT_THROW(dec.u64(), CodecError);
}

TEST(Codec, TruncatedBytesThrows) {
  Encoder enc;
  enc.u32(100);  // claims 100 bytes follow
  enc.u8(1);
  Decoder dec(enc.data());
  EXPECT_THROW(dec.bytes(), CodecError);
}

TEST(Codec, InvalidBooleanThrows) {
  const Bytes raw = {2};
  Decoder dec(raw);
  EXPECT_THROW(dec.boolean(), CodecError);
}

TEST(Codec, LittleEndianLayout) {
  Encoder enc;
  enc.u32(0x01020304);
  EXPECT_EQ(enc.data(), (Bytes{0x04, 0x03, 0x02, 0x01}));
}

TEST(Codec, CanonicalBytesAreDeterministic) {
  auto encode = [] {
    Encoder enc;
    enc.u64(12345);
    enc.str("block");
    return enc.take();
  };
  EXPECT_EQ(encode(), encode());
}

TEST(Codec, RemainingTracksPosition) {
  Encoder enc;
  enc.u64(1);
  enc.u64(2);
  Decoder dec(enc.data());
  EXPECT_EQ(dec.remaining(), 16u);
  dec.u64();
  EXPECT_EQ(dec.remaining(), 8u);
}

TEST(Codec, ReserveKeepsAmortizedGrowth) {
  // Container encodes reserve once per element; each reserve that must
  // grow the buffer at least doubles it, so n elements cost O(log n)
  // reallocations instead of one (and a full copy) per element.
  Encoder enc;
  const std::uint8_t* buffer = nullptr;
  int reallocations = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    enc.reserve(8);
    enc.u64(i);
    const std::uint8_t* now = enc.data().data();
    if (buffer != nullptr && now != buffer) ++reallocations;
    buffer = now;
  }
  EXPECT_LE(reallocations, 12);
  EXPECT_EQ(enc.data().size(), 8000u);
}

/// u32 7, a 16-byte body of id 0x0102, u32 9.
Encoder body_between_words() {
  Encoder enc;
  enc.u32(7);
  enc.synthetic(0x0102, 16);
  enc.u32(9);
  return enc;
}

TEST(Codec, SyntheticRunsExpandOnlyOnDemand) {
  Encoder expanded = body_between_words();
  EXPECT_EQ(expanded.size(), 24u);
  Bytes want = {7, 0, 0, 0};
  for (int copy = 0; copy < 2; ++copy) {
    want.insert(want.end(), {0x02, 0x01, 0, 0, 0, 0, 0, 0});
  }
  want.insert(want.end(), {9, 0, 0, 0});
  EXPECT_EQ(expanded.data(), want);

  // The compact form writes no body byte; a decoder given its runs reads
  // it as it reads the expanded bytes.
  const CompactBytes compact = body_between_words().take_compact();
  EXPECT_EQ(compact.literal, (Bytes{7, 0, 0, 0, 9, 0, 0, 0}));
  ASSERT_EQ(compact.runs.size(), 1u);
  EXPECT_EQ(compact.runs[0], (BodyRun{.offset = 4, .id = 0x0102, .size = 16}));
  for (const bool use_runs : {false, true}) {
    Decoder dec = use_runs ? Decoder(compact.literal, compact.runs)
                           : Decoder(want);
    EXPECT_EQ(dec.remaining(), 24u);
    EXPECT_EQ(dec.u32(), 7u);
    EXPECT_FALSE(dec.exhausted());
    dec.skip(16);
    EXPECT_EQ(dec.remaining(), 4u);
    EXPECT_EQ(dec.u32(), 9u);
    EXPECT_TRUE(dec.exhausted());
  }
}

TEST(Codec, CompactDecoderRejectsReadIntoBody) {
  const CompactBytes compact = body_between_words().take_compact();
  const auto at_body = [&compact] {
    Decoder dec(compact.literal, compact.runs);
    dec.u32();
    return dec;
  };
  EXPECT_THROW(at_body().u8(), CodecError);
  EXPECT_THROW(at_body().u64(), CodecError);
  EXPECT_THROW(at_body().raw(1), CodecError);
  EXPECT_THROW(at_body().bytes(), CodecError);
  // A read that starts before the body and runs into it.
  Decoder crossing(compact.literal, compact.runs);
  crossing.u16();
  EXPECT_THROW(crossing.u32(), CodecError);
  // The same reads of the expanded bytes succeed: only the compact form
  // forbids them.
  Encoder full = body_between_words();
  Decoder expanded(full.data());
  expanded.u32();
  EXPECT_NO_THROW(expanded.u64());
}

TEST(Codec, SkipMustMatchBodySize) {
  const CompactBytes compact = body_between_words().take_compact();
  for (const std::size_t size : {1, 15, 17, 20}) {
    Decoder dec(compact.literal, compact.runs);
    dec.u32();
    EXPECT_THROW(dec.skip(size), CodecError) << size;
  }
  // A skip that starts before the body must not cover part of it either.
  Decoder early(compact.literal, compact.runs);
  EXPECT_THROW(early.skip(20), CodecError);
  Decoder exact(compact.literal, compact.runs);
  exact.u32();
  exact.skip(0);  // skipping nothing consumes no run
  exact.skip(16);
  EXPECT_EQ(exact.u32(), 9u);
  EXPECT_TRUE(exact.exhausted());
}

TEST(Codec, CountBoundIncludesBodyBytes) {
  // A count followed by three 8-byte records, each with a 100-byte body:
  // 324 bytes remain after the count, only 24 of them literal.
  const auto encode = [](std::uint32_t count) {
    Encoder enc;
    enc.u32(count);
    for (std::uint64_t id = 1; id <= 3; ++id) {
      enc.u64(id);
      enc.synthetic(id, 100);
    }
    return enc;
  };
  const auto verdict = [](Decoder dec) {
    try {
      (void)dec.count(8);
      return true;
    } catch (const CodecError&) {
      return false;
    }
  };
  for (const std::uint32_t count : {0u, 3u, 4u, 40u, 41u, 0xFFFFFFFFu}) {
    Encoder materialized = encode(count);
    const CompactBytes compact = encode(count).take_compact();
    const bool want = verdict(Decoder(materialized.data()));
    EXPECT_EQ(verdict(Decoder(compact.literal, compact.runs)), want)
        << count;
    EXPECT_EQ(want, count <= 40u) << count;
  }
}

}  // namespace
}  // namespace sftbft
