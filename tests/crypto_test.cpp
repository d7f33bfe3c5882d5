// Crypto substrate tests: SHA-256 against FIPS 180-4 vectors, HMAC-SHA-256
// against RFC 4231 vectors, signature/PKI behaviour, and the soundness of
// the receiver-side VerifyCache (no forgery or tampered certificate is ever
// accepted through a memo hit).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>

#include "sftbft/common/bytes.hpp"
#include "sftbft/common/rng.hpp"
#include "sftbft/crypto/sha256.hpp"
#include "sftbft/crypto/signature.hpp"
#include "sftbft/crypto/verify_cache.hpp"
#include "sftbft/types/quorum_cert.hpp"
#include "sftbft/types/timeout.hpp"
#include "sftbft/types/vote.hpp"

namespace sftbft::crypto {
namespace {

Bytes ascii(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, EmptyInput) {
  EXPECT_EQ(Sha256::hash({}).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(Sha256::hash(ascii("abc")).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      Sha256::hash(ascii("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes: forces padding into a second block.
  const std::string block(64, 'a');
  EXPECT_EQ(Sha256::hash(ascii(block)).hex(),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256, FiftyFiveAndFiftySixBytes) {
  // 55 bytes fits length in the same block; 56 does not.
  EXPECT_EQ(Sha256::hash(ascii(std::string(55, 'a'))).hex(),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
  EXPECT_EQ(Sha256::hash(ascii(std::string(56, 'a'))).hex(),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(ascii(chunk));
  EXPECT_EQ(ctx.finalize().hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes data = ascii("the quick brown fox jumps over the lazy dog");
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Sha256 ctx;
    ctx.update(BytesView(data.data(), split));
    ctx.update(BytesView(data.data() + split, data.size() - split));
    EXPECT_EQ(ctx.finalize(), Sha256::hash(data)) << "split=" << split;
  }
}

TEST(Sha256, ShortHexPrefix) {
  const Sha256Digest d = Sha256::hash(ascii("abc"));
  EXPECT_EQ(d.short_hex(), d.hex().substr(0, 8));
}

TEST(Sha256, DigestOrdering) {
  const Sha256Digest a = Sha256::hash(ascii("a"));
  const Sha256Digest b = Sha256::hash(ascii("b"));
  EXPECT_NE(a, b);
  EXPECT_TRUE((a < b) || (b < a));
}

// ------------------------------------------------- compression routines

using Compress = void (*)(std::array<std::uint32_t, 8>&, const std::uint8_t*,
                          std::size_t);

/// SHA-256 of `message` with every block compressed by `compress` in one
/// call: FIPS 180-4 padding, the initial state, the big-endian digest.
Sha256Digest digest_with(Compress compress, BytesView message) {
  Bytes padded(message.begin(), message.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = std::uint64_t{message.size()} * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  std::array<std::uint32_t, 8> state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                        0xa54ff53a, 0x510e527f, 0x9b05688c,
                                        0x1f83d9ab, 0x5be0cd19};
  compress(state, padded.data(), padded.size() / 64);
  Sha256Digest digest;
  for (std::size_t i = 0; i < 32; ++i) {
    digest.bytes[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return digest;
}

Bytes random_bytes(Rng& rng, std::size_t size) {
  Bytes out(size);
  for (std::uint8_t& byte : out) {
    byte = static_cast<std::uint8_t>(rng.uniform(0, 255));
  }
  return out;
}

TEST(Sha256Compress, PortableRoutineMatchesFipsVectors) {
  EXPECT_EQ(digest_with(&detail::compress_portable, ascii("abc")).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      digest_with(&detail::compress_portable,
                  ascii("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Compress, ShaNiAgreesWithPortableOnRandomInputs) {
  if (!detail::has_sha_ni()) GTEST_SKIP() << "CPU lacks the SHA extensions";
  Rng rng(41);
  for (int trial = 0; trial < 400; ++trial) {
    const Bytes message = random_bytes(
        rng, static_cast<std::size_t>(trial < 65 ? trial : rng.uniform(0, 1000)));
    SCOPED_TRACE("size " + std::to_string(message.size()));
    const Sha256Digest portable =
        digest_with(&detail::compress_portable, message);
    EXPECT_EQ(digest_with(&detail::compress_sha_ni, message), portable);
    EXPECT_EQ(Sha256::hash(message), portable);
  }
  // Multi-block calls from an arbitrary state, block by block or at once.
  for (int trial = 0; trial < 50; ++trial) {
    const auto blocks = static_cast<std::size_t>(rng.uniform(1, 16));
    const Bytes data = random_bytes(rng, 64 * blocks);
    std::array<std::uint32_t, 8> start{};
    for (std::uint32_t& word : start) {
      word = static_cast<std::uint32_t>(rng.uniform(0, 0xffffffff));
    }
    std::array<std::uint32_t, 8> portable = start;
    std::array<std::uint32_t, 8> at_once = start;
    std::array<std::uint32_t, 8> one_by_one = start;
    detail::compress_portable(portable, data.data(), blocks);
    detail::compress_sha_ni(at_once, data.data(), blocks);
    for (std::size_t b = 0; b < blocks; ++b) {
      detail::compress_sha_ni(one_by_one, data.data() + 64 * b, 1);
    }
    EXPECT_EQ(at_once, portable) << blocks << " blocks";
    EXPECT_EQ(one_by_one, portable) << blocks << " blocks";
  }
}

TEST(Sha256Compress, SplitUpdatesMatchThePortableDigest) {
  Rng rng(43);
  for (int trial = 0; trial < 200; ++trial) {
    const Bytes message =
        random_bytes(rng, static_cast<std::size_t>(rng.uniform(0, 1000)));
    Sha256 ctx;
    std::size_t offset = 0;
    while (offset < message.size()) {
      const auto take = std::min<std::size_t>(
          message.size() - offset, static_cast<std::size_t>(rng.uniform(0, 200)));
      ctx.update(BytesView(message.data() + offset, take));
      offset += take;
    }
    EXPECT_EQ(ctx.finalize(), digest_with(&detail::compress_portable, message))
        << "size " << message.size();
  }
}

// ------------------------------------------------------------ HMAC-SHA-256

TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hmac_sha256(key, ascii("Hi There")).hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(
      hmac_sha256(ascii("Jefe"), ascii("what do ya want for nothing?")).hex(),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(hmac_sha256(key, data).hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);  // key longer than the block size gets hashed
  EXPECT_EQ(hmac_sha256(key, ascii("Test Using Larger Than Block-Size Key - "
                                   "Hash Key First"))
                .hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, DifferentKeysDiffer) {
  EXPECT_NE(hmac_sha256(ascii("k1"), ascii("msg")),
            hmac_sha256(ascii("k2"), ascii("msg")));
}

/// RFC 2104 written out with fresh contexts per message: the reference the
/// precomputed key state must reproduce byte for byte.
Sha256Digest reference_hmac(BytesView key, BytesView message) {
  std::array<std::uint8_t, 64> k_block{};
  if (key.size() > 64) {
    const Sha256Digest kd = Sha256::hash(key);
    std::memcpy(k_block.data(), kd.bytes.data(), kd.bytes.size());
  } else if (!key.empty()) {
    std::memcpy(k_block.data(), key.data(), key.size());
  }
  std::array<std::uint8_t, 64> ipad{};
  std::array<std::uint8_t, 64> opad{};
  for (std::size_t i = 0; i < 64; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x5c);
  }
  Sha256 inner;
  inner.update(ipad);
  inner.update(message);
  const Sha256Digest inner_digest = inner.finalize();
  Sha256 outer;
  outer.update(opad);
  outer.update(inner_digest.bytes);
  return outer.finalize();
}

Bytes pattern(std::size_t size, std::uint8_t salt) {
  Bytes data(size);
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + salt);
  }
  return data;
}

TEST(HmacKey, Rfc4231VectorsFromOneKeyState) {
  // One key state serves many messages: mac() must not consume it.
  const HmacKey jefe(ascii("Jefe"));
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(jefe.mac(ascii("what do ya want for nothing?")).hex(),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  }
  const HmacKey long_key(Bytes(131, 0xaa));
  EXPECT_EQ(long_key
                .mac(ascii("Test Using Larger Than Block-Size Key - "
                           "Hash Key First"))
                .hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
  EXPECT_EQ(HmacKey(Bytes(20, 0x0b)).mac(ascii("Hi There")).hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacKey, AgreesWithOneShotAndReferenceAcrossLengths) {
  // 0-200 bytes covers every padding case: 55 and 56 (the length field
  // fits / spills into a second block after the 64-byte key block), 64
  // (one whole message block), 119 and 120 (the same edges one block on).
  for (const std::size_t key_size : {0u, 20u, 32u, 64u, 65u, 131u}) {
    const Bytes key = pattern(key_size, 3);
    const HmacKey state(key);
    for (std::size_t len = 0; len <= 200; ++len) {
      const Bytes msg = pattern(len, 7);
      const Sha256Digest expected = reference_hmac(key, msg);
      EXPECT_EQ(state.mac(msg), expected) << key_size << "/" << len;
      EXPECT_EQ(hmac_sha256(key, msg), expected) << key_size << "/" << len;
    }
  }
}

// -------------------------------------------------------------- signatures

/// The registry's secret for `id`, derived exactly as KeyRegistry does:
/// pins that signing through key state keeps every MAC byte.
std::array<std::uint8_t, 32> registry_secret(std::uint64_t seed,
                                             ReplicaId id) {
  Rng rng(seed ^ 0x5f7bfad1c0ffee00ULL);
  std::array<std::uint8_t, 32> secret{};
  for (ReplicaId skip = 0; skip <= id; ++skip) {
    for (std::size_t i = 0; i < secret.size(); i += 8) {
      const std::uint64_t word = rng.next();
      for (std::size_t j = 0; j < 8; ++j) {
        secret[i + j] = static_cast<std::uint8_t>(word >> (8 * j));
      }
    }
  }
  return secret;
}

TEST(Signature, SignerMatchesHmacOfRegistrySecret) {
  KeyRegistry registry(4, 7);
  VerifyCache cache;
  for (ReplicaId id = 0; id < 4; ++id) {
    const std::array<std::uint8_t, 32> secret = registry_secret(7, id);
    const Signer signer = registry.signer_for(id);
    for (const std::size_t len : {0u, 1u, 55u, 56u, 64u, 76u, 119u, 120u,
                                  200u}) {
      const Bytes msg = pattern(len, static_cast<std::uint8_t>(id));
      const Signature sig = signer.sign(msg);
      EXPECT_EQ(sig.mac, reference_hmac(secret, msg).bytes) << id << "/" << len;
      EXPECT_EQ(sig.mac, hmac_sha256(secret, msg).bytes) << id << "/" << len;
      EXPECT_TRUE(registry.verify(sig, msg));
      EXPECT_TRUE(registry.verify(sig, msg, &cache));
    }
  }
}

TEST(Signature, SignVerifyRoundTrip) {
  KeyRegistry registry(4, 7);
  const Signer signer = registry.signer_for(2);
  const Bytes msg = ascii("vote for block 42");
  const Signature sig = signer.sign(msg);
  EXPECT_EQ(sig.signer, 2u);
  EXPECT_TRUE(registry.verify(sig, msg));
}

TEST(Signature, WrongMessageRejected) {
  KeyRegistry registry(4, 7);
  const Signature sig = registry.signer_for(0).sign(ascii("message A"));
  EXPECT_FALSE(registry.verify(sig, ascii("message B")));
}

TEST(Signature, ImpersonationRejected) {
  KeyRegistry registry(4, 7);
  const Bytes msg = ascii("msg");
  Signature sig = registry.signer_for(1).sign(msg);
  sig.signer = 3;  // claim to be replica 3 with replica 1's MAC
  EXPECT_FALSE(registry.verify(sig, msg));
}

TEST(Signature, TamperedMacRejected) {
  KeyRegistry registry(4, 7);
  const Bytes msg = ascii("msg");
  Signature sig = registry.signer_for(1).sign(msg);
  sig.mac[0] ^= 0x01;
  EXPECT_FALSE(registry.verify(sig, msg));
}

TEST(Signature, UnknownSignerRejected) {
  KeyRegistry registry(4, 7);
  Signature sig = registry.signer_for(1).sign(ascii("m"));
  sig.signer = 99;
  EXPECT_FALSE(registry.verify(sig, ascii("m")));
}

TEST(Signature, DeterministicAcrossRegistries) {
  // Two registries with the same (n, seed) must agree — replicas and the
  // test harness construct their own handles.
  KeyRegistry a(4, 123), b(4, 123);
  const Bytes msg = ascii("deterministic");
  EXPECT_EQ(a.signer_for(0).sign(msg), b.signer_for(0).sign(msg));
  EXPECT_TRUE(b.verify(a.signer_for(3).sign(msg), msg));
}

TEST(Signature, DistinctSeedsDistinctKeys) {
  KeyRegistry a(4, 1), b(4, 2);
  const Bytes msg = ascii("x");
  EXPECT_FALSE(b.verify(a.signer_for(0).sign(msg), msg));
}

TEST(Signature, SignerForOutOfRangeThrows) {
  KeyRegistry registry(4, 1);
  EXPECT_THROW((void)registry.signer_for(4), std::out_of_range);
}

// ----------------------------------------------------------- verify cache

TEST(VerifyCache, ForgedMacRejectedAfterGenuineMemoized) {
  KeyRegistry registry(4, 7);
  VerifyCache cache;
  const Bytes msg = ascii("vote for block 42");
  const Signature genuine = registry.signer_for(1).sign(msg);
  ASSERT_TRUE(registry.verify(genuine, msg, &cache));
  ASSERT_EQ(cache.vote_misses(), 1u);

  // Same signer, same message: the memo hits, and the presented MAC is
  // still compared against the known-good one.
  for (std::size_t byte = 0; byte < genuine.mac.size(); byte += 7) {
    Signature forged = genuine;
    forged.mac[byte] ^= 0x01;
    EXPECT_FALSE(registry.verify(forged, msg, &cache));
  }
  EXPECT_GT(cache.vote_hits(), 0u);
  EXPECT_EQ(cache.vote_misses(), 1u);
  // ...and an all-zero MAC, a different signer's MAC, and the genuine MAC
  // claimed by another signer all fail.
  Signature zero = genuine;
  zero.mac = {};
  EXPECT_FALSE(registry.verify(zero, msg, &cache));
  Signature other = registry.signer_for(2).sign(msg);
  other.signer = 1;
  EXPECT_FALSE(registry.verify(other, msg, &cache));
  Signature impersonated = genuine;
  impersonated.signer = 3;
  EXPECT_FALSE(registry.verify(impersonated, msg, &cache));
  EXPECT_TRUE(registry.verify(genuine, msg, &cache));
}

constexpr std::uint32_t kCertN = 7;
constexpr std::size_t kCertQuorum = 5;

types::QuorumCert signed_qc(const KeyRegistry& registry, Round round) {
  types::QuorumCert qc;
  qc.block_id.bytes[0] = static_cast<std::uint8_t>(round);
  qc.round = round;
  qc.parent_round = round - 1;
  for (ReplicaId voter = 0; voter < kCertQuorum; ++voter) {
    types::Vote vote;
    vote.block_id = qc.block_id;
    vote.round = round;
    vote.voter = voter;
    vote.mode = types::VoteMode::Marker;
    vote.marker = voter % 2;
    vote.sig = registry.signer_for(voter).sign(vote.signing_bytes());
    EXPECT_TRUE(qc.add_vote(vote));
  }
  qc.canonicalize();
  return qc;
}

/// One-field tampers of a genuine QC: a meta marker, a bitmap bit (alone,
/// which breaks the bitmap/meta alignment, and moved together with its
/// meta to a non-member, which reaches the refold), and a tag byte.
std::vector<types::QuorumCert> tampered_qcs(const types::QuorumCert& qc) {
  std::vector<types::QuorumCert> out;
  types::QuorumCert marker = qc;
  marker.votes[2].meta.marker += 1;
  out.push_back(marker);
  types::QuorumCert extra_bit = qc;
  extra_bit.agg.signers.set(kCertN - 1);
  out.push_back(extra_bit);
  types::QuorumCert moved_bit = qc;
  moved_bit.agg.signers.clear(kCertQuorum - 1);
  moved_bit.agg.signers.set(kCertN - 1);
  moved_bit.votes.back().voter = kCertN - 1;
  out.push_back(moved_bit);
  types::QuorumCert tag = qc;
  tag.agg.tag[17] ^= 0x40;
  out.push_back(tag);
  return out;
}

TEST(VerifyCache, TamperedQcMissesTheMemoAndFails) {
  KeyRegistry registry(kCertN, 7);
  VerifyCache cache;
  const types::QuorumCert qc = signed_qc(registry, 9);
  ASSERT_TRUE(qc.verify(registry, kCertQuorum, &cache));
  ASSERT_TRUE(qc.verify(registry, kCertQuorum, &cache));
  ASSERT_EQ(cache.cert_hits(), 1u);

  for (const types::QuorumCert& tampered : tampered_qcs(qc)) {
    EXPECT_FALSE(tampered.verify(registry, kCertQuorum, &cache));
    EXPECT_EQ(cache.cert_hits(), 1u);  // never a memo hit
    // Failing again must not have been memoized either.
    EXPECT_FALSE(tampered.verify(registry, kCertQuorum, &cache));
    EXPECT_EQ(cache.cert_hits(), 1u);
  }
  // The genuine certificate still hits.
  EXPECT_TRUE(qc.verify(registry, kCertQuorum, &cache));
  EXPECT_EQ(cache.cert_hits(), 2u);
}

TEST(VerifyCache, CertificateMembersBypassTheVoteMemo) {
  // Aggregate members are refolded without touching the vote-level memo:
  // a certificate verification counts at the certificate level only.
  KeyRegistry registry(kCertN, 7);
  VerifyCache cache;
  const types::QuorumCert qc = signed_qc(registry, 9);
  ASSERT_TRUE(qc.verify(registry, kCertQuorum, &cache));
  EXPECT_EQ(cache.vote_hits() + cache.vote_misses(), 0u);
  EXPECT_EQ(cache.cert_misses(), 1u);
}

TEST(VerifyCache, QcAndTcVerdictsIndependentOfTheCache) {
  KeyRegistry registry(kCertN, 7);
  const types::QuorumCert qc = signed_qc(registry, 9);

  types::TimeoutCert tc;
  tc.round = 11;
  for (ReplicaId sender = 0; sender < kCertQuorum; ++sender) {
    types::TimeoutMsg msg;
    msg.round = 11;
    msg.sender = sender;
    if (sender >= 3) msg.high_qc = qc;
    msg.sig = registry.signer_for(sender).sign(msg.signing_bytes());
    ASSERT_TRUE(tc.add_timeout(msg));
  }

  std::vector<types::QuorumCert> qcs = tampered_qcs(qc);
  qcs.insert(qcs.begin(), qc);
  std::vector<types::TimeoutCert> tcs{tc};
  types::TimeoutCert lied = tc;
  lied.hqc_rounds[4] = 8;
  tcs.push_back(lied);
  types::TimeoutCert forged = tc;
  forged.agg.tag[0] ^= 1;
  tcs.push_back(forged);
  for (const types::QuorumCert& tampered : tampered_qcs(qc)) {
    types::TimeoutCert carrier = tc;
    carrier.high_qc = tampered;
    tcs.push_back(carrier);
  }

  // Twice through a warm cache (the second pass meets every memo hit the
  // first pass could have planted) against a cache-free verdict.
  VerifyCache cache;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < qcs.size(); ++i) {
      EXPECT_EQ(qcs[i].verify(registry, kCertQuorum, &cache),
                qcs[i].verify(registry, kCertQuorum))
          << "qc " << i << " pass " << pass;
    }
    for (std::size_t i = 0; i < tcs.size(); ++i) {
      EXPECT_EQ(tcs[i].verify(registry, kCertQuorum, &cache),
                tcs[i].verify(registry, kCertQuorum))
          << "tc " << i << " pass " << pass;
    }
  }
  EXPECT_TRUE(qc.verify(registry, kCertQuorum));
  EXPECT_TRUE(tc.verify(registry, kCertQuorum));
  EXPECT_GT(cache.cert_hits(), 0u);
}

}  // namespace
}  // namespace sftbft::crypto
