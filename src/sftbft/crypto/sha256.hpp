// SHA-256 (FIPS 180-4), implemented from scratch.
//
// The library is dependency-free: block digests, vote digests and the HMAC
// signature substrate all run on this implementation. Verified against the
// NIST/FIPS test vectors in tests/crypto_test.cpp.
//
// Compression dispatch. The 64-byte block compression has two routines: a
// portable one and, on x86-64, one on the CPU's SHA extensions (SHA-NI,
// several times the portable throughput). The first hash picks one for the
// process with __builtin_cpu_supports("sha"); a CPU without the
// extensions, or a non-x86-64 build, runs the portable routine. Both
// produce the same state for every input, so the choice never shows in a
// digest; there is no knob to force either. Sha256::update hands all whole
// blocks of one call to the routine at once. crypto::detail exposes both
// routines directly so tests can check them against each other.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "sftbft/common/bytes.hpp"

namespace sftbft::crypto {

/// A 32-byte SHA-256 digest. Ordered and hashable so it can key maps.
struct Sha256Digest {
  std::array<std::uint8_t, 32> bytes{};

  [[nodiscard]] std::string hex() const;
  /// First 8 hex chars, for log readability.
  [[nodiscard]] std::string short_hex() const;

  friend auto operator<=>(const Sha256Digest&, const Sha256Digest&) = default;
};

/// Incremental SHA-256 context (init/update/final).
class Sha256 {
 public:
  Sha256();

  void update(BytesView data);
  [[nodiscard]] Sha256Digest finalize();

  /// One-shot convenience.
  static Sha256Digest hash(BytesView data);

 private:
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finalized_ = false;
};

/// HMAC-SHA-256 key state (RFC 2104 §4): the two SHA-256 contexts left
/// after absorbing K⊕ipad and K⊕opad. Each mac() resumes copies of them, so
/// the two key blocks are compressed once per key instead of once per
/// message — a ~76-byte vote costs 3 compressions instead of 5.
class HmacKey {
 public:
  explicit HmacKey(BytesView key);

  [[nodiscard]] Sha256Digest mac(BytesView message) const;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

namespace detail {

/// Compresses `count` consecutive 64-byte blocks into `state`.
void compress_portable(std::array<std::uint32_t, 8>& state,
                       const std::uint8_t* blocks, std::size_t count);

/// True when this build and CPU can run compress_sha_ni.
bool has_sha_ni();

/// The SHA-NI compression; call only when has_sha_ni(). On a build without
/// the x86-64 routine it is compress_portable.
void compress_sha_ni(std::array<std::uint32_t, 8>& state,
                     const std::uint8_t* blocks, std::size_t count);

}  // namespace detail

/// HMAC-SHA-256 (RFC 2104) with a one-off key: HmacKey(key).mac(message).
/// Verified against RFC 4231 vectors.
Sha256Digest hmac_sha256(BytesView key, BytesView message);

}  // namespace sftbft::crypto

// Hash support so Sha256Digest can key unordered containers.
template <>
struct std::hash<sftbft::crypto::Sha256Digest> {
  std::size_t operator()(const sftbft::crypto::Sha256Digest& d) const noexcept {
    // The digest is uniformly distributed; fold the first 8 bytes.
    std::size_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v = (v << 8) | d.bytes[static_cast<std::size_t>(i)];
    }
    return v;
  }
};
