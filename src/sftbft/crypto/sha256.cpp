#include "sftbft/crypto/sha256.hpp"

#include <cassert>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace sftbft::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

namespace detail {

void compress_portable(std::array<std::uint32_t, 8>& state,
                       const std::uint8_t* blocks, std::size_t count) {
  for (; count > 0; --count, blocks += 64) {
    const std::uint8_t* block = blocks;
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
             (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 =
          h + s1 + ch + kRoundConstants[static_cast<std::size_t>(i)] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

bool has_sha_ni() {
  // The SHA-NI routine also uses SSSE3 byte shuffles and SSE4.1 blends.
  // cpu_init first: the first hash may run in a static initializer, before
  // libgcc has read the CPU's feature bits.
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("ssse3") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return supported;
}

// Intel's SHA extensions keep the working variables as two vectors, ABEF
// and CDGH; each sha256rnds2 runs two rounds, and sha256msg1/msg2 extend
// the message schedule four words at a time.
__attribute__((target("sha,ssse3,sse4.1"))) void compress_sha_ni(
    std::array<std::uint32_t, 8>& state, const std::uint8_t* blocks,
    std::size_t count) {
  // Byte-swaps each 32-bit word (the message is big-endian).
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // msg[i & 3] holds schedule words 4i..4i+3.
    __m128i msg[4];
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      __m128i& words = msg[i & 3];
      if (i < 4) {
        words = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
            bswap);
      } else {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16].
        const __m128i& prev = msg[(i + 3) & 3];
        words = _mm_sha256msg1_epu32(words, msg[(i + 1) & 3]);
        words = _mm_add_epi32(words,
                              _mm_alignr_epi8(prev, msg[(i + 2) & 3], 4));
        words = _mm_sha256msg2_epu32(words, prev);
      }
      __m128i wk = _mm_add_epi32(
          words, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                     &kRoundConstants[static_cast<std::size_t>(4 * i)])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  // Back to state order: A..D in state[0..3], E..H in state[4..7].
  tmp = _mm_shuffle_epi32(abef, 0x1B);
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(tmp, cdgh, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(cdgh, tmp, 8));
}

#else

bool has_sha_ni() { return false; }

void compress_sha_ni(std::array<std::uint32_t, 8>& state,
                     const std::uint8_t* blocks, std::size_t count) {
  compress_portable(state, blocks, count);
}

#endif

}  // namespace detail

namespace {

/// The process-wide compression routine (see the header's dispatch note).
void compress(std::array<std::uint32_t, 8>& state, const std::uint8_t* blocks,
              std::size_t count) {
  static const auto routine = detail::has_sha_ni() ? &detail::compress_sha_ni
                                                   : &detail::compress_portable;
  routine(state, blocks, count);
}

}  // namespace

std::string Sha256Digest::hex() const { return to_hex(bytes); }

std::string Sha256Digest::short_hex() const { return hex().substr(0, 8); }

Sha256::Sha256() : state_(kInitialState) {}

void Sha256::update(BytesView data) {
  assert(!finalized_);
  total_len_ += data.size();
  std::size_t offset = 0;
  // Fill a partially buffered block first.
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == 64) {
      compress(state_, buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  // Whole blocks straight from the input, in one call.
  const std::size_t whole = (data.size() - offset) / 64;
  if (whole > 0) {
    compress(state_, data.data() + offset, whole);
    offset += whole * 64;
  }
  // Buffer the tail.
  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
  }
}

Sha256Digest Sha256::finalize() {
  assert(!finalized_);

  const std::uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros, then the 64-bit big-endian length.
  std::uint8_t pad[72] = {0x80};
  const std::size_t pad_len =
      (buffer_len_ < 56) ? (56 - buffer_len_) : (120 - buffer_len_);
  update(BytesView(pad, pad_len));
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  update(BytesView(len_bytes, 8));
  finalized_ = true;
  assert(buffer_len_ == 0);

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    const std::uint32_t word = state_[static_cast<std::size_t>(i)];
    digest.bytes[static_cast<std::size_t>(4 * i + 0)] =
        static_cast<std::uint8_t>(word >> 24);
    digest.bytes[static_cast<std::size_t>(4 * i + 1)] =
        static_cast<std::uint8_t>(word >> 16);
    digest.bytes[static_cast<std::size_t>(4 * i + 2)] =
        static_cast<std::uint8_t>(word >> 8);
    digest.bytes[static_cast<std::size_t>(4 * i + 3)] =
        static_cast<std::uint8_t>(word);
  }
  return digest;
}

Sha256Digest Sha256::hash(BytesView data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finalize();
}

HmacKey::HmacKey(BytesView key) {
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
  inner_.update(ipad);
  outer_.update(opad);
}

Sha256Digest HmacKey::mac(BytesView message) const {
  Sha256 inner = inner_;
  inner.update(message);
  const Sha256Digest inner_digest = inner.finalize();

  Sha256 outer = outer_;
  outer.update(inner_digest.bytes);
  return outer.finalize();
}

Sha256Digest hmac_sha256(BytesView key, BytesView message) {
  return HmacKey(key).mac(message);
}

}  // namespace sftbft::crypto
