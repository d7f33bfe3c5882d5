#include "sftbft/crypto/signature.hpp"

#include <stdexcept>

#include "sftbft/common/rng.hpp"
#include "sftbft/crypto/aggregate.hpp"
#include "sftbft/crypto/verify_cache.hpp"

namespace sftbft::crypto {

void Signature::encode(Encoder& enc) const {
  enc.u32(signer);
  enc.raw(mac);
}

Signature Signature::decode(Decoder& dec) {
  Signature sig;
  sig.signer = dec.u32();
  const Bytes raw = dec.raw(32);
  std::copy(raw.begin(), raw.end(), sig.mac.begin());
  return sig;
}

Signature Signer::sign(BytesView message) const {
  Signature sig;
  sig.signer = id_;
  sig.mac = key_.mac(message).bytes;
  return sig;
}

KeyRegistry::KeyRegistry(std::uint32_t n, std::uint64_t seed) {
  Rng rng(seed ^ 0x5f7bfad1c0ffee00ULL);
  keys_.reserve(n);
  for (std::uint32_t id = 0; id < n; ++id) {
    std::array<std::uint8_t, 32> secret{};
    for (std::size_t i = 0; i < secret.size(); i += 8) {
      const std::uint64_t word = rng.next();
      for (std::size_t j = 0; j < 8; ++j) {
        secret[i + j] = static_cast<std::uint8_t>(word >> (8 * j));
      }
    }
    keys_.emplace_back(secret);
  }
}

Signer KeyRegistry::signer_for(ReplicaId id) const {
  if (id >= keys_.size()) {
    throw std::out_of_range("KeyRegistry::signer_for: unknown replica");
  }
  return Signer(id, keys_[id]);
}

bool KeyRegistry::verify(const Signature& sig, BytesView message,
                         VerifyCache* cache) const {
  MacWork work;
  return verify(sig, message, cache, work);
}

bool KeyRegistry::verify(const Signature& sig, BytesView message,
                         VerifyCache* cache, MacWork& work) const {
  if (sig.signer >= keys_.size()) return false;
  work.bind(*this);
  const Sha256Digest* expected = nullptr;
  if (cache != nullptr) {
    if (!work.message_digest) work.message_digest = Sha256::hash(message);
    expected = cache->lookup_mac(sig.signer, *work.message_digest);
  }
  if (expected == nullptr) {
    if (!work.mac) work.mac = keys_[sig.signer].mac(message);
    if (cache != nullptr) {
      cache->store_mac(sig.signer, *work.message_digest, *work.mac);
    }
    expected = &*work.mac;
  }
  return ct_equal(expected->bytes, sig.mac);
}

bool KeyRegistry::verify_aggregate(
    const AggregateSignature& agg,
    const std::function<Bytes(ReplicaId)>& message_for) const {
  const std::vector<ReplicaId> ids = agg.signers.ids();
  if (ids.empty()) return false;
  if (ids.back() >= keys_.size()) return false;
  ++aggregate_refolds_;
  std::array<std::uint8_t, 32> fold{};
  for (const ReplicaId id : ids) {
    const Bytes message = message_for(id);
    const Sha256Digest mac = keys_[id].mac(BytesView(message));
    for (std::size_t i = 0; i < fold.size(); ++i) fold[i] ^= mac.bytes[i];
  }
  return ct_equal(fold, agg.tag);
}

}  // namespace sftbft::crypto
