// Signature substrate: Signer / Verifier / KeyRegistry (the PKI).
//
// Substitution note (see README.md "Simulation substitutions"): the paper's implementation uses the
// Diem production signature scheme. The protocol logic only requires that a
// Byzantine replica cannot forge an honest replica's vote *within the run*.
// We realize this with HMAC-SHA-256 over per-replica secrets: a replica can
// sign only through its own Signer (which owns its key state), and the
// registry verifies by recomputation. Both hold each secret only as its
// crypto::HmacKey — the padded key blocks already absorbed — so a signature
// costs the message's compressions, not the key's. The interfaces mirror
// asymmetric signatures so a production scheme (e.g. Ed25519) can be
// swapped in without touching protocol code.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "sftbft/common/bytes.hpp"
#include "sftbft/common/codec.hpp"
#include "sftbft/common/types.hpp"
#include "sftbft/crypto/sha256.hpp"

namespace sftbft::crypto {

struct AggregateSignature;
class VerifyCache;

/// A signature over a message digest, tagged with the signer identity.
struct Signature {
  ReplicaId signer = kNoReplica;
  std::array<std::uint8_t, 32> mac{};

  void encode(Encoder& enc) const;
  static Signature decode(Decoder& dec);

  friend bool operator==(const Signature&, const Signature&) = default;
};

class KeyRegistry;

/// The receiver-independent part of checking one signer's signature over
/// one message: the message's SHA-256 (the VerifyCache key) and the correct
/// MAC, each computed on first use. The receivers of one broadcast share one
/// object per signature they check; each still does its own VerifyCache
/// lookup and store with the shared key and MAC. A work object serves one
/// (signer, message) pair and depends only on it and the registry.
struct MacWork {
  const KeyRegistry* registry = nullptr;
  std::optional<Sha256Digest> message_digest;
  std::optional<Sha256Digest> mac;

  /// Starts over when a different registry uses the work.
  void bind(const KeyRegistry& by) {
    if (registry != &by) *this = MacWork{&by, std::nullopt, std::nullopt};
  }
};

/// Signing capability of one replica. Only the replica's own actor holds its
/// Signer, which is what makes honest votes unforgeable in the simulation.
/// The Signer owns a copy of its key state: signing never goes back to the
/// registry.
class Signer {
 public:
  [[nodiscard]] ReplicaId id() const { return id_; }

  /// Signs an arbitrary message (protocol code signs canonical encodings).
  [[nodiscard]] Signature sign(BytesView message) const;

 private:
  friend class KeyRegistry;
  Signer(ReplicaId id, const HmacKey& key) : id_(id), key_(key) {}

  ReplicaId id_;
  HmacKey key_;
};

/// The PKI: generates all replica keys from a seed and verifies signatures.
/// Every replica (and the test harness) holds a shared_ptr to one registry.
class KeyRegistry {
 public:
  /// Deterministically derives `n` replica keys from `seed`.
  KeyRegistry(std::uint32_t n, std::uint64_t seed);

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(keys_.size());
  }

  /// Hands out the signer for `id`. Call once per replica at setup; protocol
  /// code never touches other replicas' signers.
  [[nodiscard]] Signer signer_for(ReplicaId id) const;

  /// True iff `sig` is a valid signature by `sig.signer` over `message`.
  /// With a cache, the recomputed MAC for (signer, message) is memoized —
  /// the presented MAC is still compared against the known-good one, so a
  /// forgery can never be laundered through a hit (see verify_cache.hpp).
  [[nodiscard]] bool verify(const Signature& sig, BytesView message,
                            VerifyCache* cache = nullptr) const;

  /// The same check, drawing the message digest and the correct MAC from
  /// `work` (filled on first use) — `work` must belong to (sig.signer,
  /// message). The cache lookup and store still run against `cache`.
  [[nodiscard]] bool verify(const Signature& sig, BytesView message,
                            VerifyCache* cache, MacWork& work) const;

  /// True iff `agg.tag` is the fold of every bitmap member's MAC, each over
  /// `message_for(member)` — the member's own canonical signing bytes. An
  /// empty signer set never verifies. Members bypass the vote memo (see
  /// verify_cache.hpp); callers memoize the whole certificate instead.
  [[nodiscard]] bool verify_aggregate(
      const AggregateSignature& agg,
      const std::function<Bytes(ReplicaId)>& message_for) const;

  /// Aggregates refolded so far (verify_aggregate calls that reached the
  /// refold): the host-cost count that shared certificate checks cut.
  [[nodiscard]] std::uint64_t aggregate_refolds() const {
    return aggregate_refolds_.load();
  }

 private:
  std::vector<HmacKey> keys_;
  mutable std::atomic<std::uint64_t> aggregate_refolds_{0};
};

}  // namespace sftbft::crypto
