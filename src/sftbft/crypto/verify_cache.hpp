// Receiver-side verification memo for votes and certificates.
//
// The same signature bytes are verified repeatedly on real paths: a vote
// arrives individually at the leader and again inside the sealed QC; a QC is
// re-verified when the proposal that carries it is echoed, when a timeout
// message attaches it, and when sync replays it. The memo makes each of
// those a recomputation exactly once:
//
//  - Vote level: (signer, SHA-256 of the signing bytes) -> the *recomputed*
//    correct MAC. Only MACs this registry derived itself are stored — never
//    attacker input — so a hit still compares the presented MAC against the
//    known-good one; a forged signature can never be laundered through the
//    cache.
//  - Certificate level: a digest of the certificate's full canonical
//    encoding, noted only after a successful verification. Any tamper —
//    header, metadata, bitmap, or tag — changes the encoding, so a mutated
//    certificate misses the memo and pays (and fails) fresh verification.
//    Tests pin this mutate-after-verify property (tests/crypto_test.cpp).
//
// Certificate members bypass the vote level: KeyRegistry::verify_aggregate
// recomputes each member's MAC without a lookup. A member's signing bytes
// are rarely seen again on their own (only the leader got the vote
// individually), so on churn_audit (SFT-DiemBFT, n = 31) the vote memo hit
// only ~11% of lookups, while the memo itself — a SHA-256 of the signing
// bytes for the key, the lookup and the store — cost about as much as the
// MAC it could save (15.2% against 17.5% of a parent profile's samples).
// The certificate-level memo still covers a whole re-verified certificate,
// and single votes keep the vote memo: Streamlet's echoed votes hit it.
//
// The work and the bookkeeping are split. What depends only on the bytes —
// the digest of the signing bytes, the correct MAC, a certificate's memo key
// and its refold verdict — is computed once per broadcast and shared by its
// receivers (crypto::MacWork and types::CertWork, held by the checked views
// of net::Envelope::derived). The lookups and stores here stay per receiver,
// with the shared keys, so each replica's hits, misses and verdicts are what
// a private check gives.
//
// One cache per replica (simulations sweep scenarios on a thread pool, so
// caches are never shared across deployments). Effectiveness is surfaced as
// obs counters (sig.vote_verify_hits/misses, sig.cert_verify_hits/misses)
// when an Observer is attached.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "sftbft/common/types.hpp"
#include "sftbft/crypto/sha256.hpp"

namespace sftbft::obs {
class Observer;
}  // namespace sftbft::obs

namespace sftbft::crypto {

class VerifyCache {
 public:
  /// Entry bound per level; reaching it clears that level (epoch reset), so
  /// a long run's memo cannot grow without bound.
  static constexpr std::size_t kMaxEntries = 1u << 16;

  VerifyCache() = default;
  VerifyCache(obs::Observer* obs, ReplicaId replica)
      : obs_(obs), replica_(replica) {}

  /// The memoized correct MAC for (signer, message digest); nullptr = miss.
  /// The pointer is valid until the next store_mac call.
  [[nodiscard]] const Sha256Digest* lookup_mac(
      ReplicaId signer, const Sha256Digest& message_digest);

  /// Memoizes a MAC the registry recomputed itself (see file comment: only
  /// known-good MACs enter the cache).
  void store_mac(ReplicaId signer, const Sha256Digest& message_digest,
                 const Sha256Digest& mac);

  /// True iff a certificate with this canonical-encoding digest already
  /// verified successfully. Counts a cert-level hit/miss either way.
  [[nodiscard]] bool seen_cert(const Sha256Digest& key);

  /// Records a successful certificate verification.
  void note_cert(const Sha256Digest& key);

  [[nodiscard]] std::uint64_t vote_hits() const { return vote_hits_; }
  [[nodiscard]] std::uint64_t vote_misses() const { return vote_misses_; }
  [[nodiscard]] std::uint64_t cert_hits() const { return cert_hits_; }
  [[nodiscard]] std::uint64_t cert_misses() const { return cert_misses_; }

 private:
  struct MacEntry {
    ReplicaId signer = kNoReplica;
    Sha256Digest mac;
  };

  void bump_vote(bool hit);
  void bump_cert(bool hit);

  // Signing bytes embed the signer id, so the message digest alone is a
  // sound key; the entry still pins the signer as a collision guard.
  std::unordered_map<Sha256Digest, MacEntry> macs_;
  std::unordered_set<Sha256Digest> certs_;
  std::uint64_t vote_hits_ = 0;
  std::uint64_t vote_misses_ = 0;
  std::uint64_t cert_hits_ = 0;
  std::uint64_t cert_misses_ = 0;
  obs::Observer* obs_ = nullptr;
  ReplicaId replica_ = kNoReplica;
};

}  // namespace sftbft::crypto
