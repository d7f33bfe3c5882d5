// Quorum certificates / strong-QCs (paper Sec. 2, Fig. 4).
//
// A QC certifies one block with >= 2f + 1 distinct signed votes. A strong-QC
// is the same object whose votes are strong-votes — the SFT layer reads the
// markers/intervals out of them to maintain endorser sets. With the Fig. 8
// extra-wait policy a leader may pack *more* than 2f + 1 votes into a QC
// (up to n), which is what accelerates strong commits.
//
// On the wire the signature portion is O(1)-in-n: the voter set is a
// ⌈n/8⌉-byte bitmap and all the votes' MACs fold into one 32-byte aggregate
// tag (crypto::AggregateSignature), instead of 36 bytes per signer. Only the
// per-voter SFT metadata (VoteMeta) still scales with the voter count —
// encoded in bitmap-bit order, so voter ids are implicit and a duplicate
// signer is unrepresentable on the wire.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "sftbft/common/codec.hpp"
#include "sftbft/common/types.hpp"
#include "sftbft/crypto/aggregate.hpp"
#include "sftbft/crypto/signature.hpp"
#include "sftbft/types/vote.hpp"

namespace sftbft::crypto {
class KeyRegistry;
class VerifyCache;
}

namespace sftbft::types {

/// One voter's contribution as a certificate keeps it: the identity plus
/// the SFT metadata. The signature lives in the aggregate.
struct QcVote {
  ReplicaId voter = kNoReplica;
  VoteMeta meta;

  friend bool operator==(const QcVote&, const QcVote&) = default;
};

/// The receiver-independent part of verifying one certificate value: the
/// digest of its full canonical encoding (the VerifyCache cert key) and the
/// aggregate's refold verdict, each computed on first use. The receivers
/// of one broadcast share one object per certificate; each still checks
/// its own quorum and does its own seen_cert / note_cert.
struct CertWork {
  const crypto::KeyRegistry* registry = nullptr;
  std::optional<crypto::Sha256Digest> memo_key;
  std::optional<bool> aggregate_ok;

  /// Starts over when a different registry uses the work.
  void bind(const crypto::KeyRegistry& by) {
    if (registry != &by) *this = CertWork{&by, std::nullopt, std::nullopt};
  }
};

struct QuorumCert {
  BlockId block_id{};       ///< the certified block
  Round round = 0;          ///< its round number
  BlockId parent_id{};      ///< parent of the certified block
  Round parent_round = 0;   ///< parent's round (drives the locking rule)
  /// Per-voter metadata, canonically sorted by voter id (= bitmap order).
  std::vector<QcVote> votes;
  /// One aggregate over every voter's own vote signing-bytes.
  crypto::AggregateSignature agg;

  /// The genesis QC certifies the genesis block at round 0 with no votes.
  [[nodiscard]] bool is_genesis() const { return round == 0; }

  /// Folds a signed vote in: meta into `votes`, signature into the
  /// aggregate. Returns false (no-op) if the voter is already aggregated.
  /// The vote's signature is presumed verified by the caller (leaders
  /// verify on receipt); call canonicalize() after the last fold.
  bool add_vote(const Vote& vote);

  /// Sorts voter metas by voter id — call after assembly so equal QCs
  /// encode identically regardless of vote arrival order. Also the memo
  /// refresh point: mutating a QC after its digest() was computed requires
  /// a canonicalize() before digest() is meaningful again (the receive path
  /// never mutates, so decoded QCs need nothing).
  void canonicalize();

  /// Structural + cryptographic validity: >= quorum voters, metas aligned
  /// with the signer bitmap (sorted, distinct), and the aggregate tag
  /// refolds from every voter's recomputed MAC over its own signing bytes.
  /// The genesis QC is valid by definition. With a cache, a certificate
  /// that already verified is admitted by its full-encoding digest — any
  /// tamper changes the encoding and forces (failing) fresh verification.
  [[nodiscard]] bool verify(const crypto::KeyRegistry& registry,
                            std::size_t quorum,
                            crypto::VerifyCache* cache = nullptr) const;

  /// The same check, with the memo key and the aggregate verdict drawn
  /// from `work` (which must belong to this certificate's value).
  [[nodiscard]] bool verify(const crypto::KeyRegistry& registry,
                            std::size_t quorum, crypto::VerifyCache* cache,
                            CertWork& work) const;

  /// Digest binding the QC content (used inside block ids and as the
  /// identity key of per-QC bookkeeping). Memoized per object: a canonical
  /// QC's digest is taken several times on the hot path (block-id sealing,
  /// strength-tracker dedupe, commit-log keying), and the memo survives
  /// copies (tree insertion, proposal embedding) so each QC encodes once.
  [[nodiscard]] crypto::Sha256Digest digest() const;

  void encode(Encoder& enc) const;
  static QuorumCert decode(Decoder& dec);

  /// Minimum encoded size (no votes, empty bitmap): bounds untrusted
  /// counts upstream.
  static constexpr std::size_t kMinEncodedBytes =
      32 + 8 + 32 + 8 + 4 + crypto::AggregateSignature::kMinEncodedBytes;

  /// Semantic equality (the digest memo is identity-irrelevant).
  friend bool operator==(const QuorumCert& a, const QuorumCert& b) {
    return a.block_id == b.block_id && a.round == b.round &&
           a.parent_id == b.parent_id && a.parent_round == b.parent_round &&
           a.votes == b.votes && a.agg == b.agg;
  }

 private:
  mutable std::shared_ptr<const crypto::Sha256Digest> digest_memo_;
};

/// QCs (certified blocks) are ranked by round number (paper Sec. 2).
[[nodiscard]] bool ranks_higher(const QuorumCert& a, const QuorumCert& b);

}  // namespace sftbft::types
