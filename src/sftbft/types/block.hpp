// Blocks (paper Sec. 2.1).
//
// B_k = (H(B_{k-1}), qc, txn): a block carries its parent hash, a (strong-)
// QC certifying the parent, and a transaction batch. Blocks are chained by
// hash; `round` positions the block in pacemaker time and `height` in the
// chain. The id is the SHA-256 of the canonical header so equivocating
// proposals (same round, different content) have distinct ids.
#pragma once

#include <string>

#include "sftbft/common/codec.hpp"
#include "sftbft/common/types.hpp"
#include "sftbft/types/quorum_cert.hpp"
#include "sftbft/types/transaction.hpp"
#include "sftbft/types/vote.hpp"

namespace sftbft::types {

struct Block {
  BlockId id{};          ///< derived: hash of the canonical header
  BlockId parent_id{};   ///< H(B_{k-1})
  Round round = 0;
  Height height = 0;
  ReplicaId proposer = kNoReplica;
  QuorumCert qc;         ///< certifies the parent block
  Payload payload;
  /// Digest of the proposal's Sec.-5 commit Log (zero when the proposal
  /// carries none). Sealing it into the header is what lets a QC vouch for
  /// the Log: votes sign the block id, so a corrupted proposer cannot
  /// rewrite the Log under an already-certified block — the binding
  /// StrongCommitProof verification depends on (see types::proposal and
  /// lightclient).
  crypto::Sha256Digest log_digest{};
  /// Simulation metadata: creation time at the proposer. The paper measures
  /// strong-commit latency "from when a block is created" (Sec. 4).
  SimTime created_at = 0;

  /// Recomputes `id` from the other fields. Must be called after any field
  /// changes; proposals are rejected if the id does not match.
  void seal();

  /// True iff `id` equals the hash of the current header fields.
  [[nodiscard]] bool id_is_valid() const;

  /// The genesis block: round 0, height 0, zero parent, empty QC/payload.
  static Block genesis();

  void encode(Encoder& enc) const;
  static Block decode(Decoder& dec);

  /// Minimum encoded size (empty QC/payload): bounds untrusted block counts
  /// while decoding sync responses.
  static constexpr std::size_t kMinEncodedBytes =
      32 + 32 + 8 + 8 + 4 + QuorumCert::kMinEncodedBytes + 5 + 32 + 8;

  friend bool operator==(const Block&, const Block&) = default;

 private:
  [[nodiscard]] crypto::Sha256Digest compute_id() const;
};

}  // namespace sftbft::types
