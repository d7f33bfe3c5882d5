// Proposals and the block-sync messages.
//
// ⟨propose, B_k, r⟩_{L_r}: the round leader multicasts its block, optionally
// justified by a TC when the previous round timed out, plus the Sec. 5 commit
// Log — strong-commit level updates that, once the block is certified, a
// light client can trust (at least one honest replica among any 2f + 1
// signers vouches for them when faults ≤ 2f).
#pragma once

#include <optional>
#include <vector>

#include "sftbft/common/codec.hpp"
#include "sftbft/common/types.hpp"
#include "sftbft/crypto/signature.hpp"
#include "sftbft/types/block.hpp"
#include "sftbft/types/timeout.hpp"

namespace sftbft::types {

/// One Sec.-5 Log record: "block `block_id` (round r) reached strength x".
struct CommitLogEntry {
  BlockId block_id{};
  Round round = 0;
  /// Strength as the number of tolerated faults x (f <= x <= 2f).
  std::uint32_t strength = 0;

  void encode(Encoder& enc) const;
  static CommitLogEntry decode(Decoder& dec);

  static constexpr std::size_t kEncodedBytes = 32 + 8 + 4;

  friend bool operator==(const CommitLogEntry&, const CommitLogEntry&) = default;
};

/// Canonical digest of a commit Log, sealed into Block::log_digest by the
/// proposer (zero for an empty Log). Because votes sign the block id, this
/// is what extends QC certification to the Log itself: a corrupted proposer
/// cannot re-sign a different Log under an already-certified block
/// (Sec. 5's "at least one honest replica agrees on the update" argument
/// needs the voters to be bound to the Log they validated).
[[nodiscard]] crypto::Sha256Digest commit_log_digest(
    const std::vector<CommitLogEntry>& log);

struct Proposal {
  Block block;
  /// Present when the proposal follows a timed-out round.
  std::optional<TimeoutCert> tc;
  /// Strong-commit level updates since the parent proposal (Sec. 5).
  std::vector<CommitLogEntry> commit_log;
  crypto::Signature sig{};

  [[nodiscard]] Round round() const { return block.round; }
  [[nodiscard]] Bytes signing_bytes() const;

  void encode(Encoder& enc) const;
  static Proposal decode(Decoder& dec);

  friend bool operator==(const Proposal&, const Proposal&) = default;
};

/// Block-sync request (crash recovery): a restarted replica asks peers for
/// the certified chain above its durable ledger tip. Not part of the paper's
/// protocol — recovery machinery for the storage layer (sftbft::storage).
struct SyncRequest {
  ReplicaId requester = kNoReplica;
  /// Send blocks with height > from_height (the requester's restored root).
  Height from_height = 0;

  void encode(Encoder& enc) const;
  static SyncRequest decode(Decoder& dec);

  friend bool operator==(const SyncRequest&, const SyncRequest&) = default;
};

/// Block-sync response: the responder's high-QC branch above the requested
/// height, oldest first. Each block's embedded QC certifies its parent; the
/// final block is certified by `high_qc` — so the whole chain is verifiable
/// without trusting the responder.
struct SyncResponse {
  std::vector<Block> blocks;
  QuorumCert high_qc;

  void encode(Encoder& enc) const;
  static SyncResponse decode(Decoder& dec);

  friend bool operator==(const SyncResponse&, const SyncResponse&) = default;
};

}  // namespace sftbft::types
