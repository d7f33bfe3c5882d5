// The committed ledger of one replica.
//
// Tracks, per height, the committed block and the strongest commit level it
// has reached so far. Strength only ratchets upward (a block that is
// x-strong committed stays x-strong; later strong-QCs can raise it toward
// 2f). The ledger refuses conflicting commits at one height — inside a
// single honest replica that would be a protocol bug, and the tests lean on
// this check. It never reads a payload: the caller supplies each block's
// transaction count, so digest payloads commit without copying a txn.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "sftbft/common/codec.hpp"
#include "sftbft/types/block.hpp"

namespace sftbft::chain {

/// Raised when the protocol tries to commit conflicting blocks at one
/// height within a single replica — always a bug, never expected.
class LedgerConflict : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

class Ledger {
 public:
  struct Entry {
    types::BlockId block_id{};
    Round round = 0;
    Height height = 0;
    /// Highest strength x such that the block is x-strong committed here.
    std::uint32_t strength = 0;
    SimTime created_at = 0;                  ///< proposer-side creation time
    SimTime first_committed_at = 0;          ///< regular (f-strong) commit
    SimTime last_strength_update_at = 0;
    std::uint64_t txn_count = 0;

    /// Canonical codec (storage snapshots persist entries verbatim).
    void encode(Encoder& enc) const;
    static Entry decode(Decoder& dec);

    friend bool operator==(const Entry&, const Entry&) = default;
  };

  enum class CommitResult {
    New,       ///< first commit of this height
    Raised,    ///< strength ratcheted upward
    NoChange,  ///< already committed at >= strength
  };

  /// Records that `block` is committed with tolerance `strength` at `now`.
  /// `txn_count` (see core::Payloads::commit) is read on the first commit.
  /// Re-commits with higher strength ratchet the level; lower are no-ops.
  /// Throws LedgerConflict on a different block at an occupied height.
  CommitResult commit(const types::Block& block, std::uint32_t strength,
                      SimTime now, std::uint64_t txn_count);

  [[nodiscard]] bool is_committed(Height height) const {
    return height < entries_.size() && entries_[height].has_value();
  }

  /// Entry at `height` (must be committed).
  [[nodiscard]] const Entry& at(Height height) const;

  /// Highest committed height, or nullopt when only genesis exists.
  [[nodiscard]] std::optional<Height> tip() const;

  /// Number of committed blocks (genesis excluded).
  [[nodiscard]] std::uint64_t committed_blocks() const { return committed_count_; }

  /// Total transactions across committed blocks.
  [[nodiscard]] std::uint64_t committed_txns() const { return committed_txns_; }

  /// Every committed entry in height order (gaps impossible by construction:
  /// commits apply to a block and all its ancestors).
  [[nodiscard]] std::vector<Entry> snapshot() const;

  /// Crash recovery: repopulates the ledger from a persisted snapshot().
  /// Replaces all current state; commit times and strengths are preserved
  /// verbatim (the committed prefix is final — it is never re-derived).
  void restore(const std::vector<Entry>& entries);

 private:
  // Height-indexed; index 0 (genesis) stays empty.
  std::vector<std::optional<Entry>> entries_;
  std::uint64_t committed_count_ = 0;
  std::uint64_t committed_txns_ = 0;
};

}  // namespace sftbft::chain
