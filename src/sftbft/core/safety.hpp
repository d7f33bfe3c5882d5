// Chained-BFT safety state (paper Fig. 2: voting rule + locking rule).
//
// State per replica: highest voted round r_vote, highest locked round r_lock
// (with the locked block's id), highest quorum certificate qc_high. The
// universal bookkeeping — record votes, lock on the 2-chain, rank QCs — is
// protocol-independent across the chained family; the protocol-specific
// part of the voting rule (DiemBFT's parent.round >= r_lock vs HotStuff's
// extends-locked-or-higher-QC) is CoreConfig::safe_to_vote, evaluated by
// the ChainedCore, not here.
#pragma once

#include "sftbft/common/types.hpp"
#include "sftbft/types/block.hpp"
#include "sftbft/types/quorum_cert.hpp"

namespace sftbft::core {

class SafetyRules {
 public:
  SafetyRules() = default;

  /// The universal voting preconditions every chained protocol shares:
  /// strictly increasing vote rounds (r > r_vote) and structurally
  /// increasing rounds along the chain. Protocol rules add their locking
  /// check on top (see CoreConfig::safe_to_vote).
  [[nodiscard]] bool can_vote(const types::Block& block) const {
    return block.round > voted_round_ &&   // (1) r > r_vote
           block.round > block.qc.round;   // structural: rounds increase
  }

  /// Records that the replica voted in `round` (updates r_vote).
  void record_vote(Round round) {
    if (round > voted_round_) voted_round_ = round;
  }

  /// Fig. 2 locking rule: on any valid QC, lock on the round of the parent
  /// of the certified block (remembering which block that is), and track
  /// the highest QC.
  void observe_qc(const types::QuorumCert& qc) {
    if (qc.parent_round > locked_round_) {
      locked_round_ = qc.parent_round;
      locked_block_ = qc.parent_id;
    }
    if (qc.round > high_qc_.round) high_qc_ = qc;
  }

  /// Pacemaker hook: stop voting in rounds below `round` (on round entry /
  /// local timeout, Fig. 2 "stops ... voting for round < r").
  void forbid_votes_below(Round round) {
    if (round > 0 && round - 1 > voted_round_) voted_round_ = round - 1;
  }

  /// Seeds qc_high with the genesis QC (round 0, certifying the genesis
  /// block id) so the first leader has a parent to extend.
  void init_high_qc(const types::QuorumCert& genesis_qc) {
    high_qc_ = genesis_qc;
  }

  /// Crash recovery: re-arms the locking rule from the durable watermark.
  /// Restoring the lock from qc_high alone could *regress* it — a
  /// timeout-borne high QC may carry a lower parent round than an earlier
  /// chain QC the replica locked against. The locked block id is not
  /// persisted; it stays empty until the next QC raises the lock (rules
  /// that use it must fall back to the round comparison — see
  /// hotstuff::safe_to_vote).
  void restore_locked_round(Round round) {
    if (round > locked_round_) locked_round_ = round;
  }

  [[nodiscard]] Round voted_round() const { return voted_round_; }
  [[nodiscard]] Round locked_round() const { return locked_round_; }
  /// The block the replica is locked on (empty id when never locked, or
  /// when the lock was restored from durable state).
  [[nodiscard]] const types::BlockId& locked_block() const {
    return locked_block_;
  }
  [[nodiscard]] const types::QuorumCert& high_qc() const { return high_qc_; }

 private:
  Round voted_round_ = 0;
  Round locked_round_ = 0;
  types::BlockId locked_block_{};
  types::QuorumCert high_qc_{};  // genesis QC (round 0)
};

}  // namespace sftbft::core
