// Strength (endorsement) accounting — the SFT kernel's single bookkeeping
// for "how many replicas k-endorse this block" (paper Fig. 4 / Fig. 5 for
// the chained-QC protocols, Fig. 11 for the lock-step height-marker
// variant). It is the only copy: the chained cores, StreamletCore and the
// SafetyAuditor's ground-truth mirror all count with this class.
//
// The unifying representation: per (block, voter) the tracker keeps the
// most permissive scalar *marker* any of the voter's strong-votes implies,
// in the protocol's position domain —
//
//   * round domain (chained protocols: DiemBFT, HotStuff): a strong-vote
//     ⟨vote, B', r', marker⟩_i endorses a round-r block B iff B = B', or B'
//     extends B and marker < r (interval votes: r ∈ I). Votes arrive packed
//     in strong-QCs (ingest via process_qc);
//   * height domain (Streamlet, Fig. 11): marker = max height of any
//     conflicting voted block; a strong-vote for B' k-endorses B iff
//     B = B', or B' extends B and marker < k. Votes arrive individually
//     (ingest via ingest_height_vote).
//
// Either way "voter endorses (block, threshold t)" is `marker < t`, so one
// count query serves both: the chained strong 3-chain rule evaluates each
// block at its own round, the Streamlet strong commit rule at the committed
// block's height k. The walk per vote is the paper's "marginal bookkeeping":
// ancestors are visited from the voted block downward and the marker prunes
// the walk.
//
// CountingRule::NaiveAllIndirect implements the Appendix-C strawman (count
// every indirect vote, ignore voting history). It exists only to demonstrate
// the safety violation of Fig. 9 in tests/benches — never use it for real.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sftbft/chain/block_tree.hpp"
#include "sftbft/common/types.hpp"
#include "sftbft/types/quorum_cert.hpp"

namespace sftbft::core {

enum class CountingRule {
  Sft,               ///< paper Fig. 4 / Fig. 11: markers gate endorsements
  NaiveAllIndirect,  ///< Appendix C strawman: every indirect vote counts
};

/// "Block `block_id` (round `round`) is now x-strong committed" — emitted
/// when a 3-chain head first reaches strength x (ancestors follow by rule).
struct StrengthUpdate {
  types::BlockId block_id{};
  Round round = 0;
  std::uint32_t strength = 0;

  friend bool operator==(const StrengthUpdate&, const StrengthUpdate&) = default;
};

class StrengthTracker {
 public:
  /// `tree` must outlive the tracker. n = 3f + 1.
  StrengthTracker(const chain::BlockTree& tree, std::uint32_t n,
                  std::uint32_t f, CountingRule rule = CountingRule::Sft);

  // --- round domain (chained protocols) ------------------------------------

  /// Ingests a strong-QC (idempotent per identical QC; unions vote sets of
  /// different QCs for the same block). Every voted block must already be in
  /// the tree. Returns the strong-commit levels newly reached, in discovery
  /// order (3-chain heads only; callers propagate to ancestors).
  std::vector<StrengthUpdate> process_qc(const types::QuorumCert& qc);

  /// Ingests a single vote outside any QC — the Appendix-B FBFT baseline,
  /// where leaders multicast votes arriving after the QC was sealed.
  std::vector<StrengthUpdate> process_extra_vote(const types::Vote& vote);

  /// Highest x such that the block was *directly* x-strong committed as a
  /// 3-chain head; 0 if never. (Ancestors inherit the max over descendant
  /// heads — tracked by the ledger, not here.)
  [[nodiscard]] std::uint32_t head_strength(const types::BlockId& id) const;

  /// Strength the block enjoys through itself or any descendant 3-chain head
  /// (the Sec.-5 quantity light-client log entries are validated against).
  [[nodiscard]] std::uint32_t effective_strength(const types::BlockId& id) const;

  // --- height domain (lock-step protocols) ---------------------------------

  /// Ingests one height-marked strong-vote (Fig. 11): the voter directly
  /// endorses `block_id` (marker 0) and each ancestor at the vote's marker.
  /// No-op when the block is not in the tree yet (replay after sync is
  /// idempotent: markers only ratchet toward the permissive minimum).
  void ingest_height_vote(const types::BlockId& block_id, ReplicaId voter,
                          Height marker);

  // --- counting (both domains) ---------------------------------------------

  /// Number of voters whose recorded marker is < `threshold` (the block's
  /// round for the chained rules, the committed height k for Streamlet).
  [[nodiscard]] std::uint32_t endorser_count(const types::BlockId& id,
                                             std::uint64_t threshold) const;

  /// Round-domain convenience: endorsers of the block at its own round.
  /// Every round-domain record is made only when it endorses there, so
  /// this is the recorded-voter count — O(1), unlike the threshold scan.
  /// Only meaningful on a round-domain (QC-fed) tracker.
  [[nodiscard]] std::uint32_t endorser_count(const types::BlockId& id) const;

  /// The endorsing voter set at `threshold`, sorted (empty if unknown).
  [[nodiscard]] std::vector<ReplicaId> endorsers(const types::BlockId& id,
                                                 std::uint64_t threshold) const;
  [[nodiscard]] std::vector<ReplicaId> endorsers(const types::BlockId& id) const;

  [[nodiscard]] CountingRule rule() const { return rule_; }

 private:
  /// Adds `voter`'s endorsements from a chain vote for `block_id` cast at
  /// `voted_round`, carrying `meta` — the per-voter shape certificates keep;
  /// records every block whose endorser set actually grew into `touched`.
  void ingest_chain_vote(const types::BlockId& block_id, Round voted_round,
                         ReplicaId voter, const types::VoteMeta& meta,
                         std::vector<types::BlockId>& touched);

  /// Re-evaluates 3-chains around a block whose count changed.
  void reevaluate(const types::BlockId& id,
                  std::vector<StrengthUpdate>& updates);

  /// Evaluates the 3-chain headed at `head` (if one exists) and records a
  /// strength increase.
  void evaluate_head(const types::Block& head,
                     std::vector<StrengthUpdate>& updates);

  const chain::BlockTree* tree_;
  std::uint32_t n_;
  std::uint32_t f_;
  CountingRule rule_;

  /// Per block, each voter's most permissive recorded marker ("endorses any
  /// threshold t > marker").
  std::unordered_map<types::BlockId,
                     std::unordered_map<ReplicaId, std::uint64_t>>
      min_marker_;
  std::unordered_map<types::BlockId, std::uint32_t> head_strength_;
  std::unordered_set<crypto::Sha256Digest> seen_qcs_;
};

/// The Fig. 11 strong commit rule for the triple centred at `middle`: finds
/// certified (parent, middle, child) chains with consecutive rounds and
/// returns the best commit strength they support — `f` for a plain triple,
/// up to 2f when `sft` and the k-endorser counts (k = middle's height)
/// allow. Returns nullopt when no certified triple exists (distinct from a
/// valid triple at strength f == 0, which still commits at n <= 3). Shared
/// by StreamletCore (live commits) and the SafetyAuditor (ground truth) so
/// the rule itself exists exactly once.
[[nodiscard]] std::optional<std::uint32_t> streamlet_triple_strength(
    const chain::BlockTree& tree, const StrengthTracker& tracker,
    const types::Block& middle,
    const std::function<bool(const types::BlockId&)>& certified,
    std::uint32_t n, std::uint32_t f, bool sft);

}  // namespace sftbft::core
