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
// block's height k.
//
// Storage is dense: each block the tracker has heard of owns one Record
// holding n marker slots (one per replica id, ~0 = "not recorded") in a
// shared arena, the count of recorded slots and the block's head strength.
// A threshold query scans n slots and yields voters in ascending id order;
// the round-domain count at the block's own round is the stored count.
// Voter ids >= n can only come from a certificate that fails verification;
// they are ignored, like votes for unknown blocks (under-counting never
// harms safety).
//
// The walk is the paper's "marginal bookkeeping": a QC is ingested by one
// walk from the voted block downward, level by level, carrying the voters
// still active. A voter drops out exactly where its own per-vote walk would
// stop (an already-recorded slot, a non-endorsing Marker/Plain vote, an
// Intervals vote below its smallest endorsed round), so each ancestor is
// looked up once per QC rather than once per vote.
//
// CountingRule::NaiveAllIndirect implements the Appendix-C strawman (count
// every indirect vote, ignore voting history). It exists only to demonstrate
// the safety violation of Fig. 9 in tests/benches — never use it for real.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
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
  /// Marker slot value for "voter not recorded on this block".
  static constexpr std::uint64_t kUnrecorded = ~std::uint64_t{0};

  struct Record {
    std::size_t base = 0;         ///< first of this block's n arena slots
    std::uint32_t count = 0;      ///< recorded (non-kUnrecorded) slots
    std::uint32_t head_strength = 0;
  };

  /// Adds the endorsements of `votes`, all cast for `block_id` at
  /// `voted_round` (one QC, or one extra vote), in a single walk down the
  /// ancestor chain; records every block whose endorser set actually grew
  /// into `touched`.
  void ingest_chain_votes(const types::BlockId& block_id, Round voted_round,
                          std::span<const types::QcVote> votes,
                          std::vector<types::BlockId>& touched);

  /// Re-evaluates the 3-chains around every touched block (sorted and
  /// deduplicated first, so updates come out in BlockId order).
  void reevaluate_touched(std::vector<types::BlockId>& touched,
                          std::vector<StrengthUpdate>& updates);

  /// Re-evaluates 3-chains around a block whose count changed.
  void reevaluate(const types::BlockId& id,
                  std::vector<StrengthUpdate>& updates);

  /// Evaluates the 3-chain headed at `head` (if one exists) and records a
  /// strength increase.
  void evaluate_head(const types::Block& head,
                     std::vector<StrengthUpdate>& updates);

  /// The block's record, created with every slot unrecorded.
  Record& record(const types::BlockId& id);
  [[nodiscard]] const Record* find_record(const types::BlockId& id) const;

  /// Sets `rec`'s slot for `voter` to `marker`, counting a fresh slot.
  void set_slot(Record& rec, ReplicaId voter, std::uint64_t marker);

  const chain::BlockTree* tree_;
  std::uint32_t n_;
  std::uint32_t f_;
  CountingRule rule_;

  std::unordered_map<types::BlockId, Record> records_;
  /// n marker slots per record: a voter's most permissive recorded marker
  /// ("endorses any threshold t > marker").
  std::vector<std::uint64_t> slots_;
  std::unordered_set<crypto::Sha256Digest> seen_qcs_;
  /// Scratch for ingest_chain_votes: indices of the votes still walking.
  std::vector<std::uint32_t> active_;
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
