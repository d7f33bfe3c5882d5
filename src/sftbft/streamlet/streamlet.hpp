// Streamlet and SFT-Streamlet (paper Appendix D).
//
// Streamlet (Chan-Shi) trades performance for simplicity:
//  * lock-step rounds of duration 2Δ (no responsiveness);
//  * the leader proposes extending the longest certified chain it knows;
//  * replicas vote (multicast to everyone) iff the proposal extends one of
//    the longest certified chains they have seen;
//  * a block is certified once 2f + 1 votes are seen; commit the middle
//    block of three adjacent certified blocks with consecutive rounds;
//  * an echo mechanism forwards previously-unseen messages to all (O(n^3)
//    messages per round — measured, not hidden, by the benches).
//
// SFT-Streamlet (Fig. 11) strengthens votes with a *height* marker:
// marker = max{height(B') | B' conflicts B, replica voted for B'}. A
// strong-vote for B' k-endorses B iff B = B', or B' extends B and
// marker < k. The strong commit rule x-strong commits a height-k block B_k
// iff the three adjacent certified blocks B_{k-1}, B_k, B_{k+1} (consecutive
// rounds) each have >= x + f + 1 k-endorsers.
//
// D.4: because honest replicas vote only for the longest certified chain,
// reverting an x-strong committed block h blocks deep requires > x
// corruptions for ~h rounds (vs a single round in SFT-DiemBFT).
//
// The SFT machinery itself — vote-history frontier + markers, k-endorser
// strength accounting, the commit-chain walk, block-sync policy — is the
// shared sftbft::core kernel; this module keeps only Streamlet's lock-step
// protocol rules (round ticking, longest-chain voting, certification, the
// triple commit rule's driver).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <variant>
#include <vector>

#include "sftbft/chain/block_tree.hpp"
#include "sftbft/chain/ledger.hpp"
#include "sftbft/common/types.hpp"
#include "sftbft/core/block_sync.hpp"
#include "sftbft/core/committer.hpp"
#include "sftbft/core/payloads.hpp"
#include "sftbft/core/strength.hpp"
#include "sftbft/core/vote_history.hpp"
#include "sftbft/crypto/aggregate.hpp"
#include "sftbft/crypto/signature.hpp"
#include "sftbft/crypto/verify_cache.hpp"
#include "sftbft/net/envelope.hpp"
#include "sftbft/obs/lifecycle.hpp"
#include "sftbft/sim/scheduler.hpp"
#include "sftbft/storage/replica_store.hpp"
#include "sftbft/types/block.hpp"

namespace sftbft::streamlet {

struct StreamletConfig {
  ReplicaId id = 0;
  std::uint32_t n = 4;
  /// The assumed maximum network delay Δ; rounds last 2Δ.
  SimDuration delta_bound = millis(50);
  /// Strong-votes + strong commit rule (Fig. 11); false = plain Streamlet.
  bool sft = true;
  /// How k-endorsers are counted (sft mode only): the Fig. 11 height-marker
  /// rule, or the Appendix-C NaiveAllIndirect strawman (every indirect vote
  /// counts, markers ignored) — the same comparison knob the chained cores
  /// expose, here so bench/tab_adversary can break the strawman on every
  /// engine. Markers are still *sent* truthfully; only counting changes.
  core::CountingRule counting = core::CountingRule::Sft;
  /// Forward unseen messages to all (the protocol's echo; expensive).
  bool echo = true;
  std::size_t max_batch = 100;
  bool verify_signatures = true;
  /// Observability (metrics + trace events, attributed to `id`); null = off.
  /// Stamped by the Deployment; the Observer outlives the core.
  obs::Observer* observer = nullptr;

  [[nodiscard]] std::uint32_t f() const { return (n - 1) / 3; }
  [[nodiscard]] std::uint32_t quorum() const { return 2 * f() + 1; }
};

/// Streamlet messages: a proposal is just a signed block; votes carry a
/// height marker in SFT mode. Every message has a canonical encoding (the
/// same Encoder/Decoder codec as the chained stacks) and travels in a
/// net::Envelope; the encoded size is the wire size.
struct SProposal {
  types::Block block;
  crypto::Signature sig{};

  [[nodiscard]] Bytes signing_bytes() const;

  void encode(Encoder& enc) const;
  static SProposal decode(Decoder& dec);

  friend bool operator==(const SProposal&, const SProposal&) = default;
};

struct SVote {
  types::BlockId block_id{};
  Round round = 0;
  Height height = 0;
  ReplicaId voter = kNoReplica;
  /// SFT: max height of any conflicting voted block (Fig. 11), else 0.
  Height marker = 0;
  crypto::Signature sig{};

  [[nodiscard]] Bytes signing_bytes() const;

  /// The signed bytes rebuilt from certificate parts — what an aggregate
  /// verifier recomputes per bitmap member.
  [[nodiscard]] static Bytes signing_bytes_for(const types::BlockId& block_id,
                                               Round round, Height height,
                                               ReplicaId voter, Height marker);

  void encode(Encoder& enc) const;
  static SVote decode(Decoder& dec);

  /// Exact encoded size (SVote is fixed-width): bounds untrusted vote
  /// counts while decoding vote containers.
  static constexpr std::size_t kEncodedBytes = 32 + 8 + 8 + 4 + 8 + (4 + 32);

  friend bool operator==(const SVote&, const SVote&) = default;
};

/// An SProposal with the receiver-independent parts of checking it, each
/// computed on first use: the block-id verdict and the proposer
/// signature's digest and MAC. of() builds one per net::Envelope, so the
/// receivers of a broadcast share one decode and one of each check; each
/// receiver still runs the checks in order against its own state, and a
/// duplicate returns before any of them.
class CheckedSProposal {
 public:
  explicit CheckedSProposal(SProposal proposal)
      : proposal_(std::move(proposal)) {}

  /// The checked proposal of `env` (a kSProposal envelope), decoded on
  /// first use. Throws CodecError on a malformed payload.
  static const CheckedSProposal& of(const net::Envelope& env);

  [[nodiscard]] const SProposal& msg() const { return proposal_; }
  [[nodiscard]] bool id_valid() const;
  /// The signature over the signing bytes; signer identity is the caller's.
  [[nodiscard]] bool signature_valid(const crypto::KeyRegistry& registry,
                                     crypto::VerifyCache* cache) const;

 private:
  SProposal proposal_;
  mutable std::optional<bool> id_valid_;
  mutable std::optional<Bytes> signing_bytes_;
  mutable crypto::MacWork sig_work_;
};

/// An SVote with its signature's digest and MAC computed on first use,
/// shared per net::Envelope like CheckedSProposal.
class CheckedSVote {
 public:
  explicit CheckedSVote(SVote vote) : vote_(std::move(vote)) {}

  /// The checked vote of `env` (a kSVote envelope), decoded on first use.
  /// Throws CodecError on a malformed payload.
  static const CheckedSVote& of(const net::Envelope& env);

  [[nodiscard]] const SVote& msg() const { return vote_; }
  [[nodiscard]] bool signature_valid(const crypto::KeyRegistry& registry,
                                     crypto::VerifyCache* cache) const;

 private:
  SVote vote_;
  mutable std::optional<Bytes> signing_bytes_;
  mutable crypto::MacWork sig_work_;
};

/// A Streamlet certificate: one block's certifying vote quorum, collapsed
/// to a voter bitmap + per-voter height markers (bit order, voters
/// implicit) + a single aggregate signature. Streamlet has no chain-embedded
/// QCs — this object exists for the sync path, where a responder used to
/// ship a quorum of full votes per block.
struct SCert {
  types::BlockId block_id{};
  Round round = 0;
  Height height = 0;
  /// Per-voter height markers, in bitmap-bit (voter id) order.
  std::vector<Height> markers;
  /// One aggregate over every voter's own vote signing-bytes.
  crypto::AggregateSignature agg;

  /// Folds a signed vote in (marker + signature); votes must be folded in
  /// ascending voter order and match (block_id, round, height). Returns
  /// false (no-op) on a duplicate voter.
  bool add_vote(const SVote& vote);

  /// >= quorum distinct voters and the aggregate refolds from every
  /// voter's recomputed MAC. Cache semantics as QuorumCert::verify.
  [[nodiscard]] bool verify(const crypto::KeyRegistry& registry,
                            std::size_t quorum,
                            crypto::VerifyCache* cache = nullptr) const;

  void encode(Encoder& enc) const;
  static SCert decode(Decoder& dec);

  /// Minimum encoded size (no voters): bounds untrusted cert counts while
  /// decoding sync responses.
  static constexpr std::size_t kMinEncodedBytes =
      32 + 8 + 8 + 4 + crypto::AggregateSignature::kMinEncodedBytes;

  friend bool operator==(const SCert&, const SCert&) = default;
};

/// Crash-recovery block sync (storage layer; not part of Appendix D): the
/// restarted replica asks peers for the certified chain above its durable
/// tip. The request is the kernel's shared types::SyncRequest, under the
/// shared kSyncRequest tag; Streamlet has no chain-embedded QCs, so the
/// *response* carries one aggregate certificate per block — verified whole,
/// it re-certifies the block, so the responder needs no trust.
using SSyncRequest = types::SyncRequest;

struct SSyncResponse {
  /// Longest-certified-chain blocks above from_height, oldest first.
  std::vector<types::Block> blocks;
  /// One certifying aggregate per block (any order; matched by block_id).
  std::vector<SCert> certs;

  void encode(Encoder& enc) const;
  static SSyncResponse decode(Decoder& dec);

  friend bool operator==(const SSyncResponse&, const SSyncResponse&) = default;
};

/// What the echo path forwards: a previously-unseen proposal or vote.
using SMessage = std::variant<SProposal, SVote>;

/// Wraps whichever alternative `msg` holds in its wire envelope.
[[nodiscard]] net::Envelope to_envelope(ReplicaId sender, const SMessage& msg);

class StreamletCore {
 public:
  struct Hooks {
    std::function<void(const SProposal&)> broadcast_proposal;
    std::function<void(const SVote&)> broadcast_vote;
    /// Echo of a previously-unseen message (original sender attributed).
    std::function<void(const SMessage&)> echo;
    std::function<void(const types::Block&, std::uint32_t strength,
                       SimTime now)>
        on_commit;
    /// Crash recovery: block-sync traffic. May be empty.
    std::function<void(ReplicaId to, const SSyncRequest&)> send_sync_request;
    std::function<void(ReplicaId to, const SSyncResponse&)>
        send_sync_response;
    /// Auditing taps (harness::SafetyAuditor): every block admitted to the
    /// tree and every distinct vote ingested, fired *before* the vote feeds
    /// the local strength bookkeeping — a global observer is always at
    /// least as informed as the replica it audits. May be empty.
    std::function<void(const types::Block&)> on_block_seen;
    std::function<void(const SVote&)> on_vote_seen;
  };

  /// `store` (optional) enables durability (WAL'd votes + ledger snapshots)
  /// and thereby restore() after a crash. `payloads` must outlive the core;
  /// Streamlet never requeues one (known gap for inline payloads, see
  /// ROADMAP.md; digest batches revert via the store's repropose window).
  StreamletCore(StreamletConfig config, sim::Scheduler& sched,
                std::shared_ptr<const crypto::KeyRegistry> registry,
                core::Payloads& payloads, Hooks hooks,
                storage::ReplicaStore* store = nullptr);

  /// Starts the lock-step round ticks (round r spans [2Δ(r-1), 2Δr)).
  void start();
  void stop();

  /// Crash recovery: rebuilds from durable state — tree re-rooted at the
  /// snapshot tip, ledger restored, the voted-round fence re-armed (never
  /// vote twice in a round), voted-frontier records re-imported (entries
  /// whose blocks are missing become a conservative marker floor — the
  /// kernel VoteHistory's standard conservative treatment). The round
  /// counter realigns to the global lock-step clock (round = ⌊now/2Δ⌋ + 1).
  /// Voting stays suppressed until a sync response refreshes the longest
  /// certified chain — an honest replica must not vote for stale tips.
  void restore(const storage::RecoveredState& state);

  /// Asks a small rotating window of peers for blocks above the local tip,
  /// retrying on the kernel SyncClient's watchdog while the replica is
  /// still awaiting a response or its certified tip lags the lock-step
  /// clock.
  void request_sync();

  /// Re-runs the vote path for a proposal deferred on missing batches (call
  /// when new batches arrive). Lock-step rounds mean at most one proposal
  /// can be waiting; a deferral that missed its round lapses silently.
  void retry_awaiting_payloads();

  /// The message forms wrap the message in its checked view; the host
  /// passes the view it shares among a broadcast's receivers.
  void on_proposal(const SProposal& proposal);
  void on_proposal(const CheckedSProposal& checked);
  void on_vote(const SVote& vote);
  void on_vote(const CheckedSVote& checked);
  void on_sync_request(const SSyncRequest& req);
  void on_sync_response(const SSyncResponse& resp);

  [[nodiscard]] Round current_round() const { return round_; }
  [[nodiscard]] const chain::BlockTree& tree() const { return tree_; }
  [[nodiscard]] const chain::Ledger& ledger() const { return ledger_; }
  [[nodiscard]] bool is_certified(const types::BlockId& id) const {
    return certified_.contains(id);
  }
  /// Tip (highest block) of the longest certified chain known.
  [[nodiscard]] const types::Block& longest_certified_tip() const;

  /// Number of voters whose strong-vote k-endorses `id` (SFT mode).
  [[nodiscard]] std::uint32_t k_endorser_count(const types::BlockId& id,
                                               Height k) const;

 private:
  void on_round_tick();
  void schedule_tick(SimTime at);
  void propose();
  void maybe_vote(const types::Block& block);
  void try_certify(const types::BlockId& id);
  /// Marks a block certified (obs, longest-tip update, commit checks) —
  /// shared by the vote-quorum path and the sync certificate path.
  void mark_certified(const types::Block& block);
  void check_commits(const types::BlockId& id);
  void evaluate_triple(const types::Block& middle);
  void maybe_snapshot();

  StreamletConfig config_;
  sim::Scheduler& sched_;
  std::shared_ptr<const crypto::KeyRegistry> registry_;
  crypto::Signer signer_;
  core::Payloads& payloads_;
  Hooks hooks_;
  storage::ReplicaStore* store_;  // null = no persistence

  chain::BlockTree tree_;
  chain::Ledger ledger_;
  /// Kernel pieces: voted-fork frontier (height markers), k-endorser
  /// strength accounting, commit-chain walks, sync policy.
  core::VoteHistory history_;
  std::unique_ptr<core::StrengthTracker> endorsements_;
  core::Committer committer_;
  obs::LifecycleProbe probe_;
  core::SyncClient sync_;
  Round round_ = 0;
  bool stopped_ = false;
  bool voted_this_round_ = false;
  /// Highest round this replica ever voted in (durable via store_): the
  /// restart equivocation fence.
  Round voted_round_ = 0;
  /// Restored-but-not-yet-synced: suppress voting (the longest certified
  /// chain known locally is stale until a peer responds).
  bool awaiting_sync_ = false;
  /// One orphan-repair timer at a time (see on_proposal).
  bool orphan_repair_armed_ = false;
  /// Dissemination: this round's proposal, vote deferred until its batches
  /// arrive (vote-availability gate). Cleared on every round tick.
  std::optional<types::Block> awaiting_batches_;
  sim::TimerId tick_timer_ = sim::kInvalidTimer;

  /// Verified-vote / certificate memo (obs-instrumented); one per replica.
  crypto::VerifyCache cache_;

  /// votes per block (by voter), and the certified set.
  std::unordered_map<types::BlockId, std::map<ReplicaId, SVote>> votes_;
  std::unordered_set<types::BlockId> certified_;
  /// Verified certificates received via sync, kept so this replica can
  /// re-serve sync even though it never saw the individual votes.
  std::unordered_map<types::BlockId, SCert> certs_;

  /// Vote-arrival ordinals per block (the paper's strength clock): when the
  /// (f+1)-th / (2f+1)-th distinct vote landed locally. Every replica
  /// tallies in Streamlet, so every replica carries its own clock; entries
  /// are consumed (erased) at certification. Filled only when obs is on.
  std::unordered_map<types::BlockId, obs::VoteClock> vote_clock_;

  /// Longest certified tip (ties broken by lower id for determinism).
  types::BlockId longest_tip_{};
  Height longest_height_ = 0;

  /// committed strength already reached per middle block (ratchet).
  std::unordered_map<types::BlockId, std::uint32_t> triple_strength_;
};

}  // namespace sftbft::streamlet
