// The chained-BFT SFT kernel (paper Secs. 2.2, 3.2, 3.4).
//
// One class implements the whole responsive chained-QC family — propose /
// vote / QC aggregation / pacemaker round sync / timeout certificates —
// plus the SFT machinery the paper layers on generically: strong-votes
// against a single VoteHistory, strength accounting (StrengthTracker),
// Sec.-5 commit-Log sealing, commit-chain walks (Committer), block sync
// (SyncClient), and the audit tap. Block payloads come from and return to
// core::Payloads, which alone knows whether they travel inline or as batch
// digests. A concrete protocol is one voting predicate over this kernel
// (CoreConfig::safe_to_vote):
//
//   * DiemBFT (diembft_safe_to_vote — the default): Fig. 2 voting rule,
//     parent.round >= r_lock;
//   * chained HotStuff (hotstuff::safe_to_vote): the original HotStuff
//     liveness rule — vote iff the block extends the locked block OR its
//     QC ranks higher than the lock.
//
// Within one protocol, three variants are selected by CoreMode:
//   * Plain        — the unmodified base protocol: plain votes, regular
//                    3-chain commit only;
//   * SftMarker    — SFT strong-votes carry one marker (Fig. 4), strong
//                    3-chain rule commits at strengths x in [f, 2f];
//   * SftIntervals — Sec.-3.4 generalization: strong-votes carry an
//                    endorsed interval set, buying liveness under Byzantine
//                    (not just crash) faults (Theorem 3).
// Sharing every other code path is what makes the plain-vs-SFT and
// protocol-vs-protocol comparisons in bench/ apples-to-apples.
//
// The core is transport-agnostic: outbound traffic goes through Hooks, and
// inbound messages are fed to on_proposal / on_vote / on_timeout_msg. The
// replica module wires it to the network under the kernel's wire tags,
// which every chained protocol shares.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sftbft/chain/block_tree.hpp"
#include "sftbft/chain/ledger.hpp"
#include "sftbft/common/types.hpp"
#include "sftbft/consensus/leader_election.hpp"
#include "sftbft/consensus/pacemaker.hpp"
#include "sftbft/core/block_sync.hpp"
#include "sftbft/core/committer.hpp"
#include "sftbft/core/payloads.hpp"
#include "sftbft/core/safety.hpp"
#include "sftbft/core/strength.hpp"
#include "sftbft/core/vote_history.hpp"
#include "sftbft/crypto/signature.hpp"
#include "sftbft/crypto/verify_cache.hpp"
#include "sftbft/net/envelope.hpp"
#include "sftbft/obs/lifecycle.hpp"
#include "sftbft/sim/scheduler.hpp"
#include "sftbft/storage/replica_store.hpp"
#include "sftbft/types/proposal.hpp"

namespace sftbft::core {

enum class CoreMode {
  Plain,         ///< the unmodified base protocol
  SftMarker,     ///< SFT with one marker (Fig. 4)
  SftIntervals,  ///< SFT with interval votes (Sec. 3.4)
};

/// DiemBFT's Fig. 2 locking check — the kernel's default voting predicate:
/// the parent (whose round the embedded QC carries) must be at least as
/// recent as the lock. Exported so tests can exercise it directly; there is
/// exactly one implementation.
[[nodiscard]] bool diembft_safe_to_vote(const types::Block& block,
                                        const SafetyRules& safety,
                                        const chain::BlockTree& tree);

struct CoreConfig {
  ReplicaId id = 0;
  std::uint32_t n = 4;
  CoreMode mode = CoreMode::SftMarker;
  CountingRule counting = CountingRule::Sft;
  /// The one predicate where chained protocols differ: the locking check
  /// of the voting rule, evaluated after the universal SafetyRules
  /// preconditions (r > r_vote, rounds increase). DiemBFT's Fig. 2 rule by
  /// default; hotstuff::safe_to_vote selects chained HotStuff.
  bool (*safe_to_vote)(const types::Block& block, const SafetyRules& safety,
                       const chain::BlockTree& tree) = &diembft_safe_to_vote;

  /// Round timer (Fig. 2 "predefined duration").
  SimDuration base_timeout = millis(3000);

  /// Modelled leader-side processing (block execution, batching, signature
  /// checks) between QC availability and the proposal broadcast. This is the
  /// calibration constant that puts absolute latencies in the paper's range
  /// (see README.md "Calibration"); shapes do not depend on it.
  SimDuration leader_processing = 0;

  /// Fig. 8 knob: after reaching 2f + 1 votes the leader waits this long,
  /// folding any further votes into the strong-QC ("QC diversity").
  /// Called per round; return 0 for no wait. May be empty.
  std::function<SimDuration(Round)> extra_wait;

  /// Max transactions per block (paper: ~1000).
  std::size_t max_batch = 1000;

  /// Interval-vote window (Sec. 3.4): 0 = full history [1, r].
  Round interval_window = 0;

  /// Sec. 5: attach strong-commit Log entries to proposals, and verify the
  /// Logs of received proposals before voting. One switch: a replica that
  /// attaches Logs also verifies them.
  bool attach_commit_log = true;

  /// Verify signatures on inbound messages. On by default; large-n sweeps
  /// may disable to trade fidelity for wall-clock (noted per experiment).
  bool verify_signatures = true;

  /// Appendix-B FBFT baseline: the leader multicasts votes that arrive after
  /// its QC sealed, and every replica counts *direct* votes per block toward
  /// the strong commit rule (quadratic messages — the comparator for
  /// bench/tab_msg_complexity). Use with mode == Plain.
  bool fbft_mode = false;

  /// Observability hub (metrics + trace + flight recorder), stamped by the
  /// Deployment; null = off (every instrumentation site is one pointer
  /// check). Must outlive the core.
  obs::Observer* observer = nullptr;

  [[nodiscard]] std::uint32_t f() const { return (n - 1) / 3; }
  [[nodiscard]] std::uint32_t quorum() const { return 2 * f() + 1; }
};

/// A Proposal with the receiver-independent parts of checking it, each
/// computed on first use: the block-id and Log-digest verdicts, the
/// proposer signature's digest and MAC, and the QC's and TC's memo keys and
/// refold verdicts. of() builds one per net::Envelope, so the receivers of
/// a broadcast share one decode and one of each check; each receiver still
/// runs every check in order against its own state (leader, quorum,
/// VerifyCache bookkeeping), so verdicts and cache counters are those of a
/// private check. Immutable but for the memo, which only ever describes
/// the proposal it holds.
class CheckedProposal {
 public:
  explicit CheckedProposal(types::Proposal proposal)
      : proposal_(std::move(proposal)) {}

  /// The checked proposal of `env` (a kProposal envelope), decoded on first
  /// use. Throws CodecError on a malformed payload.
  static const CheckedProposal& of(const net::Envelope& env);

  [[nodiscard]] const types::Proposal& msg() const { return proposal_; }

  /// Block::id_is_valid().
  [[nodiscard]] bool id_valid() const;
  /// The sealed Log digest matches the Log shipped.
  [[nodiscard]] bool log_digest_valid() const;
  /// The proposer's signature over the signing bytes (see
  /// KeyRegistry::verify); signer identity is the caller's check.
  [[nodiscard]] bool signature_valid(const crypto::KeyRegistry& registry,
                                     crypto::VerifyCache* cache) const;
  [[nodiscard]] bool qc_valid(const crypto::KeyRegistry& registry,
                              std::size_t quorum,
                              crypto::VerifyCache* cache) const;
  /// The TC's verify(); call only when the proposal carries one.
  [[nodiscard]] bool tc_valid(const crypto::KeyRegistry& registry,
                              std::size_t quorum,
                              crypto::VerifyCache* cache) const;

 private:
  types::Proposal proposal_;
  mutable std::optional<bool> id_valid_;
  mutable std::optional<bool> log_digest_valid_;
  mutable std::optional<Bytes> signing_bytes_;
  mutable crypto::MacWork sig_work_;
  mutable types::CertWork qc_work_;
  mutable types::TimeoutCert::Work tc_work_;
};

/// A TimeoutMsg with the receiver-independent parts of checking it, each
/// computed on first use: the sender signature's digest and MAC, and the
/// high QC's memo key and refold verdict. Shared per net::Envelope like
/// CheckedProposal; a receiver that keeps the message holds the one
/// decoded copy (shared()) instead of its own.
class CheckedTimeout {
 public:
  explicit CheckedTimeout(types::TimeoutMsg msg)
      : msg_(std::make_shared<const types::TimeoutMsg>(std::move(msg))) {}

  /// The checked timeout of `env` (a kTimeout envelope), decoded on first
  /// use. Throws CodecError on a malformed payload.
  static const CheckedTimeout& of(const net::Envelope& env);

  [[nodiscard]] const types::TimeoutMsg& msg() const { return *msg_; }
  [[nodiscard]] const std::shared_ptr<const types::TimeoutMsg>& shared()
      const {
    return msg_;
  }

  [[nodiscard]] bool signature_valid(const crypto::KeyRegistry& registry,
                                     crypto::VerifyCache* cache) const;
  [[nodiscard]] bool high_qc_valid(const crypto::KeyRegistry& registry,
                                   std::size_t quorum,
                                   crypto::VerifyCache* cache) const;

 private:
  std::shared_ptr<const types::TimeoutMsg> msg_;
  mutable std::optional<Bytes> signing_bytes_;
  mutable crypto::MacWork sig_work_;
  mutable types::CertWork high_qc_work_;
};

class ChainedCore {
 public:
  struct Hooks {
    std::function<void(ReplicaId to, const types::Vote&)> send_vote;
    std::function<void(const types::Proposal&)> broadcast_proposal;
    std::function<void(const types::TimeoutMsg&)> broadcast_timeout;
    /// FBFT baseline only: multicast of a late extra vote (Appendix B).
    std::function<void(const types::Vote&)> broadcast_extra_vote;
    /// Fired whenever a block's committed strength first reaches a level
    /// (`strength` = x; the regular commit surfaces as x = f).
    std::function<void(const types::Block&, std::uint32_t strength,
                       SimTime now)>
        on_commit;
    /// Crash recovery: block-sync traffic (see types::SyncRequest). May be
    /// empty when the deployment has no persistent replicas.
    std::function<void(ReplicaId to, const types::SyncRequest&)>
        send_sync_request;
    std::function<void(ReplicaId to, const types::SyncResponse&)>
        send_sync_response;
    /// Auditing tap (harness::SafetyAuditor): fired for every canonical QC
    /// this replica processes, together with the certified block, *before*
    /// the local strength tracker consumes it — so a global observer is
    /// always at least as informed as the replica whose commit claims it is
    /// auditing. May be empty.
    std::function<void(const types::Block&, const types::QuorumCert&)>
        on_canonical_qc;
  };

  /// `store` (optional) enables durability: the safety envelope is WAL'd as
  /// it changes and the ledger snapshotted on the store's cadence, making
  /// the core restorable via restore() after a crash. `payloads` must
  /// outlive the core.
  ChainedCore(CoreConfig config, sim::Scheduler& sched,
              std::shared_ptr<const crypto::KeyRegistry> registry,
              Payloads& payloads, Hooks hooks,
              storage::ReplicaStore* store = nullptr);

  /// Enters round 1 (the round-1 leader proposes off genesis).
  void start();

  /// Simulates a crash: stop timers and ignore all future events.
  void stop();

  /// Crash recovery: rebuilds the core from durable state — tree re-rooted
  /// at the snapshot tip, ledger restored verbatim, SafetyRules seeded with
  /// the WAL's voted round (so the replica can never vote twice in a round,
  /// even before it re-learns the blocks it voted for), VoteHistory frontier
  /// re-imported, pacemaker resumed at the recovered high-QC round. Call
  /// request_sync() afterwards to fetch missed blocks from peers.
  void restore(const storage::RecoveredState& state);

  /// Asks a small rotating window of peers for blocks above the local tree
  /// root, retrying on the SyncClient's watchdog until caught up.
  void request_sync();

  /// Re-runs the vote path for proposals parked on missing batches (call
  /// when new batches arrive). Entries that fell behind the current round
  /// are dropped — their round can no longer be voted anyway.
  void retry_awaiting_payloads();

  [[nodiscard]] bool stopped() const { return stopped_; }

  // --- inbound ---
  /// The message forms wrap the message in its checked view; the host
  /// passes the view it shares among a broadcast's receivers.
  void on_proposal(const types::Proposal& proposal);
  void on_proposal(const CheckedProposal& checked);
  void on_vote(const types::Vote& vote);
  void on_timeout_msg(const types::TimeoutMsg& msg);
  void on_timeout_msg(const CheckedTimeout& checked);
  void on_sync_request(const types::SyncRequest& req);
  void on_sync_response(const types::SyncResponse& resp);

  // --- introspection (tests, metrics, light clients) ---
  [[nodiscard]] const CoreConfig& config() const { return config_; }
  [[nodiscard]] Round current_round() const { return pacemaker_.current_round(); }
  [[nodiscard]] const chain::BlockTree& tree() const { return tree_; }
  [[nodiscard]] const chain::Ledger& ledger() const { return ledger_; }
  [[nodiscard]] const SafetyRules& safety() const { return safety_; }
  [[nodiscard]] const StrengthTracker* strength() const {
    return tracker_ ? tracker_.get() : nullptr;
  }
  [[nodiscard]] const VoteHistory& vote_history() const { return history_; }
  /// Proposals this replica broadcast (ordered); used by light clients to
  /// fetch certified Logs.
  [[nodiscard]] const std::vector<types::Proposal>& sent_proposals() const {
    return sent_proposals_;
  }
  /// Accepted proposals whose Sec.-5 commit Log is non-empty, by block id —
  /// the raw material for light-client proofs.
  [[nodiscard]] const std::unordered_map<types::BlockId, types::Proposal>&
  logged_proposals() const {
    return logged_proposals_;
  }
  /// Rounds holding timeout messages that have not yet formed a TC.
  [[nodiscard]] std::size_t pending_timeout_rounds() const {
    return timeouts_.size();
  }

 private:
  // --- proposing (Fig. 2 proposing rule) ---
  void on_round_entered(Round round);
  void propose(Round round);

  // --- voting (Fig. 2 voting rule + Fig. 4 strong-vote) ---
  [[nodiscard]] bool safe_to_vote(const types::Block& block) const;
  void maybe_vote(const types::Block& block);
  [[nodiscard]] types::Vote build_vote(const types::Block& block);

  // --- QC handling (locking rule, commit rules, round sync) ---
  /// `canonical` — QC is embedded in a chain block (or formed by this
  /// leader) and may feed the strength tracker; timeout-borne QCs are
  /// observed for locking/sync only (keeps endorser sets identical across
  /// replicas for commit-log verification).
  void observe_qc(const types::QuorumCert& qc, bool canonical);
  void check_regular_commit(const types::QuorumCert& qc);
  void apply_strength_updates(const std::vector<StrengthUpdate>& updates);

  // --- vote aggregation (next-round leader) ---
  void add_to_aggregator(const types::Vote& vote);
  void try_finalize_qc(Round round, const types::BlockId& block_id);
  void finalize_qc(Round round, const types::BlockId& block_id);

  // --- FBFT baseline (Appendix B) ---
  void ingest_direct_vote(const types::Vote& vote);
  void fbft_handle_late_vote(const types::Vote& vote);

  // --- timeouts (Fig. 2 timeout rule) ---
  void on_local_timeout(Round round);
  void add_timeout(const std::shared_ptr<const types::TimeoutMsg>& shared);

  // --- validation ---
  [[nodiscard]] bool validate_proposal(const CheckedProposal& checked) const;
  [[nodiscard]] bool validate_commit_log(const types::Proposal& proposal);
  void process_pending_proposals(const types::BlockId& parent_id);

  // --- durability (no-ops when store_ == nullptr) ---
  void persist_vote(const types::Block* block, Round round);
  /// Records `qc` when it raised qc_high *or* the locked round past their
  /// persisted watermarks (a QC below qc_high can still raise the lock, and
  /// a regressed lock across restart breaks the Fig. 2 locking rule).
  void persist_qc_watermarks(const types::QuorumCert& qc, Round prev_high);
  void maybe_snapshot();

  CoreConfig config_;
  sim::Scheduler& sched_;
  std::shared_ptr<const crypto::KeyRegistry> registry_;
  /// Verification memo for inbound votes and certificates (mutable: memo
  /// lookups happen on const validation paths and never change semantics).
  mutable crypto::VerifyCache cache_;
  crypto::Signer signer_;
  Payloads& payloads_;
  Hooks hooks_;

  consensus::LeaderElection election_;
  chain::BlockTree tree_;
  chain::Ledger ledger_;
  SafetyRules safety_;
  VoteHistory history_;
  consensus::Pacemaker pacemaker_;
  Committer committer_;
  obs::LifecycleProbe probe_;
  SyncClient sync_;
  std::unique_ptr<StrengthTracker> tracker_;  // null in Plain mode
  storage::ReplicaStore* store_;  // null = no persistence

  bool stopped_ = false;

  /// Post-restore grace: accept proposals' Sec.-5 commit logs without local
  /// re-derivation below this round. The strength tracker is rebuilt from
  /// synced QCs and cannot justify strengths accumulated before the
  /// snapshot tip; commit logs only feed light-client material (never the
  /// ledger), so trusting them briefly is liveness-critical and safety-free.
  Round trust_commit_log_below_ = 0;

  /// Highest locked round already durable (avoids re-recording every QC).
  Round persisted_locked_round_ = 0;

  /// One orphan-repair timer at a time (see on_proposal's orphan branch).
  bool orphan_repair_armed_ = false;

  // Vote aggregation for rounds this replica leads (round -> block -> votes).
  struct PendingVotes {
    std::map<ReplicaId, types::Vote> by_voter;
    sim::TimerId extra_wait_timer = sim::kInvalidTimer;
    bool finalized = false;
    obs::VoteClock clock;
  };
  std::map<Round, std::unordered_map<types::BlockId, PendingVotes>> votes_;

  /// Highest round whose QC this replica sealed as collector — votes at or
  /// below it are "late" (lost in SFT; multicast in the FBFT baseline).
  Round last_sealed_round_ = 0;

  // Timeout aggregation (round -> sender -> msg). The messages are the
  // broadcasts' shared decoded copies (CheckedTimeout::shared).
  std::map<Round,
           std::map<ReplicaId, std::shared_ptr<const types::TimeoutMsg>>>
      timeouts_;
  std::optional<types::TimeoutCert> last_tc_;

  // Proposals whose parent has not arrived yet.
  std::unordered_map<types::BlockId, std::vector<types::Proposal>>
      pending_proposals_;

  // Dissemination: blocks inserted in the tree but not voted because a
  // referenced batch had not arrived (vote-availability gate). Keyed by
  // block id; retry_awaiting_payloads re-runs maybe_vote when batches land.
  std::unordered_map<types::BlockId, types::Block> awaiting_batches_;

  // Sec. 5: per-QC strength updates, embedded into the next own proposal.
  std::unordered_map<crypto::Sha256Digest, std::vector<StrengthUpdate>>
      qc_updates_;

  std::vector<types::Proposal> sent_proposals_;

  // Sec. 5: accepted proposals carrying commit-log entries, by block id.
  std::unordered_map<types::BlockId, types::Proposal> logged_proposals_;

  // The payload of the block this replica last proposed but that never got
  // certified (requeued on timeout).
  std::optional<std::pair<Round, types::Payload>> last_proposed_payload_;

  /// Blocks whose certification was already counted/traced — observe_qc
  /// legitimately replays canonical QCs on the sync path, and replays must
  /// not double-count. Populated only when an observer is attached.
  std::unordered_set<types::BlockId> obs_certified_;
};

}  // namespace sftbft::core
