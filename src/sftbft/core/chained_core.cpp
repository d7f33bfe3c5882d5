#include "sftbft/core/chained_core.hpp"

#include <algorithm>
#include <cassert>

#include "sftbft/common/logging.hpp"

namespace sftbft::core {

using consensus::Pacemaker;
using consensus::PacemakerConfig;
using types::Block;
using types::BlockId;
using types::Proposal;
using types::QuorumCert;
using types::TimeoutCert;
using types::TimeoutMsg;
using types::Vote;
using types::VoteMode;

// ------------------------------------------------------------ checked views

const CheckedProposal& CheckedProposal::of(const net::Envelope& env) {
  return env.derived<CheckedProposal>([](const net::Envelope& e) {
    return CheckedProposal(e.unpack<Proposal>());
  });
}

bool CheckedProposal::id_valid() const {
  if (!id_valid_) id_valid_ = proposal_.block.id_is_valid();
  return *id_valid_;
}

bool CheckedProposal::log_digest_valid() const {
  if (!log_digest_valid_) {
    log_digest_valid_ = proposal_.block.log_digest ==
                        types::commit_log_digest(proposal_.commit_log);
  }
  return *log_digest_valid_;
}

bool CheckedProposal::signature_valid(const crypto::KeyRegistry& registry,
                                      crypto::VerifyCache* cache) const {
  if (!signing_bytes_) signing_bytes_ = proposal_.signing_bytes();
  return registry.verify(proposal_.sig, *signing_bytes_, cache, sig_work_);
}

bool CheckedProposal::qc_valid(const crypto::KeyRegistry& registry,
                               std::size_t quorum,
                               crypto::VerifyCache* cache) const {
  return proposal_.block.qc.verify(registry, quorum, cache, qc_work_);
}

bool CheckedProposal::tc_valid(const crypto::KeyRegistry& registry,
                               std::size_t quorum,
                               crypto::VerifyCache* cache) const {
  return proposal_.tc->verify(registry, quorum, cache, tc_work_);
}

const CheckedTimeout& CheckedTimeout::of(const net::Envelope& env) {
  return env.derived<CheckedTimeout>([](const net::Envelope& e) {
    return CheckedTimeout(e.unpack<TimeoutMsg>());
  });
}

bool CheckedTimeout::signature_valid(const crypto::KeyRegistry& registry,
                                     crypto::VerifyCache* cache) const {
  if (!signing_bytes_) signing_bytes_ = msg_->signing_bytes();
  return registry.verify(msg_->sig, *signing_bytes_, cache, sig_work_);
}

bool CheckedTimeout::high_qc_valid(const crypto::KeyRegistry& registry,
                                   std::size_t quorum,
                                   crypto::VerifyCache* cache) const {
  return msg_->high_qc.verify(registry, quorum, cache, high_qc_work_);
}

// ------------------------------------------------------------------- core

ChainedCore::ChainedCore(CoreConfig config, sim::Scheduler& sched,
                         std::shared_ptr<const crypto::KeyRegistry> registry,
                         Payloads& payloads, Hooks hooks,
                         storage::ReplicaStore* store)
    : config_(config),
      sched_(sched),
      registry_(std::move(registry)),
      cache_(config.observer, config.id),
      signer_(registry_->signer_for(config.id)),
      payloads_(payloads),
      hooks_(std::move(hooks)),
      election_(config.n),
      tree_(),
      history_(tree_),
      pacemaker_(
          sched,
          PacemakerConfig{.base_timeout = config.base_timeout,
                          .observer = config.observer,
                          .id = config.id},
          Pacemaker::Callbacks{
              .on_round_entered = [this](Round r) { on_round_entered(r); },
              .on_local_timeout = [this](Round r) { on_local_timeout(r); }}),
      committer_(tree_, ledger_, payloads, sched, config.observer, config.id,
                 config.f()),
      probe_(config.observer, config.id),
      sync_(SyncClient::Config{.id = config.id,
                               .n = config.n,
                               .retry_after = config.base_timeout,
                               .observer = config.observer},
            sched,
            [this](ReplicaId to, const types::SyncRequest& req) {
              if (hooks_.send_sync_request) hooks_.send_sync_request(to, req);
            },
            [this] {
              // Resume from the highest committed block we actually hold:
              // retries then fetch only the residual gap, not the whole
              // range again.
              Height from = tree_.genesis().height;
              if (const std::optional<Height> tip = ledger_.tip()) {
                if (tree_.contains(ledger_.at(*tip).block_id)) {
                  from = std::max(from, *tip);
                }
              }
              return from;
            },
            [this] {
              // Caught-up means the certified tip is a block we hold and
              // nothing is parked waiting for a missing parent — partial
              // progress is not enough (one block certified while responses
              // were in flight can leave a permanent gap).
              if (stopped_) return true;
              return tree_.contains(safety_.high_qc().block_id) &&
                     pending_proposals_.empty();
            }),
      store_(store) {
  committer_.set_store(store_);
  committer_.set_on_commit(hooks_.on_commit);
  committer_.set_snapshot_hook([this] { maybe_snapshot(); });

  // Seed qc_high with the genesis QC so round-1 proposals extend genesis.
  QuorumCert genesis_qc;
  genesis_qc.block_id = tree_.genesis_id();
  genesis_qc.round = 0;
  genesis_qc.parent_id = BlockId{};
  genesis_qc.parent_round = 0;
  safety_.init_high_qc(genesis_qc);

  if (config_.mode != CoreMode::Plain || config_.fbft_mode) {
    tracker_ = std::make_unique<StrengthTracker>(tree_, config_.n,
                                                 config_.f(),
                                                 config_.counting);
  }
}

void ChainedCore::start() { pacemaker_.start(); }

void ChainedCore::stop() {
  stopped_ = true;
  pacemaker_.stop();
  // Cancel extra-wait timers so a later restore() cannot be surprised by a
  // pre-crash finalize_qc firing against rebuilt state.
  for (auto& [round, per_block] : votes_) {
    for (auto& [block_id, pending] : per_block) {
      sched_.cancel(pending.extra_wait_timer);
      pending.extra_wait_timer = sim::kInvalidTimer;
    }
  }
}

// ------------------------------------------------------------ crash recovery

void ChainedCore::restore(const storage::RecoveredState& state) {
  // Volatile state is rebuilt from scratch; only the durable envelope and
  // the committed ledger survive.
  votes_.clear();
  timeouts_.clear();
  pending_proposals_.clear();
  qc_updates_.clear();
  sent_proposals_.clear();
  logged_proposals_.clear();
  awaiting_batches_.clear();
  obs_certified_.clear();
  last_proposed_payload_.reset();
  last_tc_ = state.high_tc;

  // Tree: re-root at the snapshot tip (its commits are final); without a
  // snapshot, restart from genesis like a fresh replica.
  tree_ = state.tip ? chain::BlockTree::rooted_at(*state.tip)
                    : chain::BlockTree();
  ledger_.restore(state.ledger);

  // Safety: the WAL's voted round is the equivocation fence — r_vote is
  // restored *before* any block is re-learned, so even an adversarial
  // replay of the pre-crash proposal cannot extract a second vote.
  safety_ = SafetyRules();
  QuorumCert root_qc;
  root_qc.block_id = tree_.genesis_id();
  root_qc.round = tree_.genesis().round;
  root_qc.parent_id = tree_.genesis().parent_id;
  root_qc.parent_round = 0;
  safety_.init_high_qc(root_qc);
  if (!state.high_qc.is_genesis()) safety_.observe_qc(state.high_qc);
  safety_.restore_locked_round(state.locked_round);
  safety_.record_vote(state.voted_round);
  last_sealed_round_ = state.voted_round;
  persisted_locked_round_ = safety_.locked_round();
  sync_.reset();

  std::vector<VoteHistory::FrontierEntry> frontier;
  frontier.reserve(state.frontier.size());
  for (const storage::VoteRecord& record : state.frontier) {
    frontier.push_back({record.block_id, record.round, record.height});
  }
  history_.from_records(std::move(frontier));

  if (config_.mode != CoreMode::Plain || config_.fbft_mode) {
    tracker_ = std::make_unique<StrengthTracker>(tree_, config_.n,
                                                 config_.f(),
                                                 config_.counting);
  }
  // The rebuilt tracker cannot justify pre-crash strengths; trust peers'
  // commit logs for one leader rotation past the recovered frontier.
  trust_commit_log_below_ = state.high_qc.round + config_.n + 1;

  stopped_ = false;
  // Resume strictly past every durable round watermark — voted rounds, the
  // high QC, and any TC (entering a round via a TC persisted it), so the
  // replica cannot re-enter a round it already acted in as leader.
  Round resume_past = std::max<Round>(state.high_qc.round, state.voted_round);
  if (state.high_tc) resume_past = std::max(resume_past, state.high_tc->round);
  pacemaker_.resume(resume_past + 1);
}

void ChainedCore::request_sync() {
  if (!hooks_.send_sync_request || stopped_) return;
  sync_.request();
}

void ChainedCore::on_sync_request(const types::SyncRequest& req) {
  if (stopped_ || !hooks_.send_sync_response) return;
  // The requester id comes off the wire: reply only to a real peer.
  if (req.requester >= config_.n || req.requester == config_.id) return;
  const QuorumCert& high_qc = safety_.high_qc();
  auto chain_blocks =
      collect_chain(tree_, high_qc.block_id, req.from_height);
  if (!chain_blocks) return;  // rooted above the requested height
  types::SyncResponse resp;
  resp.blocks = std::move(*chain_blocks);
  resp.high_qc = high_qc;
  hooks_.send_sync_response(req.requester, resp);
}

void ChainedCore::on_sync_response(const types::SyncResponse& resp) {
  if (stopped_) return;
  // Validate the chain without trusting the responder: each block's embedded
  // QC certifies its parent; the final block is certified by resp.high_qc.
  for (std::size_t i = 0; i < resp.blocks.size(); ++i) {
    const Block& block = resp.blocks[i];
    if (!block.id_is_valid()) return;
    if (block.qc.block_id != block.parent_id) return;
    const QuorumCert& cert = i + 1 < resp.blocks.size()
                                 ? resp.blocks[i + 1].qc
                                 : resp.high_qc;
    if (cert.block_id != block.id) return;
    if (config_.verify_signatures &&
        !cert.verify(*registry_, config_.quorum(), &cache_)) {
      return;
    }
  }
  for (const Block& block : resp.blocks) {
    if (tree_.insert(block) != chain::BlockTree::InsertResult::Inserted) {
      continue;  // duplicate (another peer answered first) or orphan
    }
    // Synced blocks are already certified — no vote gate, but their digest
    // payloads may reference batches that never reached this replica (it was
    // down during dissemination). Kick the pull protocol for them.
    payloads_.fetch(block.payload);
    // Chain-embedded QCs are canonical: peers processed them through their
    // strength trackers when the blocks first arrived, so replaying them
    // here keeps endorser sets consistent across replicas (Sec. 5).
    observe_qc(block.qc, /*canonical=*/true);
    process_pending_proposals(block.id);
  }
  // The top QC advances locking/round state but is not canonical — it will
  // arrive embedded in the next proposal, like a timeout-borne QC. It must
  // be verified on its own: with resp.blocks empty (or all duplicates) the
  // chain loop above never checked it, and an unverified QC here would let
  // any peer forge qc_high / lock state onto a replica.
  if (!resp.high_qc.is_genesis() && tree_.contains(resp.high_qc.block_id)) {
    if (config_.verify_signatures &&
        !resp.high_qc.verify(*registry_, config_.quorum(), &cache_)) {
      return;
    }
    observe_qc(resp.high_qc, /*canonical=*/false);
    pacemaker_.advance_to(resp.high_qc.round + 1);
  }
}

// ---------------------------------------------------------------- proposing

void ChainedCore::on_round_entered(Round round) {
  if (stopped_) return;
  // Fig. 2 timeout rule: entering round r stops voting for rounds < r.
  safety_.forbid_votes_below(round);
  if (election_.leader_of(round) != config_.id) return;
  // Model leader-side processing (execution/batching) before proposing.
  sched_.schedule_after(config_.leader_processing, [this, round] {
    if (!stopped_ && pacemaker_.current_round() == round) propose(round);
  });
}

void ChainedCore::propose(Round round) {
  const log::Scope log_scope(sched_.now(), config_.id);
  const QuorumCert& high_qc = safety_.high_qc();
  const Block* parent = tree_.get(high_qc.block_id);
  if (parent == nullptr) {
    // qc_high references a block we never received (possible only under
    // Byzantine schedules — e.g. the certified side of an equivocation was
    // withheld from us); without the parent we cannot extend it. Fetch the
    // missing chain so a later leadership round can produce a block again —
    // timeout/vote-borne QCs can re-wedge us faster than the orphan-repair
    // timer alone heals.
    log::warn("cannot propose in round %llu, parent missing",
              static_cast<unsigned long long>(round));
    request_sync();
    return;
  }

  // The Sec.-5 commit Log is assembled first: its digest is sealed into the
  // block header, so the votes certifying the block also certify the Log (a
  // corrupted proposer cannot swap the Log under a certified block).
  std::vector<types::CommitLogEntry> commit_log;
  if (config_.attach_commit_log && tracker_) {
    auto it = qc_updates_.find(high_qc.digest());
    if (it != qc_updates_.end()) {
      for (const StrengthUpdate& update : it->second) {
        commit_log.push_back(
            {update.block_id, update.round, update.strength});
      }
    }
  }

  Block block;
  block.parent_id = parent->id;
  block.round = round;
  block.height = parent->height + 1;
  block.proposer = config_.id;
  block.qc = high_qc;
  block.payload = payloads_.make(config_.max_batch, sched_.now());
  block.log_digest = types::commit_log_digest(commit_log);
  block.created_at = sched_.now();
  block.seal();

  Proposal proposal;
  proposal.block = block;
  if (last_tc_ && last_tc_->round + 1 == round) proposal.tc = last_tc_;
  proposal.commit_log = std::move(commit_log);
  proposal.sig = signer_.sign(proposal.signing_bytes());

  last_proposed_payload_ = {round, block.payload};
  sent_proposals_.push_back(proposal);
  probe_.proposed(block, sched_.now(), payloads_.pending());
  hooks_.broadcast_proposal(proposal);
}

// ------------------------------------------------------------------- voting

void ChainedCore::on_proposal(const Proposal& proposal) {
  on_proposal(CheckedProposal(proposal));
}

void ChainedCore::on_proposal(const CheckedProposal& checked) {
  if (stopped_) return;
  const log::Scope log_scope(sched_.now(), config_.id);
  if (!validate_proposal(checked)) return;
  const Proposal& proposal = checked.msg();
  const Block& block = proposal.block;

  // Fig. 2: replicas act on proposals "during round r" — a proposal for a
  // round we have already moved past is discarded outright, QC included.
  // This is what keeps an outcast leader's late block (and the strong-votes
  // inside its QC) out of every honest replica's bookkeeping, producing the
  // paper's δ = 200 ms asymmetric behaviour: "any strong-QC in the
  // blockchain never contains strong-votes from replicas in C" (Sec. 4.1).
  if (block.round < pacemaker_.current_round()) return;

  if (tree_.contains(block.id)) return;  // duplicate

  const Block* parent = tree_.get(block.parent_id);
  if (parent == nullptr) {
    pending_proposals_[block.parent_id].push_back(proposal);
    // Orphan repair: under an equivocating leader (Appendix C) this replica
    // may have seen only the losing fork — the winning block never arrives
    // on its own, and without it every later proposal is orphaned too. If
    // the parent is still missing after a round timeout, fall back to the
    // block-sync protocol (the same machinery crash recovery uses).
    if (!orphan_repair_armed_) {
      orphan_repair_armed_ = true;
      sched_.schedule_after(config_.base_timeout, [this,
                                                   parent_id = block.parent_id] {
        orphan_repair_armed_ = false;
        if (stopped_ || tree_.contains(parent_id)) return;
        if (pending_proposals_.contains(parent_id)) request_sync();
      });
    }
    return;
  }

  // Structural checks against the parent: heights chain, rounds increase,
  // and the embedded QC really certifies the parent.
  if (block.height != parent->height + 1 || block.round <= parent->round ||
      block.qc.block_id != block.parent_id ||
      block.qc.round != parent->round ||
      block.qc.parent_id != parent->parent_id ||
      block.qc.parent_round != parent->qc.round) {
    return;
  }

  const auto inserted = tree_.insert(block);
  if (inserted != chain::BlockTree::InsertResult::Inserted) return;

  probe_.received(block, sched_.now());

  // Locking rule + SFT endorsements + commit rules + Sec. 5 cache.
  observe_qc(block.qc, /*canonical=*/true);

  // A quorum of votes may have raced ahead of the proposal (we lead the
  // next round): the QC can be finalized now that the block is known.
  try_finalize_qc(block.round, block.id);

  // TC justification (round sync after timeouts). Persisted before the
  // round advance: every round-entry path must leave a durable watermark,
  // or a restart could re-enter (and re-propose in) a round it already led.
  if (proposal.tc) {
    observe_qc(proposal.tc->highest_qc(), /*canonical=*/false);
    if (store_ && (!last_tc_ || proposal.tc->round > last_tc_->round)) {
      store_->record_high_tc(*proposal.tc);
    }
    pacemaker_.advance_to(proposal.tc->round + 1);
  }

  // Synchronization rule: the embedded QC advances us into this round.
  pacemaker_.advance_to(block.qc.round + 1);

  // Sec. 5: refuse to vote for proposals overstating commit strengths.
  if (!validate_commit_log(proposal)) {
    log::warn("rejecting proposal with overstated commit log");
    return;
  }

  if (!proposal.commit_log.empty()) {
    logged_proposals_.emplace(block.id, proposal);
  }

  // Vote-availability gate (dissemination mode): never vote for a block
  // whose referenced batches we do not hold — a strong-QC then proves 2f+1
  // replicas can materialize the payload at commit time. The control plane
  // above (tree insert, QC observation, round sync) proceeded normally;
  // only this replica's vote waits for the data plane.
  if (!payloads_.available(block.payload, sched_.now())) {
    awaiting_batches_.emplace(block.id, block);
    payloads_.fetch(block.payload);
  } else {
    maybe_vote(block);
  }

  process_pending_proposals(block.id);
}

void ChainedCore::retry_awaiting_payloads() {
  if (stopped_ || awaiting_batches_.empty()) return;
  std::vector<types::Block> ready;
  for (auto it = awaiting_batches_.begin(); it != awaiting_batches_.end();) {
    if (it->second.round < pacemaker_.current_round()) {
      it = awaiting_batches_.erase(it);  // stale — no longer votable
    } else if (payloads_.available(it->second.payload, sched_.now())) {
      ready.push_back(it->second);
      it = awaiting_batches_.erase(it);
    } else {
      ++it;
    }
  }
  // maybe_vote re-checks round/voted state itself, so a parked block whose
  // moment has passed is a silent no-op.
  for (const types::Block& block : ready) {
    probe_.payload_ready(block, sched_.now());
    maybe_vote(block);
  }
}

bool diembft_safe_to_vote(const Block& block, const SafetyRules& safety,
                          const chain::BlockTree& /*tree*/) {
  // block.qc certifies the parent, so qc.round is the parent's round.
  return block.qc.round >= safety.locked_round();
}

bool ChainedCore::safe_to_vote(const Block& block) const {
  return safety_.can_vote(block) &&
         config_.safe_to_vote(block, safety_, tree_);
}

void ChainedCore::maybe_vote(const Block& block) {
  if (block.round != pacemaker_.current_round() || pacemaker_.timed_out()) {
    return;
  }
  if (!safe_to_vote(block)) return;

  const Vote vote = build_vote(block);
  safety_.record_vote(block.round);
  history_.record_vote(block);
  // WAL before wire: the vote must be durable before it can reach anyone,
  // or a crash-restart could vote twice in the round.
  persist_vote(&block, block.round);
  probe_.voted(block, sched_.now());
  hooks_.send_vote(election_.leader_of(block.round + 1), vote);
}

Vote ChainedCore::build_vote(const Block& block) {
  Vote vote;
  vote.block_id = block.id;
  vote.round = block.round;
  vote.voter = config_.id;
  switch (config_.mode) {
    case CoreMode::Plain:
      vote.mode = VoteMode::Plain;
      break;
    case CoreMode::SftMarker:
      vote.mode = VoteMode::Marker;
      vote.marker = history_.marker_for(block);
      break;
    case CoreMode::SftIntervals:
      vote.mode = VoteMode::Intervals;
      vote.endorsed = history_.intervals_for(block, config_.interval_window);
      break;
  }
  vote.sig = signer_.sign(vote.signing_bytes());
  return vote;
}

// ------------------------------------------------------------- QC handling

void ChainedCore::observe_qc(const QuorumCert& qc, bool canonical) {
  const Round prev_high = safety_.high_qc().round;
  safety_.observe_qc(qc);
  persist_qc_watermarks(qc, prev_high);
  if (canonical && hooks_.on_canonical_qc && !qc.is_genesis()) {
    if (const Block* certified = tree_.get(qc.block_id)) {
      hooks_.on_canonical_qc(*certified, qc);
    }
  }
  if (probe_.enabled() && canonical && !qc.is_genesis()) {
    if (const Block* certified = tree_.get(qc.block_id);
        certified != nullptr && obs_certified_.insert(qc.block_id).second) {
      probe_.certified(*certified, sched_.now());
    }
  }
  if (canonical && tracker_) {
    const auto updates = tracker_->process_qc(qc);
    qc_updates_.emplace(qc.digest(), updates);  // keep first (non-reprocessed)
    apply_strength_updates(updates);
  }
  check_regular_commit(qc);

  // Our proposed block got certified: its payload is safely in flight.
  if (last_proposed_payload_ && qc.round == last_proposed_payload_->first) {
    last_proposed_payload_.reset();
  }
}

void ChainedCore::check_regular_commit(const QuorumCert& qc) {
  // Fig. 2 commit rule, phrased on QC receipt (Fig. 3): a QC for B_{k+2}
  // commits B_k when B_k, B_{k+1}, B_{k+2} have consecutive rounds. The
  // same 3-chain rule decides chained HotStuff's commit (its three phases
  // laid out along the chain), so it is kernel machinery, not a rule slot.
  const Block* top = tree_.get(qc.block_id);
  if (top == nullptr) return;
  const Block* mid = tree_.parent_of(top->id);
  if (mid == nullptr || mid->round + 1 != top->round) return;
  const Block* low = tree_.parent_of(mid->id);
  if (low == nullptr || low->height == 0 || low->round + 1 != mid->round) {
    return;
  }
  committer_.commit_chain(*low, config_.f());
}

void ChainedCore::apply_strength_updates(
    const std::vector<StrengthUpdate>& updates) {
  for (const StrengthUpdate& update : updates) {
    if (const Block* head = tree_.get(update.block_id)) {
      committer_.commit_chain(*head, update.strength);
    }
  }
}

// -------------------------------------------------------- vote aggregation

void ChainedCore::on_vote(const Vote& vote) {
  if (stopped_) return;
  if (config_.verify_signatures &&
      (vote.voter != vote.sig.signer ||
       !registry_->verify(vote.sig, vote.signing_bytes(), &cache_))) {
    return;
  }
  if (election_.leader_of(vote.round + 1) != config_.id) {
    // Not the collector for this round. In the FBFT baseline this is an
    // extra vote multicast by the round's leader: count it directly.
    if (config_.fbft_mode) ingest_direct_vote(vote);
    return;
  }
  if (vote.round <= last_sealed_round_) {
    // Arrived after we sealed the QC for its round. SFT drops it
    // (Sec. 3.2); the FBFT baseline must multicast it (Appendix B).
    if (config_.fbft_mode) fbft_handle_late_vote(vote);
    return;
  }
  add_to_aggregator(vote);
}

void ChainedCore::add_to_aggregator(const Vote& vote) {
  PendingVotes& pending = votes_[vote.round][vote.block_id];
  if (pending.finalized) {
    // QC sealed but round not yet advanced (possible mid-event): same late-
    // vote treatment as above.
    if (config_.fbft_mode) fbft_handle_late_vote(vote);
    return;
  }
  if (pending.by_voter.emplace(vote.voter, vote).second) {
    // The histograms are materialized at finalize_qc, when the block (and
    // its created_at) is guaranteed known.
    pending.clock.note(pending.by_voter.size(), config_.f(), config_.quorum(),
                       sched_.now());
  }
  try_finalize_qc(vote.round, vote.block_id);
}

void ChainedCore::ingest_direct_vote(const Vote& vote) {
  if (!tracker_) return;
  apply_strength_updates(tracker_->process_extra_vote(vote));
}

void ChainedCore::fbft_handle_late_vote(const Vote& vote) {
  if (hooks_.broadcast_extra_vote) hooks_.broadcast_extra_vote(vote);
  ingest_direct_vote(vote);
}

void ChainedCore::try_finalize_qc(Round round, const BlockId& block_id) {
  auto round_it = votes_.find(round);
  if (round_it == votes_.end()) return;
  auto block_it = round_it->second.find(block_id);
  if (block_it == round_it->second.end()) return;
  PendingVotes& pending = block_it->second;

  if (pending.finalized) return;
  if (pending.by_voter.size() < config_.quorum()) return;
  if (!tree_.contains(block_id)) return;  // wait for the proposal

  const SimDuration wait =
      config_.extra_wait ? config_.extra_wait(round) : SimDuration{0};
  if (wait > 0) {
    // Fig. 8: hold the QC open to fold in late votes (QC diversity).
    if (pending.extra_wait_timer == sim::kInvalidTimer) {
      pending.extra_wait_timer = sched_.schedule_after(
          wait, [this, round, block_id] { finalize_qc(round, block_id); });
    }
    return;
  }
  finalize_qc(round, block_id);
}

void ChainedCore::finalize_qc(Round round, const BlockId& block_id) {
  PendingVotes& pending = votes_[round][block_id];
  if (pending.finalized || stopped_) return;
  pending.finalized = true;
  if (round > last_sealed_round_) last_sealed_round_ = round;
  sched_.cancel(pending.extra_wait_timer);
  pending.extra_wait_timer = sim::kInvalidTimer;

  const Block* block = tree_.get(block_id);
  if (block == nullptr) return;  // restored mid-flight: block no longer known

  probe_.votes_gathered(*block, pending.clock);

  QuorumCert qc;
  qc.block_id = block_id;
  qc.round = round;
  qc.parent_id = block->parent_id;
  qc.parent_round = block->qc.round;
  // by_voter iterates in ascending voter order, so the folds land already
  // canonical; canonicalize() still runs to seal the digest-memo contract.
  for (const auto& [voter, vote] : pending.by_voter) qc.add_vote(vote);
  qc.canonicalize();

  // The leader processes the QC it formed (it will embed it in its next
  // proposal, so it is canonical) and advances into the led round.
  observe_qc(qc, /*canonical=*/true);
  votes_.erase(votes_.begin(), votes_.upper_bound(round));
  pacemaker_.advance_to(round + 1);
}

// ----------------------------------------------------------------- timeouts

void ChainedCore::on_local_timeout(Round round) {
  if (stopped_) return;
  const log::Scope log_scope(sched_.now(), config_.id);
  // Fig. 2: stop voting for round r, multicast ⟨timeout, r, qc_high⟩.
  safety_.record_vote(round);
  // Persist the abandoned round (no frontier entry): a restart must not
  // vote in a round this replica already timed out of.
  persist_vote(nullptr, round);
  if (last_proposed_payload_ && last_proposed_payload_->first == round) {
    payloads_.requeue(last_proposed_payload_->second);
    last_proposed_payload_.reset();
  }
  TimeoutMsg msg;
  msg.round = round;
  msg.sender = config_.id;
  msg.high_qc = safety_.high_qc();
  msg.sig = signer_.sign(msg.signing_bytes());
  hooks_.broadcast_timeout(msg);
}

void ChainedCore::on_timeout_msg(const TimeoutMsg& msg) {
  on_timeout_msg(CheckedTimeout(msg));
}

void ChainedCore::on_timeout_msg(const CheckedTimeout& checked) {
  if (stopped_) return;
  const TimeoutMsg& msg = checked.msg();
  if (config_.verify_signatures &&
      (msg.sender != msg.sig.signer ||
       !checked.signature_valid(*registry_, &cache_))) {
    return;
  }
  if (!msg.high_qc.is_genesis()) {
    if (config_.verify_signatures &&
        !checked.high_qc_valid(*registry_, config_.quorum(), &cache_)) {
      return;
    }
    // Timeout-borne QCs update locking/qc_high/round but not endorsements
    // (endorser sets must stay canonical across replicas, Sec. 5).
    observe_qc(msg.high_qc, /*canonical=*/false);
    pacemaker_.advance_to(msg.high_qc.round + 1);
  }

  add_timeout(checked.shared());
}

void ChainedCore::add_timeout(
    const std::shared_ptr<const TimeoutMsg>& shared) {
  const TimeoutMsg& msg = *shared;
  const Round current = pacemaker_.current_round();
  if (msg.round + 1 < current) return;  // stale
  // Rounds below current - 1 were left without a TC; their timeouts are
  // rejected as stale from now on, so they can never reach a quorum.
  if (current > 1) {
    timeouts_.erase(timeouts_.begin(), timeouts_.lower_bound(current - 1));
  }
  auto& per_sender = timeouts_[msg.round];
  per_sender.emplace(msg.sender, shared);
  if (per_sender.size() == config_.quorum()) {
    TimeoutCert tc;
    tc.round = msg.round;
    // per_sender iterates in ascending sender order — the canonical
    // (bitmap-bit) order the aggregate fold requires.
    for (const auto& [sender, timeout] : per_sender) tc.add_timeout(*timeout);
    last_tc_ = tc;
    if (store_) store_->record_high_tc(tc);
    timeouts_.erase(timeouts_.begin(), timeouts_.upper_bound(msg.round));
    pacemaker_.advance_to(msg.round + 1);
  }
}

// --------------------------------------------------------------- validation

bool ChainedCore::validate_proposal(const CheckedProposal& checked) const {
  const Proposal& proposal = checked.msg();
  const Block& block = proposal.block;
  if (block.round == 0) return false;
  if (block.proposer != election_.leader_of(block.round)) return false;
  if (!checked.id_valid()) return false;
  // The sealed Log digest must match the Log actually shipped — this is
  // what makes a vote for the block also vouch for the Log (Sec. 5).
  if (!checked.log_digest_valid()) return false;
  if (config_.verify_signatures) {
    if (proposal.sig.signer != block.proposer) return false;
    if (!checked.signature_valid(*registry_, &cache_)) return false;
    if (!checked.qc_valid(*registry_, config_.quorum(), &cache_)) return false;
    if (proposal.tc &&
        !checked.tc_valid(*registry_, config_.quorum(), &cache_)) {
      return false;
    }
  }
  return true;
}

bool ChainedCore::validate_commit_log(const Proposal& proposal) {
  if (!config_.attach_commit_log || !tracker_) return true;
  // Post-restore grace (see trust_commit_log_below_): the rebuilt tracker
  // cannot re-derive pre-crash strengths, and rejecting every log-bearing
  // proposal would keep the replica out of the cluster forever.
  if (proposal.block.round < trust_commit_log_below_) return true;
  // Lenient-but-sound rule: accept entries the local tracker can justify
  // (the QC embedded in this proposal has already been processed). An entry
  // claiming more strength than locally derivable is an overstatement.
  for (const types::CommitLogEntry& entry : proposal.commit_log) {
    if (tracker_->head_strength(entry.block_id) < entry.strength) return false;
  }
  return true;
}

void ChainedCore::process_pending_proposals(const BlockId& parent_id) {
  auto it = pending_proposals_.find(parent_id);
  if (it == pending_proposals_.end()) return;
  std::vector<Proposal> waiting = std::move(it->second);
  pending_proposals_.erase(it);
  for (Proposal& proposal : waiting) {
    on_proposal(CheckedProposal(std::move(proposal)));
  }
}

// --------------------------------------------------------------- durability

void ChainedCore::persist_vote(const Block* block, Round round) {
  if (!store_) return;
  storage::VoteRecord record;
  record.round = round;
  if (block != nullptr) {
    record.block_id = block->id;
    record.height = block->height;
  }
  store_->record_vote(record);
}

void ChainedCore::persist_qc_watermarks(const QuorumCert& qc,
                                        Round prev_high) {
  if (!store_) return;
  const bool high_grew = qc.round > prev_high;
  const bool lock_grew = safety_.locked_round() > persisted_locked_round_;
  if (!high_grew && !lock_grew) return;
  // One record covers both watermarks: recovery folds every recorded QC's
  // parent_round into the restored lock (max) and keeps the highest-round
  // QC as qc_high.
  store_->record_high_qc(qc);
  persisted_locked_round_ =
      std::max(persisted_locked_round_, qc.parent_round);
}

void ChainedCore::maybe_snapshot() {
  if (!store_ || !store_->snapshot_due(ledger_.committed_blocks())) return;
  const std::optional<Height> tip_height = ledger_.tip();
  if (!tip_height) return;
  const Block* tip = tree_.get(ledger_.at(*tip_height).block_id);
  if (tip == nullptr) return;  // tip below the restored root; wait for sync
  storage::Envelope envelope;
  envelope.voted_round = safety_.voted_round();
  envelope.locked_round = safety_.locked_round();
  envelope.high_qc = safety_.high_qc();
  envelope.high_tc = last_tc_;
  envelope.frontier.reserve(history_.frontier().size());
  for (const VoteHistory::FrontierEntry& entry : history_.frontier()) {
    envelope.frontier.push_back({entry.block_id, entry.round, entry.height});
  }
  store_->write_snapshot(*tip, ledger_.snapshot(), envelope);
}

}  // namespace sftbft::core
