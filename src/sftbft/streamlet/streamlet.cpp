#include "sftbft/streamlet/streamlet.hpp"

#include <algorithm>
#include <cassert>

#include "sftbft/common/codec.hpp"
#include "sftbft/common/logging.hpp"
#include "sftbft/obs/observer.hpp"

namespace sftbft::streamlet {

using types::Block;
using types::BlockId;

Bytes SProposal::signing_bytes() const {
  Encoder enc;
  enc.str("sftbft/streamlet/proposal");
  enc.raw(block.id.bytes);
  enc.u64(block.round);
  return enc.take();
}

void SProposal::encode(Encoder& enc) const {
  block.encode(enc);
  sig.encode(enc);
}

SProposal SProposal::decode(Decoder& dec) {
  SProposal proposal;
  proposal.block = types::Block::decode(dec);
  proposal.sig = crypto::Signature::decode(dec);
  return proposal;
}

Bytes SVote::signing_bytes() const {
  return signing_bytes_for(block_id, round, height, voter, marker);
}

Bytes SVote::signing_bytes_for(const BlockId& block_id, Round round,
                               Height height, ReplicaId voter, Height marker) {
  Encoder enc;
  enc.str("sftbft/streamlet/vote");
  enc.raw(block_id.bytes);
  enc.u64(round);
  enc.u64(height);
  enc.u32(voter);
  enc.u64(marker);
  return enc.take();
}

void SVote::encode(Encoder& enc) const {
  enc.raw(block_id.bytes);
  enc.u64(round);
  enc.u64(height);
  enc.u32(voter);
  enc.u64(marker);
  sig.encode(enc);
}

SVote SVote::decode(Decoder& dec) {
  SVote vote;
  const Bytes raw = dec.raw(32);
  std::copy(raw.begin(), raw.end(), vote.block_id.bytes.begin());
  vote.round = dec.u64();
  vote.height = dec.u64();
  vote.voter = dec.u32();
  vote.marker = dec.u64();
  vote.sig = crypto::Signature::decode(dec);
  return vote;
}

bool SCert::add_vote(const SVote& vote) {
  if (!agg.fold(vote.sig)) return false;
  markers.push_back(vote.marker);
  return true;
}

bool SCert::verify(const crypto::KeyRegistry& registry, std::size_t quorum,
                   crypto::VerifyCache* cache) const {
  if (markers.size() < quorum) return false;
  const std::vector<ReplicaId> voters = agg.signers.ids();
  if (voters.size() != markers.size()) return false;
  crypto::Sha256Digest memo_key;
  if (cache != nullptr) {
    Encoder enc;
    enc.str("sftbft/scert-verified");
    encode(enc);
    memo_key = crypto::Sha256::hash(enc.data());
    if (cache->seen_cert(memo_key)) return true;
  }
  const bool ok = registry.verify_aggregate(
      agg,
      [this, &voters](ReplicaId voter) {
        const std::size_t i = static_cast<std::size_t>(
            std::lower_bound(voters.begin(), voters.end(), voter) -
            voters.begin());
        return SVote::signing_bytes_for(block_id, round, height, voter,
                                        markers[i]);
      },
      cache);
  if (ok && cache != nullptr) cache->note_cert(memo_key);
  return ok;
}

void SCert::encode(Encoder& enc) const {
  enc.raw(block_id.bytes);
  enc.u64(round);
  enc.u64(height);
  enc.u32(static_cast<std::uint32_t>(markers.size()));
  for (const Height marker : markers) enc.u64(marker);
  agg.encode(enc);
}

SCert SCert::decode(Decoder& dec) {
  SCert cert;
  const Bytes raw = dec.raw(32);
  std::copy(raw.begin(), raw.end(), cert.block_id.bytes.begin());
  cert.round = dec.u64();
  cert.height = dec.u64();
  const std::uint32_t count = dec.count(8);
  cert.markers.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    cert.markers.push_back(dec.u64());
  }
  cert.agg = crypto::AggregateSignature::decode(dec);
  if (cert.agg.signers.popcount() != cert.markers.size()) {
    throw CodecError("SCert: marker count does not match signer bitmap");
  }
  return cert;
}

void SSyncResponse::encode(Encoder& enc) const {
  enc.u32(static_cast<std::uint32_t>(blocks.size()));
  for (const types::Block& block : blocks) block.encode(enc);
  enc.u32(static_cast<std::uint32_t>(certs.size()));
  for (const SCert& cert : certs) cert.encode(enc);
}

net::Envelope to_envelope(ReplicaId sender, const SMessage& msg) {
  using net::Envelope;
  using net::WireType;
  if (const auto* proposal = std::get_if<SProposal>(&msg)) {
    return Envelope::pack(WireType::kSProposal, sender, *proposal);
  }
  if (const auto* vote = std::get_if<SVote>(&msg)) {
    return Envelope::pack(WireType::kSVote, sender, *vote);
  }
  if (const auto* req = std::get_if<SSyncRequest>(&msg)) {
    return Envelope::pack(WireType::kSSyncRequest, sender, *req);
  }
  return Envelope::pack(WireType::kSSyncResponse, sender,
                        std::get<SSyncResponse>(msg));
}

SSyncResponse SSyncResponse::decode(Decoder& dec) {
  SSyncResponse resp;
  const std::uint32_t block_count = dec.count(types::Block::kMinEncodedBytes);
  resp.blocks.reserve(block_count);
  for (std::uint32_t i = 0; i < block_count; ++i) {
    resp.blocks.push_back(types::Block::decode(dec));
  }
  const std::uint32_t cert_count = dec.count(SCert::kMinEncodedBytes);
  resp.certs.reserve(cert_count);
  for (std::uint32_t i = 0; i < cert_count; ++i) {
    resp.certs.push_back(SCert::decode(dec));
  }
  return resp;
}

StreamletCore::StreamletCore(
    StreamletConfig config, sim::Scheduler& sched,
    std::shared_ptr<const crypto::KeyRegistry> registry,
    core::Payloads& payloads, Hooks hooks, storage::ReplicaStore* store)
    : config_(config),
      sched_(sched),
      registry_(std::move(registry)),
      signer_(registry_->signer_for(config.id)),
      payloads_(payloads),
      hooks_(std::move(hooks)),
      store_(store),
      history_(tree_),
      committer_(tree_, ledger_, payloads, sched, config.observer, config.id,
                 config.f()),
      sync_(core::SyncClient::Config{.id = config.id,
                                     .n = config.n,
                                     .retry_after = 8 * config.delta_bound,
                                     .observer = config.observer},
            sched,
            [this](ReplicaId to, const SSyncRequest& req) {
              if (hooks_.send_sync_request) hooks_.send_sync_request(to, req);
            },
            // Resume from the certified tip we hold: retries fetch only the
            // residual gap.
            [this] { return longest_height_; },
            [this] {
              // Re-request while the certified tip lags the lock-step
              // clock — a one-shot request can race with a block certified
              // right after the responses were built, and Streamlet has no
              // orphan buffer to self-heal a mid-chain gap from (every
              // later proposal fails the longest-chain check until the gap
              // block arrives).
              if (stopped_) return true;
              const Block* tip = tree_.get(longest_tip_);
              return !awaiting_sync_ && tip != nullptr &&
                     tip->round + 8 >= round_;
            }) {
  cache_ = crypto::VerifyCache(config_.observer, config_.id);
  committer_.set_store(store_);
  committer_.set_on_commit(hooks_.on_commit);
  committer_.set_snapshot_hook([this] { maybe_snapshot(); });
  endorsements_ = std::make_unique<core::StrengthTracker>(
      tree_, config_.n, config_.f(), config_.counting);

  // Genesis is certified by definition and roots the longest chain.
  certified_.insert(tree_.genesis_id());
  longest_tip_ = tree_.genesis_id();
  longest_height_ = 0;
}

void StreamletCore::start() { on_round_tick(); }

void StreamletCore::stop() {
  stopped_ = true;
  sched_.cancel(tick_timer_);
  tick_timer_ = sim::kInvalidTimer;
}

void StreamletCore::on_round_tick() {
  if (stopped_) return;
  ++round_;
  // Lock-step round entry is Streamlet's "pacemaker": same metric keys as
  // the chained cores' Pacemaker so cross-engine snapshots stay comparable.
  if (obs::Observer* obs = config_.observer) {
    obs->count(config_.id, obs::Counter::kRoundsEntered);
    obs->gauge(config_.id, obs::Gauge::kRound,
               static_cast<std::int64_t>(round_));
    if (obs->recording()) {
      obs->emit(obs::instant_event("pacemaker", "round_enter", config_.id,
                                   sched_.now(), {"round", round_}));
    }
    if (obs->tracing()) {
      obs->emit_trace_only(obs::counter_event("pacemaker", "round", config_.id,
                                              sched_.now(),
                                              {"round", round_}));
    }
  }
  voted_this_round_ = false;
  awaiting_batches_.reset();  // a deferred vote cannot cross rounds
  if (round_ % config_.n == config_.id && !awaiting_sync_) propose();
  schedule_tick(sched_.now() + 2 * config_.delta_bound);
}

void StreamletCore::schedule_tick(SimTime at) {
  tick_timer_ = sched_.schedule_at(at, [this] { on_round_tick(); });
}

// ------------------------------------------------------------ crash recovery

void StreamletCore::restore(const storage::RecoveredState& state) {
  votes_.clear();
  certified_.clear();
  certs_.clear();
  triple_strength_.clear();
  vote_clock_.clear();
  awaiting_batches_.reset();

  tree_ = state.tip ? chain::BlockTree::rooted_at(*state.tip)
                    : chain::BlockTree();
  ledger_.restore(state.ledger);
  certified_.insert(tree_.genesis_id());  // the root is trusted/certified
  longest_tip_ = tree_.genesis_id();
  longest_height_ = tree_.genesis().height;
  endorsements_ = std::make_unique<core::StrengthTracker>(
      tree_, config_.n, config_.f(), config_.counting);

  // Voted frontier: entries with known blocks are restored exactly; the
  // rest stay in the frontier as the kernel's conservative marker floor
  // until sync re-delivers their blocks.
  voted_round_ = state.voted_round;
  std::vector<core::VoteHistory::FrontierEntry> records;
  records.reserve(state.frontier.size());
  for (const storage::VoteRecord& record : state.frontier) {
    if (record.block_id == types::BlockId{}) continue;  // timeout record
    records.push_back({record.block_id, record.round, record.height});
  }
  history_.from_records(std::move(records));

  // Re-align to the global lock-step clock: round r spans [2Δ(r-1), 2Δr).
  const SimDuration span = 2 * config_.delta_bound;
  round_ = static_cast<Round>(sched_.now() / span) + 1;
  voted_this_round_ = voted_round_ >= round_;  // crashed mid-round, re-voted?
  awaiting_sync_ = true;  // no voting/proposing until a peer refreshes us
  sync_.reset();
  stopped_ = false;
  schedule_tick(static_cast<SimTime>(round_) * span);
}

void StreamletCore::request_sync() {
  if (!hooks_.send_sync_request || stopped_) return;
  sync_.request();
}

void StreamletCore::on_sync_request(const SSyncRequest& req) {
  if (stopped_ || !hooks_.send_sync_response) return;
  // The requester id comes off the wire: reply only to a real peer.
  if (req.requester >= config_.n || req.requester == config_.id) return;
  auto chain_blocks =
      core::collect_chain(tree_, longest_tip_, req.from_height);
  if (!chain_blocks) {
    return;  // our tree is rooted above the requested height; stay silent
  }
  SSyncResponse resp;
  for (const Block& b : *chain_blocks) {
    // Prefer a stored certificate (this replica may itself have recovered
    // via sync and hold no individual votes); else fold one from the vote
    // map — ascending voter order by construction, a quorum is enough.
    if (const auto cert_it = certs_.find(b.id); cert_it != certs_.end()) {
      resp.certs.push_back(cert_it->second);
      continue;
    }
    auto it = votes_.find(b.id);
    if (it == votes_.end() || it->second.size() < config_.quorum()) continue;
    SCert cert;
    cert.block_id = b.id;
    cert.round = b.round;
    cert.height = b.height;
    for (const auto& [voter, vote] : it->second) {
      // A Byzantine vote naming this block under a different round/height
      // would poison the fold (its signing bytes differ); skip it.
      if (vote.round != b.round || vote.height != b.height) continue;
      cert.add_vote(vote);
      if (cert.markers.size() >= config_.quorum()) break;
    }
    if (cert.markers.size() < config_.quorum()) continue;
    resp.certs.push_back(std::move(cert));
  }
  resp.blocks = std::move(*chain_blocks);
  hooks_.send_sync_response(req.requester, resp);
}

void StreamletCore::on_sync_response(const SSyncResponse& resp) {
  if (stopped_) return;
  // Insert the blocks structurally (no proposer signatures on raw blocks);
  // certification authority comes from the signature-checked votes below —
  // an uncertified synced block is inert.
  for (const Block& block : resp.blocks) {
    if (!block.id_is_valid()) return;
    if (tree_.insert(block) == chain::BlockTree::InsertResult::Inserted) {
      if (hooks_.on_block_seen) hooks_.on_block_seen(block);
      // Synced digest payloads may reference batches this replica missed
      // while down — pull them.
      payloads_.fetch(block.payload);
    }
  }
  for (const SCert& cert : resp.certs) {
    const Block* block = tree_.get(cert.block_id);
    // The cert must certify one of the blocks just inserted (or already
    // held) under exactly its round/height — the fields the votes signed.
    if (block == nullptr || block->round != cert.round ||
        block->height != cert.height) {
      continue;
    }
    // Structural sanity independent of signature checking: bitmap and
    // marker list aligned, quorum-sized.
    if (cert.markers.size() != cert.agg.signers.popcount() ||
        cert.markers.size() < config_.quorum()) {
      continue;
    }
    if (config_.verify_signatures &&
        !cert.verify(*registry_, config_.quorum(), &cache_)) {
      continue;
    }
    // Feed the per-voter markers to the audit tap and the endorser
    // accounting exactly as live votes would have (synthesized votes carry
    // no signature — the aggregate already attested them).
    const std::vector<ReplicaId> voters = cert.agg.signers.ids();
    for (std::size_t i = 0; i < voters.size(); ++i) {
      SVote vote;
      vote.block_id = cert.block_id;
      vote.round = cert.round;
      vote.height = cert.height;
      vote.voter = voters[i];
      vote.marker = cert.markers[i];
      if (hooks_.on_vote_seen) hooks_.on_vote_seen(vote);
      if (config_.sft) {
        endorsements_->ingest_height_vote(vote.block_id, vote.voter,
                                          vote.marker);
      }
    }
    certs_[cert.block_id] = cert;
    if (!certified_.contains(cert.block_id)) {
      certified_.insert(cert.block_id);
      mark_certified(*block);
    } else if (config_.sft) {
      // Already certified: the markers may still raise triple strengths.
      check_commits(cert.block_id);
    }
  }
  // A mid-run sync (orphan repair under an equivocating leader) can deliver
  // blocks whose quorum of votes this replica already held — so
  // certification must be re-checked explicitly now that the blocks exist.
  for (const Block& block : resp.blocks) {
    try_certify(block.id);
  }
  awaiting_sync_ = false;
}

void StreamletCore::retry_awaiting_payloads() {
  if (stopped_ || !awaiting_batches_) return;
  const Block block = *awaiting_batches_;
  awaiting_batches_.reset();
  // maybe_vote re-checks round/voted state (and may re-defer if still
  // incomplete — it re-registers the block itself in that case).
  maybe_vote(block);
}

const Block& StreamletCore::longest_certified_tip() const {
  const Block* tip = tree_.get(longest_tip_);
  assert(tip != nullptr);
  return *tip;
}

void StreamletCore::propose() {
  const log::Scope log_scope(sched_.now(), config_.id);
  const Block& parent = longest_certified_tip();
  Block block;
  block.parent_id = parent.id;
  block.round = round_;
  block.height = parent.height + 1;
  block.proposer = config_.id;
  // Chaining metadata only: Streamlet certification is tracked from the
  // multicast votes, so the embedded QC is a stub naming the parent.
  block.qc.block_id = parent.id;
  block.qc.round = parent.round;
  block.qc.parent_id = parent.parent_id;
  block.payload = payloads_.make(config_.max_batch, sched_.now());
  block.created_at = sched_.now();
  block.seal();

  SProposal proposal;
  proposal.block = block;
  proposal.sig = signer_.sign(proposal.signing_bytes());
  if (obs::Observer* obs = config_.observer) {
    obs->count(config_.id, obs::Counter::kProposalsSent);
    if (obs->recording()) {
      obs->emit(obs::span_event("block", "proposed", config_.id, block.height,
                                block.created_at, sched_.now(),
                                {"round", block.round},
                                {"height", block.height}));
    }
    if (obs->tracing()) {
      // Backpressure counter track: leader's mempool after draining the
      // batch for this block.
      obs->emit_trace_only(obs::counter_event(
          "mempool", "mempool_depth", config_.id, sched_.now(),
          {"pending", static_cast<std::uint64_t>(payloads_.pending())}));
    }
  }
  hooks_.broadcast_proposal(proposal);
}

void StreamletCore::on_proposal(const SProposal& proposal) {
  if (stopped_) return;
  const Block& block = proposal.block;
  if (block.round == 0 || block.round % config_.n != block.proposer) return;
  if (!block.id_is_valid()) return;
  if (config_.verify_signatures &&
      (proposal.sig.signer != block.proposer ||
       !registry_->verify(proposal.sig, proposal.signing_bytes(), &cache_))) {
    return;
  }
  const bool unseen = !tree_.contains(block.id);
  const auto inserted = tree_.insert(block);
  if (inserted == chain::BlockTree::InsertResult::Rejected) return;
  if (unseen && config_.echo && hooks_.echo) hooks_.echo(SMessage{proposal});
  if (inserted == chain::BlockTree::InsertResult::Orphaned &&
      !orphan_repair_armed_) {
    // Orphan repair: an equivocating leader (Appendix C) may have shown this
    // replica only the losing fork, and with the echo disabled the winning
    // block never arrives by itself — every later proposal orphans behind
    // it. Fall back to block sync (the crash-recovery machinery; responses
    // carry a certifying vote quorum per block).
    orphan_repair_armed_ = true;
    sched_.schedule_after(4 * config_.delta_bound,
                          [this, parent_id = block.parent_id] {
      orphan_repair_armed_ = false;
      if (stopped_ || tree_.contains(parent_id)) return;
      request_sync();
    });
  }
  if (inserted == chain::BlockTree::InsertResult::Inserted) {
    if (hooks_.on_block_seen) hooks_.on_block_seen(block);
    // Proposal arrival milestone (critical-path "proposal transit");
    // proposer's own loopback delivery excluded.
    if (obs::Observer* obs = config_.observer;
        obs != nullptr && obs->recording() && block.proposer != config_.id) {
      obs->emit(obs::span_event("block", "received", config_.id, block.height,
                                block.created_at, sched_.now(),
                                {"round", block.round}));
    }
    // Votes may have arrived (via echo) before the proposal.
    try_certify(block.id);
    maybe_vote(block);
  }
}

void StreamletCore::maybe_vote(const Block& block) {
  if (block.round != round_ || voted_this_round_) return;
  // Restart fences: never vote twice in a round (durable watermark), and
  // never vote while the local longest-chain view is known-stale.
  if (block.round <= voted_round_ || awaiting_sync_) return;
  // Voting rule: the proposal must extend one of the longest certified
  // chains known to the replica.
  const Block* parent = tree_.get(block.parent_id);
  if (parent == nullptr) return;
  if (!certified_.contains(parent->id) || parent->height != longest_height_) {
    return;
  }
  // Vote-availability gate (dissemination mode): the vote waits for the
  // data plane to deliver every referenced batch. Deferred, not dropped —
  // retry_awaiting_payloads re-runs this when batches land, and the round
  // tick lapses a deferral that missed its window.
  if (!payloads_.available(block.payload, sched_.now())) {
    awaiting_batches_ = block;
    payloads_.fetch(block.payload);
    return;
  }
  // Dissem availability-wait milestone: the gate passed (immediately, or on
  // a retry after the missing batches landed).
  if (obs::Observer* obs = config_.observer;
      obs != nullptr && obs->recording() && payloads_.digests()) {
    obs->emit(obs::instant_event("dissem", "payload_ready", config_.id,
                                 sched_.now(), {"round", block.round},
                                 {"height", block.height}));
  }
  voted_this_round_ = true;
  voted_round_ = block.round;
  if (store_) {
    // WAL before wire (same rule as the chained cores).
    store_->record_vote({block.id, block.round, block.height});
  }

  SVote vote;
  vote.block_id = block.id;
  vote.round = block.round;
  vote.height = block.height;
  vote.voter = config_.id;
  vote.marker = config_.sft ? history_.height_marker_for(block) : 0;
  vote.sig = signer_.sign(vote.signing_bytes());

  // Update the voted frontier (one entry per fork) — the kernel maintains
  // it and derives markers for later votes.
  history_.record_vote(block);

  if (obs::Observer* obs = config_.observer) {
    obs->count(config_.id, obs::Counter::kVotesSent);
    if (obs->recording()) {
      obs->emit(obs::span_event("block", "voted", config_.id, block.height,
                                block.created_at, sched_.now(),
                                {"round", block.round}));
    }
  }
  hooks_.broadcast_vote(vote);
}

void StreamletCore::on_vote(const SVote& vote) {
  ingest_vote(vote, /*allow_echo=*/true);
}

void StreamletCore::ingest_vote(const SVote& vote, bool allow_echo) {
  if (stopped_) return;
  if (config_.verify_signatures &&
      (vote.voter != vote.sig.signer ||
       !registry_->verify(vote.sig, vote.signing_bytes(), &cache_))) {
    return;
  }
  auto& per_voter = votes_[vote.block_id];
  if (!per_voter.emplace(vote.voter, vote).second) return;  // duplicate
  if (config_.observer != nullptr) {
    // Vote-arrival ordinals (strength clock); consumed at certification.
    const std::size_t distinct = per_voter.size();
    if (distinct == config_.f() + 1 || distinct == config_.quorum()) {
      VoteClock& clock = vote_clock_[vote.block_id];
      if (distinct == config_.f() + 1) clock.f1_at = sched_.now();
      if (distinct == config_.quorum()) clock.quorum_at = sched_.now();
    }
  }
  if (hooks_.on_vote_seen) hooks_.on_vote_seen(vote);
  if (allow_echo && config_.echo && hooks_.echo) hooks_.echo(SMessage{vote});
  if (config_.sft) {
    endorsements_->ingest_height_vote(vote.block_id, vote.voter, vote.marker);
  }
  try_certify(vote.block_id);
  // New endorsements can raise strengths of already-certified triples.
  if (config_.sft && tree_.contains(vote.block_id)) {
    check_commits(vote.block_id);
  }
}

void StreamletCore::try_certify(const BlockId& id) {
  if (certified_.contains(id)) return;
  auto it = votes_.find(id);
  if (it == votes_.end() || it->second.size() < config_.quorum()) return;
  const Block* block = tree_.get(id);
  if (block == nullptr) return;  // wait for the proposal

  certified_.insert(id);
  mark_certified(*block);
}

void StreamletCore::mark_certified(const Block& block_ref) {
  const Block* block = &block_ref;
  const BlockId id = block->id;
  if (obs::Observer* obs = config_.observer) {
    obs->count(config_.id, obs::Counter::kBlocksCertified);
    obs->observe(config_.id, obs::Hist::kCertifyLatencyUs,
                 sched_.now() - block->created_at);
    if (obs->recording()) {
      obs->emit(obs::span_event("block", "certified", config_.id,
                                block->height, block->created_at, sched_.now(),
                                {"round", block->round}));
    }
    if (const auto clock_it = vote_clock_.find(id);
        clock_it != vote_clock_.end()) {
      const VoteClock& clock = clock_it->second;
      if (clock.f1_at > 0) {
        obs->observe(config_.id, obs::Hist::kVoteF1LatencyUs,
                     clock.f1_at - block->created_at);
        if (obs->recording()) {
          obs->emit(obs::instant_event("block", "vote_f1", config_.id,
                                       clock.f1_at, {"round", block->round},
                                       {"height", block->height}));
        }
      }
      if (clock.quorum_at > 0) {
        obs->observe(config_.id, obs::Hist::kVoteQuorumLatencyUs,
                     clock.quorum_at - block->created_at);
        if (obs->recording()) {
          obs->emit(obs::instant_event("block", "vote_quorum", config_.id,
                                       clock.quorum_at,
                                       {"round", block->round},
                                       {"height", block->height}));
        }
      }
      vote_clock_.erase(clock_it);
    }
  }
  if (block->height > longest_height_) {
    longest_height_ = block->height;
    longest_tip_ = id;
  }
  check_commits(id);
}

std::uint32_t StreamletCore::k_endorser_count(const BlockId& id,
                                              Height k) const {
  return endorsements_->endorser_count(id, k);
}

void StreamletCore::check_commits(const BlockId& id) {
  const Block* block = tree_.get(id);
  if (block == nullptr) return;
  // `id` can sit in a (parent, middle, child) triple in three positions.
  evaluate_triple(*block);
  if (const Block* parent = tree_.parent_of(id)) evaluate_triple(*parent);
  for (const Block* child : tree_.children_of(id)) evaluate_triple(*child);
}

void StreamletCore::evaluate_triple(const Block& middle) {
  // The Fig. 11 rule itself is kernel machinery (shared with the auditor's
  // ground truth); this driver only ratchets and commits. nullopt = no
  // certified triple; a valid triple at strength f == 0 (n <= 3) still
  // commits.
  const std::optional<std::uint32_t> strength =
      core::streamlet_triple_strength(
          tree_, *endorsements_, middle,
          [this](const BlockId& id) { return certified_.contains(id); },
          config_.n, config_.f(), config_.sft);
  if (!strength) return;
  std::uint32_t& recorded = triple_strength_[middle.id];
  if (*strength > recorded || recorded == 0) {
    recorded = std::max(recorded, *strength);
    committer_.commit_chain(middle, *strength);
  }
}

void StreamletCore::maybe_snapshot() {
  if (!store_ || !store_->snapshot_due(ledger_.committed_blocks())) return;
  const std::optional<Height> tip_height = ledger_.tip();
  if (!tip_height) return;
  const Block* tip = tree_.get(ledger_.at(*tip_height).block_id);
  if (tip == nullptr) return;  // tip below the restored root; wait for sync
  // Streamlet has no chain-embedded QC or TC; the envelope carries stubs so
  // the shared snapshot format stays uniform. The kernel frontier includes
  // restored-but-never-resynced records, which must survive further
  // snapshots — a second crash would otherwise lose the marker floor they
  // impose (and reopen the over-endorsement hole the floor plugs).
  storage::Envelope envelope;
  envelope.voted_round = voted_round_;
  envelope.frontier.reserve(history_.frontier().size());
  for (const core::VoteHistory::FrontierEntry& entry : history_.frontier()) {
    envelope.frontier.push_back({entry.block_id, entry.round, entry.height});
  }
  store_->write_snapshot(*tip, ledger_.snapshot(), envelope);
}

}  // namespace sftbft::streamlet
