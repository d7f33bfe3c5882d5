#include "sftbft/engine/replica_host.hpp"

#include <stdexcept>
#include <unordered_set>

#include "sftbft/adversary/coalition.hpp"
#include "sftbft/adversary/crafting.hpp"
#include "sftbft/adversary/funnel.hpp"
#include "sftbft/consensus/leader_election.hpp"
#include "sftbft/engine/deployment.hpp"
#include "sftbft/hotstuff/hotstuff.hpp"

namespace sftbft::engine {

using adversary::Strategy;
using net::Envelope;
using net::WireType;
using streamlet::SProposal;
using streamlet::SVote;
using streamlet::StreamletCore;
using types::Proposal;
using types::Vote;

struct ReplicaHost::Byzantine {
  std::shared_ptr<adversary::Coalition> coalition;
  adversary::OutboundFunnel funnel;
  crypto::Signer signer;
  /// Blocks already amnesia-voted (one forged vote per block).
  std::unordered_set<types::BlockId> forged_for;
};

ReplicaHost::ReplicaHost(const DeploymentConfig& config, ReplicaId id,
                         net::Transport& transport,
                         std::shared_ptr<const crypto::KeyRegistry> registry,
                         Rng workload_rng, storage::ReplicaStore* store,
                         CommitObserver on_commit,
                         const core::AuditTaps& taps,
                         std::shared_ptr<adversary::Coalition> coalition,
                         obs::Observer* obs)
    : protocol_(config.protocol),
      id_(id),
      transport_(transport),
      fault_(id < config.faults.size() ? config.faults[id]
                                       : FaultSpec::honest()),
      dissem_(config.dissem),
      store_(store),
      on_commit_(std::move(on_commit)),
      silent_(fault_.kind == FaultSpec::Kind::Silent),
      workload_(transport.scheduler(), pool_, config.workload, workload_rng) {
  workload_.set_id_space(id_);
  // Per-replica observability attribution (the frontend and the data plane
  // are not otherwise id-aware).
  dissem_.observer = obs;
  dissem_.self = id_;

  if (fault_.kind == FaultSpec::Kind::Byzantine) {
    byz_ = std::unique_ptr<Byzantine>(new Byzantine{
        coalition,
        adversary::OutboundFunnel(id_, transport_, fault_, *coalition),
        registry->signer_for(id_),
        {}});
    coalition->enlist(id_);
    on_commit_ = nullptr;
  }

  if (dissem_.enabled) {
    batches_ = std::make_unique<dissem::BatchStore>(id_);
    broadcaster_ = std::make_unique<dissem::BatchBroadcaster>(
        id_, transport_, pool_, *batches_, dissem_,
        [this] {
          std::visit([](auto& core) { core->retry_awaiting_payloads(); },
                     core_);
        },
        dissem::BatchBroadcaster::Options{
            .silent = silent_,
            .withhold_push = attacks(Strategy::BatchWithholder)});
    frontend_ = std::make_unique<dissem::AdmissionFrontend>(pool_, dissem_);
    swarm_ = std::make_unique<dissem::ClientSwarm>(
        transport.scheduler(), *frontend_, config.workload, dissem_,
        workload_rng.fork());
    swarm_->set_id_space(id_);
    // Runs honestly on Byzantine replicas too: the kernel keeps the
    // corrupted replica synced, which is what lets its attacks land.
    payloads_.emplace(pool_, *batches_, dissem_,
                      [this](const std::vector<crypto::Sha256Digest>& missing) {
                        broadcaster_->want(missing);
                      });
  } else {
    payloads_.emplace(pool_);
  }

  // The replica runs the real kernel under the real protocol rules, whatever
  // its fault: only a Byzantine replica's outbound behaviour lies.
  sim::Scheduler& sched = transport.scheduler();
  if (is_chained(protocol_)) {
    core::CoreConfig cfg = config.chained;
    cfg.id = id_;
    cfg.n = config.n;
    cfg.observer = obs;
    cfg.safe_to_vote = protocol_ == Protocol::HotStuff
                           ? &hotstuff::safe_to_vote
                           : &core::diembft_safe_to_vote;
    core_ = std::make_unique<core::ChainedCore>(
        cfg, sched, std::move(registry), *payloads_, chained_hooks(taps),
        store_);
  } else {
    streamlet::StreamletConfig cfg = config.streamlet;
    cfg.id = id_;
    cfg.n = config.n;
    cfg.observer = obs;
    core_ = std::make_unique<StreamletCore>(cfg, sched, std::move(registry),
                                            *payloads_, streamlet_hooks(taps),
                                            store_);
  }
}

ReplicaHost::~ReplicaHost() = default;

// ------------------------------------------------------------ core hooks

core::ChainedCore::Hooks ReplicaHost::chained_hooks(
    const core::AuditTaps& taps) {
  core::ChainedCore::Hooks hooks;
  hooks.send_vote = [this](ReplicaId to, const Vote& vote) {
    if (attacks(Strategy::AmnesiaVoter)) {
      Vote forged = vote;
      if (adversary::deny_history(forged, byz_->signer)) {
        ++byz_->coalition->stats().forged_votes;
      }
      send(to, WireType::kVote, forged);
      return;
    }
    send(to, WireType::kVote, vote);
  };
  hooks.broadcast_proposal = [this](const Proposal& proposal) {
    if (attacks(Strategy::EquivocatingLeader)) {
      equivocate(WireType::kProposal, proposal);
      return;
    }
    broadcast(WireType::kProposal, proposal, /*include_self=*/true,
              /*withholdable=*/true);
  };
  // Timeout messages carry qc_high, so WithholdRelease delays them too —
  // otherwise the "private" certificate leaks on the next timeout.
  hooks.broadcast_timeout = [this](const types::TimeoutMsg& msg) {
    broadcast(WireType::kTimeout, msg, /*include_self=*/true,
              /*withholdable=*/true);
  };
  hooks.broadcast_extra_vote = [this](const Vote& vote) {
    broadcast(WireType::kVote, vote, /*include_self=*/false,
              /*withholdable=*/false, net::WireLabel::kExtraVote);
  };
  hooks.send_sync_request = [this](ReplicaId to,
                                   const types::SyncRequest& req) {
    send(to, WireType::kSyncRequest, req);
  };
  hooks.send_sync_response = [this](ReplicaId to,
                                    const types::SyncResponse& resp) {
    send(to, WireType::kSyncResponse, resp);
  };
  if (taps.canonical_qc) {
    hooks.on_canonical_qc = [this, tap = taps.canonical_qc](
                                const types::Block& block,
                                const types::QuorumCert& qc) {
      tap(id_, block, qc);
    };
  }
  if (on_commit_) {
    hooks.on_commit = [this](const types::Block& block,
                             std::uint32_t strength, SimTime now) {
      on_commit_(id_, block, strength, now);
    };
  }
  return hooks;
}

StreamletCore::Hooks ReplicaHost::streamlet_hooks(
    const core::AuditTaps& taps) {
  StreamletCore::Hooks hooks;
  hooks.broadcast_proposal = [this](const SProposal& proposal) {
    if (attacks(Strategy::EquivocatingLeader)) {
      equivocate(WireType::kSProposal, proposal);
      return;
    }
    broadcast(WireType::kSProposal, proposal, /*include_self=*/true,
              /*withholdable=*/true);
  };
  hooks.broadcast_vote = [this](const SVote& vote) {
    if (attacks(Strategy::AmnesiaVoter)) {
      SVote forged = vote;
      if (adversary::deny_history(forged, byz_->signer)) {
        ++byz_->coalition->stats().forged_votes;
      }
      broadcast(WireType::kSVote, forged, /*include_self=*/true,
                /*withholdable=*/false);
      return;
    }
    broadcast(WireType::kSVote, vote, /*include_self=*/true,
              /*withholdable=*/false);
  };
  hooks.echo = [this](const streamlet::SMessage& msg) {
    if (silent_) return;
    fan_out(streamlet::to_envelope(id_, msg), /*include_self=*/false,
            /*withholdable=*/false, net::WireLabel::kEcho);
  };
  hooks.send_sync_request = [this](ReplicaId to,
                                   const streamlet::SSyncRequest& req) {
    send(to, WireType::kSyncRequest, req);
  };
  hooks.send_sync_response = [this](ReplicaId to,
                                    const streamlet::SSyncResponse& resp) {
    send(to, WireType::kSSyncResponse, resp);
  };
  if (taps.block_seen) {
    hooks.on_block_seen = [this, tap = taps.block_seen](
                              const types::Block& block) { tap(id_, block); };
  }
  if (taps.vote_seen) {
    hooks.on_vote_seen = [this, tap = taps.vote_seen](const SVote& vote) {
      tap(id_, core::VoteSeen{vote.block_id, vote.round, vote.height,
                              vote.voter, vote.marker});
    };
  }
  if (on_commit_) {
    hooks.on_commit = [this](const types::Block& block,
                             std::uint32_t strength, SimTime now) {
      on_commit_(id_, block, strength, now);
    };
  }
  return hooks;
}

// -------------------------------------------------------------- outbound

template <typename M>
void ReplicaHost::send(ReplicaId to, WireType type, const M& msg) {
  if (silent_) return;
  Envelope env = Envelope::pack(type, id_, msg);
  if (byz_) {
    byz_->funnel.send(to, std::move(env), /*withholdable=*/false);
  } else {
    transport_.send(to, std::move(env));
  }
}

template <typename M>
void ReplicaHost::broadcast(WireType type, const M& msg, bool include_self,
                            bool withholdable,
                            std::optional<net::WireLabel> label) {
  if (silent_) return;
  fan_out(Envelope::pack(type, id_, msg), include_self, withholdable, label);
}

void ReplicaHost::fan_out(Envelope env, bool include_self, bool withholdable,
                          std::optional<net::WireLabel> label) {
  if (!byz_) {
    transport_.broadcast(std::move(env), include_self, label);
    return;
  }
  // The strategy filter acts per link, so adversarial traffic fans out per
  // peer (self first, then peers in ascending id), one envelope per peer.
  // Self-delivery is never filtered: a withholding leader still certifies
  // privately against its own view.
  if (include_self) byz_->funnel.send_self(env);
  byz_->funnel.send_peers(env, withholdable, label);
}

bool ReplicaHost::attacks(Strategy strategy) const {
  return byz_ != nullptr && fault_.byz.has(strategy);
}

template <typename P>
void ReplicaHost::equivocate(WireType type, const P& proposal) {
  const P twin = adversary::twin_of(proposal, byz_->signer);
  byz_->coalition->record_fork(proposal.block.round, proposal.block.id,
                               twin.block.id);
  ++byz_->coalition->stats().equivocations;
  // Serialize each fork once; per-recipient sends copy the payload instead
  // of re-running the full (block-sized) canonical encode.
  byz_->funnel.send_twins(Envelope::pack(type, id_, proposal),
                          Envelope::pack(type, id_, twin));
}

// --------------------------------------------------------------- inbound

void ReplicaHost::register_handler() {
  transport_.set_handler(id_, [this](const Envelope& env,
                                     std::size_t frame_bytes) {
    ++inbound_messages_;
    inbound_bytes_ += frame_bytes;
    on_envelope(env);
  });
}

void ReplicaHost::on_envelope(const Envelope& env) {
  auto data_plane = [this]() -> dissem::BatchBroadcaster& {
    if (!broadcaster_) throw CodecError("ReplicaHost: dissemination is off");
    return *broadcaster_;
  };
  try {
    switch (env.type) {
      case WireType::kBatchPush:
        data_plane().on_push(dissem::CheckedPush::of(env));
        break;
      case WireType::kBatchRequest:
        data_plane().on_request(env.unpack<dissem::BatchRequest>());
        break;
      case WireType::kBatchResponse:
        data_plane().on_response(env.unpack<dissem::BatchResponse>());
        break;
      default:
        std::visit([&](auto& core) { deliver(*core, env); }, core_);
    }
  } catch (const CodecError&) {
    // Well-framed envelope, unparseable payload — or another stack's tag,
    // which this stack cannot parse either: reject, count, carry on.
    transport_.stats().record_decode_drop();
  }
}

void ReplicaHost::deliver(core::ChainedCore& core, const Envelope& env) {
  switch (env.type) {
    case WireType::kProposal: {
      const core::CheckedProposal& checked = core::CheckedProposal::of(env);
      const Proposal& proposal = checked.msg();
      if (attacks(Strategy::AmnesiaVoter) &&
          proposal.round() >= core.current_round() &&
          byz_->forged_for.insert(proposal.block.id).second) {
        // Vote for every same-round proposal, staged forks included,
        // history and safety rules be damned (at most once per block).
        ++byz_->coalition->stats().forged_votes;
        send(consensus::LeaderElection(transport_.size())
                 .leader_of(proposal.round() + 1),
             WireType::kVote,
             adversary::amnesia_vote(proposal.block, id_, core.config().mode,
                                     byz_->signer));
      }
      core.on_proposal(checked);
      break;
    }
    case WireType::kVote:
      core.on_vote(env.unpack<Vote>());
      break;
    case WireType::kTimeout:
      core.on_timeout_msg(core::CheckedTimeout::of(env));
      break;
    case WireType::kSyncRequest:
      core.on_sync_request(env.unpack<types::SyncRequest>());
      break;
    case WireType::kSyncResponse:
      core.on_sync_response(env.unpack<types::SyncResponse>());
      break;
    default:
      throw CodecError("ReplicaHost: wire type not in this protocol's stack");
  }
}

void ReplicaHost::deliver(StreamletCore& core, const Envelope& env) {
  switch (env.type) {
    case WireType::kSProposal: {
      const streamlet::CheckedSProposal& checked =
          streamlet::CheckedSProposal::of(env);
      const SProposal& proposal = checked.msg();
      if (attacks(Strategy::AmnesiaVoter) &&
          proposal.block.round + 1 >= core.current_round() &&
          byz_->forged_for.insert(proposal.block.id).second) {
        // Votes are multicast in Streamlet, so the double votes are public.
        ++byz_->coalition->stats().forged_votes;
        broadcast(WireType::kSVote,
                  adversary::amnesia_vote(proposal.block, id_, byz_->signer),
                  /*include_self=*/true, /*withholdable=*/false);
      }
      core.on_proposal(checked);
      break;
    }
    case WireType::kSVote:
      core.on_vote(streamlet::CheckedSVote::of(env));
      break;
    case WireType::kSyncRequest:
      core.on_sync_request(env.unpack<streamlet::SSyncRequest>());
      break;
    case WireType::kSSyncResponse:
      core.on_sync_response(env.unpack<streamlet::SSyncResponse>());
      break;
    default:
      throw CodecError("ReplicaHost: wire type not in this protocol's stack");
  }
}

// ------------------------------------------------------------- lifecycle

void ReplicaHost::start() {
  register_handler();
  if (dissem_.enabled) {
    swarm_->start();
    broadcaster_->start();
  } else {
    workload_.top_up();
    workload_.start();
  }
  // Streamlet arms every fault timer before entering round 1; the chained
  // stack arms CrashRestart's after. Same-time events run in insertion
  // order, so the seeded runs depend on it.
  const bool timers_last = is_chained(protocol_) &&
                           fault_.kind == FaultSpec::Kind::CrashRestart;
  if (!timers_last) arm_fault_timers();
  std::visit([](auto& core) { core->start(); }, core_);
  if (timers_last) arm_fault_timers();
}

void ReplicaHost::arm_fault_timers() {
  sim::Scheduler& sched = transport_.scheduler();
  if (fault_.kind == FaultSpec::Kind::Crash) {
    sched.schedule_at(fault_.crash_at, [this] { stop(); });
  } else if (fault_.kind == FaultSpec::Kind::CrashRestart) {
    sched.schedule_at(fault_.crash_at, [this] {
      stop();
      // The simulated power loss: unsynced storage writes are dropped (the
      // MemBackend may leave a torn WAL tail for recovery to handle).
      if (store_) store_->simulate_crash();
    });
    sched.schedule_at(fault_.restart_at, [this] { restart(); });
  }
}

void ReplicaHost::stop() {
  std::visit([](auto& core) { core->stop(); }, core_);
  if (dissem_.enabled) {
    broadcaster_->stop();
    swarm_->stop();
  }
  transport_.disconnect(id_);
}

void ReplicaHost::restart() {
  if (byz_) {
    throw std::logic_error(
        "ReplicaHost::restart: Byzantine replicas do not recover");
  }
  if (store_ == nullptr) {
    // Restarting without durable state would re-enter consensus with a
    // clean voting history — an equivocation machine. Refuse.
    throw std::logic_error(
        "ReplicaHost::restart: no ReplicaStore wired for this replica");
  }
  register_handler();
  // Fresh volatile state: in-flight bookkeeping died with the process.
  // Certified-but-missing batches re-arrive via the sync path's pull.
  pool_ = mempool::Mempool();
  if (dissem_.enabled) {
    pool_.set_capacity(dissem_.mempool_capacity);
    *batches_ = dissem::BatchStore(id_);
    broadcaster_->reset();
    swarm_->start();
    broadcaster_->start();
  } else {
    workload_.top_up();
  }
  const storage::RecoveredState state = store_->recover();
  std::visit(
      [&state](auto& core) {
        core->restore(state);
        core->request_sync();
      },
      core_);
}

// -------------------------------------------------------------- accessors

const chain::Ledger& ReplicaHost::ledger() const {
  return std::visit(
      [](const auto& core) -> const chain::Ledger& { return core->ledger(); },
      core_);
}

Round ReplicaHost::current_round() const {
  return std::visit([](const auto& core) { return core->current_round(); },
                    core_);
}

core::ChainedCore* ReplicaHost::chained_core() {
  auto* core = std::get_if<std::unique_ptr<core::ChainedCore>>(&core_);
  return core ? core->get() : nullptr;
}

StreamletCore* ReplicaHost::streamlet_core() {
  auto* core = std::get_if<std::unique_ptr<StreamletCore>>(&core_);
  return core ? core->get() : nullptr;
}

}  // namespace sftbft::engine
