// Shared checked views (core::CheckedProposal, core::CheckedTimeout,
// streamlet::CheckedSProposal, streamlet::CheckedSVote): the receivers of one
// broadcast share one decode and one of each receiver-independent check, and
// every receiver keeps its own verdict and its own VerifyCache bookkeeping.
//
// Most cases feed the same messages to two groups of n receivers: one group
// shares a single view per message (the host's path for a broadcast
// envelope), the other wraps a private view per receiver (the path every
// receiver took when each decoded its own copy). Outcomes and per-receiver
// cache hit/miss counts must match exactly.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sftbft/core/chained_core.hpp"
#include "sftbft/obs/observer.hpp"
#include "sftbft/streamlet/streamlet.hpp"

namespace sftbft {
namespace {

using core::CheckedProposal;
using core::CheckedTimeout;
using streamlet::CheckedSProposal;
using streamlet::CheckedSVote;
using streamlet::SProposal;
using streamlet::SVote;
using types::Block;
using types::Proposal;
using types::QuorumCert;
using types::TimeoutCert;
using types::TimeoutMsg;
using types::Vote;

constexpr std::uint32_t kN = 4;  // f = 1
constexpr std::size_t kQuorum = 3;

/// One receiver's VerifyCache counts: vote hits, vote misses, cert hits,
/// cert misses.
using CacheCounts = std::array<std::uint64_t, 4>;

CacheCounts cache_counts(const obs::Observer& obs, ReplicaId id) {
  const obs::Registry& registry = obs.registry(id);
  return {registry.counter(obs::Counter::kVoteVerifyHits),
          registry.counter(obs::Counter::kVoteVerifyMisses),
          registry.counter(obs::Counter::kCertVerifyHits),
          registry.counter(obs::Counter::kCertVerifyMisses)};
}

/// kN chained cores on one registry, with nothing behind their hooks but
/// per-receiver vote counts.
class ChainedGroup {
 public:
  explicit ChainedGroup(std::shared_ptr<const crypto::KeyRegistry> registry)
      : obs_(obs::ObsConfig{.enabled = true}, kN) {
    for (ReplicaId id = 0; id < kN; ++id) {
      pools_.push_back(std::make_unique<mempool::Mempool>());
      payloads_.push_back(std::make_unique<core::Payloads>(*pools_.back()));
      core::CoreConfig config;
      config.id = id;
      config.n = kN;
      config.observer = &obs_;
      core::ChainedCore::Hooks hooks;
      hooks.send_vote = [this, id](ReplicaId, const Vote&) { ++votes_[id]; };
      hooks.broadcast_proposal = [](const Proposal&) {};
      hooks.broadcast_timeout = [](const TimeoutMsg&) {};
      cores_.push_back(std::make_unique<core::ChainedCore>(
          config, sched_, registry, *payloads_.back(), std::move(hooks)));
      cores_.back()->start();
    }
  }

  /// Every receiver handles the same view.
  void deliver_shared(const CheckedProposal& view) {
    for (auto& core : cores_) core->on_proposal(view);
  }
  /// Every receiver wraps its own view.
  void deliver_private(const Proposal& proposal) {
    for (auto& core : cores_) core->on_proposal(proposal);
  }

  [[nodiscard]] const core::ChainedCore& core(ReplicaId id) const {
    return *cores_[id];
  }
  core::ChainedCore& core(ReplicaId id) { return *cores_[id]; }
  [[nodiscard]] CacheCounts counts(ReplicaId id) const {
    return cache_counts(obs_, id);
  }
  [[nodiscard]] int votes(ReplicaId id) const { return votes_[id]; }

 private:
  sim::Scheduler sched_;
  obs::Observer obs_;
  std::vector<std::unique_ptr<mempool::Mempool>> pools_;
  std::vector<std::unique_ptr<core::Payloads>> payloads_;
  std::vector<std::unique_ptr<core::ChainedCore>> cores_;
  std::array<int, kN> votes_{};
};

/// Signed chained-kernel messages over one registry.
class ChainedMessages {
 public:
  explicit ChainedMessages(const crypto::KeyRegistry& registry)
      : registry_(registry) {}

  Proposal proposal(const Block& parent, Round round, const QuorumCert& qc) {
    Block block;
    block.parent_id = parent.id;
    block.round = round;
    block.height = parent.height + 1;
    block.proposer = static_cast<ReplicaId>(round % kN);
    block.qc = qc;
    block.seal();
    Proposal proposal;
    proposal.block = block;
    sign(proposal);
    return proposal;
  }

  void sign(Proposal& proposal) const {
    proposal.sig = registry_.signer_for(proposal.block.proposer)
                       .sign(proposal.signing_bytes());
  }

  /// A QC for `block` from voters 0..kQuorum-1, markers 0.
  QuorumCert qc(const Block& block) const {
    QuorumCert qc;
    qc.block_id = block.id;
    qc.round = block.round;
    qc.parent_id = block.parent_id;
    qc.parent_round = block.qc.round;
    for (ReplicaId voter = 0; voter < kQuorum; ++voter) {
      Vote vote;
      vote.block_id = block.id;
      vote.round = block.round;
      vote.voter = voter;
      vote.mode = types::VoteMode::Marker;
      vote.sig = registry_.signer_for(voter).sign(vote.signing_bytes());
      qc.add_vote(vote);
    }
    qc.canonicalize();
    return qc;
  }

  TimeoutMsg timeout(Round round, ReplicaId sender,
                     const QuorumCert& high_qc) const {
    TimeoutMsg msg;
    msg.round = round;
    msg.sender = sender;
    msg.high_qc = high_qc;
    msg.sig = registry_.signer_for(sender).sign(msg.signing_bytes());
    return msg;
  }

  /// A TC for `round` from senders 0..kQuorum-1, each attesting `high_qc`.
  TimeoutCert tc(Round round, const QuorumCert& high_qc) const {
    TimeoutCert tc;
    tc.round = round;
    for (ReplicaId sender = 0; sender < kQuorum; ++sender) {
      tc.add_timeout(timeout(round, sender, high_qc));
    }
    return tc;
  }

 private:
  const crypto::KeyRegistry& registry_;
};

QuorumCert genesis_qc() {
  QuorumCert qc;
  qc.block_id = Block::genesis().id;
  return qc;
}

/// The chain every chained case starts from: p1 (round 1, off genesis) and
/// p2 (round 2, carrying QC1), plus the round-3 proposal p3 carrying QC2
/// and a round-2 TC whose high QC is QC1.
struct ChainedFixture {
  std::shared_ptr<crypto::KeyRegistry> registry =
      std::make_shared<crypto::KeyRegistry>(kN, 9);
  ChainedMessages msgs{*registry};
  Proposal p1, p2, p3;
  QuorumCert qc1, qc2;

  ChainedFixture() {
    p1 = msgs.proposal(Block::genesis(), 1, genesis_qc());
    qc1 = msgs.qc(p1.block);
    p2 = msgs.proposal(p1.block, 2, qc1);
    qc2 = msgs.qc(p2.block);
    p3 = msgs.proposal(p2.block, 3, qc2);
    p3.tc = msgs.tc(2, qc1);
    msgs.sign(p3);
  }
};

void expect_same_receivers(const ChainedGroup& shared,
                           const ChainedGroup& own, const std::string& what) {
  for (ReplicaId id = 0; id < kN; ++id) {
    EXPECT_EQ(shared.counts(id), own.counts(id))
        << what << ": cache counts of receiver " << id;
    EXPECT_EQ(shared.votes(id), own.votes(id))
        << what << ": votes of receiver " << id;
    EXPECT_EQ(shared.core(id).tree().size(), own.core(id).tree().size())
        << what << ": tree of receiver " << id;
  }
}

TEST(SharedCheck, TamperedProposalsRejectedByEveryReceiverAsOnPrivatePath) {
  ChainedFixture fx;
  ChainedGroup shared(fx.registry);
  ChainedGroup own(fx.registry);
  for (const Proposal* valid : {&fx.p1, &fx.p2}) {
    const net::Envelope env =
        net::Envelope::pack(net::WireType::kProposal, 0, *valid);
    shared.deliver_shared(CheckedProposal::of(env));
    own.deliver_private(*valid);
  }
  expect_same_receivers(shared, own, "valid chain");

  struct Tamper {
    std::string name;
    std::function<void(Proposal&)> apply;
  };
  const std::vector<Tamper> tampers = {
      {"bad block id",
       [&](Proposal& p) {
         p.block.id.bytes[0] ^= 1;
         fx.msgs.sign(p);
       }},
      {"bad Log digest",
       [&](Proposal& p) {
         p.commit_log.push_back({fx.p1.block.id, 1, 1});
         fx.msgs.sign(p);
       }},
      {"wrong proposer MAC", [](Proposal& p) { p.sig.mac[0] ^= 1; }},
      {"flipped QC tag",
       [&](Proposal& p) {
         p.block.qc.agg.tag[0] ^= 1;
         p.block.seal();
         fx.msgs.sign(p);
       }},
      {"misaligned QC voters",
       [&](Proposal& p) {
         p.block.qc.votes[0].voter = 3;
         p.block.seal();
         fx.msgs.sign(p);
       }},
      {"TC with a lowered high-QC round",
       [](Proposal& p) { p.tc->high_qc = genesis_qc(); }},
  };
  for (const Tamper& tamper : tampers) {
    Proposal bad = fx.p3;
    tamper.apply(bad);
    // In-memory view: a misaligned QC has no wire encoding to carry it.
    const CheckedProposal view(bad);
    shared.deliver_shared(view);
    own.deliver_private(bad);
    for (ReplicaId id = 0; id < kN; ++id) {
      EXPECT_FALSE(shared.core(id).tree().contains(bad.block.id))
          << tamper.name << ": accepted by receiver " << id;
    }
    expect_same_receivers(shared, own, tamper.name);
  }

  // The genuine proposal is still accepted everywhere, with every receiver's
  // cache in the same state on both paths.
  const net::Envelope env =
      net::Envelope::pack(net::WireType::kProposal, 3, fx.p3);
  shared.deliver_shared(CheckedProposal::of(env));
  own.deliver_private(fx.p3);
  for (ReplicaId id = 0; id < kN; ++id) {
    EXPECT_TRUE(shared.core(id).tree().contains(fx.p3.block.id));
  }
  expect_same_receivers(shared, own, "genuine p3");
}

TEST(SharedCheck, OneDecodeAndAtMostOneRefoldPerCertificatePerBroadcast) {
  ChainedFixture fx;
  ChainedGroup shared(fx.registry);
  ChainedGroup own(fx.registry);
  for (const Proposal* valid : {&fx.p1, &fx.p2}) {
    shared.deliver_private(*valid);
    own.deliver_private(*valid);
  }

  const net::Envelope env =
      net::Envelope::pack(net::WireType::kProposal, 3, fx.p3);
  const CheckedProposal& view = CheckedProposal::of(env);
  std::uint64_t before = fx.registry->aggregate_refolds();
  for (ReplicaId id = 0; id < kN; ++id) {
    const CheckedProposal& mine = CheckedProposal::of(env);
    EXPECT_EQ(&mine, &view) << "receiver " << id << " decoded again";
    shared.core(id).on_proposal(mine);
  }
  // QC2 and the TC refold once for all receivers; the TC's high QC (QC1)
  // is in every receiver's cert memo already, so nobody refolds it.
  EXPECT_EQ(fx.registry->aggregate_refolds() - before, 2u);

  before = fx.registry->aggregate_refolds();
  own.deliver_private(fx.p3);
  EXPECT_EQ(fx.registry->aggregate_refolds() - before, 2u * kN);
  expect_same_receivers(shared, own, "p3");

  // A broadcast timeout: one decode, one refold of a high QC nobody holds.
  const QuorumCert qc3 = fx.msgs.qc(fx.p3.block);
  const TimeoutMsg timeout = fx.msgs.timeout(3, 1, qc3);
  const net::Envelope timeout_env =
      net::Envelope::pack(net::WireType::kTimeout, 1, timeout);
  before = fx.registry->aggregate_refolds();
  for (ReplicaId id = 0; id < kN; ++id) {
    EXPECT_EQ(&CheckedTimeout::of(timeout_env),
              &CheckedTimeout::of(timeout_env));
    shared.core(id).on_timeout_msg(CheckedTimeout::of(timeout_env));
  }
  EXPECT_EQ(fx.registry->aggregate_refolds() - before, 1u);
  before = fx.registry->aggregate_refolds();
  for (ReplicaId id = 0; id < kN; ++id) own.core(id).on_timeout_msg(timeout);
  EXPECT_EQ(fx.registry->aggregate_refolds() - before, 1u * kN);
  expect_same_receivers(shared, own, "timeout");
}

TEST(SharedCheck, QuorumIsCheckedPerReceiver) {
  ChainedFixture fx;
  const CheckedProposal view(fx.p3);
  crypto::VerifyCache strict;
  crypto::VerifyCache lax;
  // A receiver needing every replica rejects the 3-vote QC and TC; one
  // needing three accepts them, whichever asks first.
  EXPECT_FALSE(view.qc_valid(*fx.registry, kN, &strict));
  EXPECT_TRUE(view.qc_valid(*fx.registry, kQuorum, &lax));
  EXPECT_FALSE(view.qc_valid(*fx.registry, kN, &strict));
  EXPECT_TRUE(view.tc_valid(*fx.registry, kQuorum, &lax));
  EXPECT_FALSE(view.tc_valid(*fx.registry, kN, &strict));

  const CheckedTimeout timeout(fx.msgs.timeout(3, 1, fx.qc2));
  EXPECT_TRUE(timeout.high_qc_valid(*fx.registry, kQuorum, &lax));
  EXPECT_FALSE(timeout.high_qc_valid(*fx.registry, kN, &strict));
}

TEST(SharedCheck, CertMemoLookupIsPerReceiver) {
  ChainedFixture fx;
  const CheckedProposal view(fx.p2);
  crypto::VerifyCache warm;
  ASSERT_TRUE(fx.qc1.verify(*fx.registry, kQuorum, &warm));
  ASSERT_EQ(warm.cert_misses(), 1u);

  // The warm receiver hits; a cold one sharing the view still misses,
  // and records the certificate for its own next check.
  crypto::VerifyCache cold;
  EXPECT_TRUE(view.qc_valid(*fx.registry, kQuorum, &warm));
  EXPECT_EQ(warm.cert_hits(), 1u);
  EXPECT_TRUE(view.qc_valid(*fx.registry, kQuorum, &cold));
  EXPECT_EQ(cold.cert_hits(), 0u);
  EXPECT_EQ(cold.cert_misses(), 1u);
  EXPECT_TRUE(view.qc_valid(*fx.registry, kQuorum, &cold));
  EXPECT_EQ(cold.cert_hits(), 1u);

  // Same for the proposer's MAC: a miss stores it for that receiver only.
  crypto::VerifyCache first;
  crypto::VerifyCache second;
  EXPECT_TRUE(view.signature_valid(*fx.registry, &first));
  EXPECT_TRUE(view.signature_valid(*fx.registry, &second));
  EXPECT_EQ(first.vote_misses(), 1u);
  EXPECT_EQ(second.vote_misses(), 1u);
  EXPECT_TRUE(view.signature_valid(*fx.registry, &second));
  EXPECT_EQ(second.vote_hits(), 1u);
}

/// kN Streamlet cores on one registry (echo off), counting the votes each
/// admits.
class StreamletGroup {
 public:
  explicit StreamletGroup(std::shared_ptr<const crypto::KeyRegistry> registry)
      : obs_(obs::ObsConfig{.enabled = true}, kN) {
    for (ReplicaId id = 0; id < kN; ++id) {
      pools_.push_back(std::make_unique<mempool::Mempool>());
      payloads_.push_back(std::make_unique<core::Payloads>(*pools_.back()));
      streamlet::StreamletConfig config;
      config.id = id;
      config.n = kN;
      config.echo = false;
      config.observer = &obs_;
      streamlet::StreamletCore::Hooks hooks;
      hooks.broadcast_proposal = [](const SProposal&) {};
      hooks.broadcast_vote = [](const SVote&) {};
      hooks.on_vote_seen = [this, id](const SVote&) { ++votes_seen_[id]; };
      cores_.push_back(std::make_unique<streamlet::StreamletCore>(
          config, sched_, registry, *payloads_.back(), std::move(hooks)));
    }
  }

  void deliver_shared(const CheckedSProposal& view) {
    for (auto& core : cores_) core->on_proposal(view);
  }
  void deliver_private(const SProposal& proposal) {
    for (auto& core : cores_) core->on_proposal(proposal);
  }
  void deliver_shared(const CheckedSVote& view) {
    for (auto& core : cores_) core->on_vote(view);
  }
  void deliver_private(const SVote& vote) {
    for (auto& core : cores_) core->on_vote(vote);
  }

  [[nodiscard]] const streamlet::StreamletCore& core(ReplicaId id) const {
    return *cores_[id];
  }
  [[nodiscard]] CacheCounts counts(ReplicaId id) const {
    return cache_counts(obs_, id);
  }
  [[nodiscard]] int votes_seen(ReplicaId id) const { return votes_seen_[id]; }

 private:
  sim::Scheduler sched_;
  obs::Observer obs_;
  std::vector<std::unique_ptr<mempool::Mempool>> pools_;
  std::vector<std::unique_ptr<core::Payloads>> payloads_;
  std::vector<std::unique_ptr<streamlet::StreamletCore>> cores_;
  std::array<int, kN> votes_seen_{};
};

void expect_same_receivers(const StreamletGroup& shared,
                           const StreamletGroup& own,
                           const std::string& what) {
  for (ReplicaId id = 0; id < kN; ++id) {
    EXPECT_EQ(shared.counts(id), own.counts(id))
        << what << ": cache counts of receiver " << id;
    EXPECT_EQ(shared.votes_seen(id), own.votes_seen(id))
        << what << ": votes admitted by receiver " << id;
    EXPECT_EQ(shared.core(id).tree().size(), own.core(id).tree().size())
        << what << ": tree of receiver " << id;
  }
}

TEST(SharedCheck, StreamletVotesAndProposalsMatchPrivatePath) {
  const auto registry = std::make_shared<crypto::KeyRegistry>(kN, 9);
  StreamletGroup shared(registry);
  StreamletGroup own(registry);

  Block block;
  block.parent_id = Block::genesis().id;
  block.round = 1;
  block.height = 1;
  block.proposer = 1;
  block.qc.block_id = Block::genesis().id;
  block.seal();
  SProposal proposal{block, {}};
  proposal.sig =
      registry->signer_for(block.proposer).sign(proposal.signing_bytes());
  const net::Envelope proposal_env =
      net::Envelope::pack(net::WireType::kSProposal, 1, proposal);
  EXPECT_EQ(&CheckedSProposal::of(proposal_env),
            &CheckedSProposal::of(proposal_env));
  // Twice: the second delivery is the duplicate (an echo) every receiver
  // drops before any check.
  for (int copy = 0; copy < 2; ++copy) {
    shared.deliver_shared(CheckedSProposal::of(proposal_env));
    own.deliver_private(proposal);
  }
  for (ReplicaId id = 0; id < kN; ++id) {
    EXPECT_TRUE(shared.core(id).tree().contains(block.id));
  }
  expect_same_receivers(shared, own, "proposal");

  auto vote_by = [&](ReplicaId voter) {
    SVote vote;
    vote.block_id = block.id;
    vote.round = block.round;
    vote.height = block.height;
    vote.voter = voter;
    vote.sig = registry->signer_for(voter).sign(vote.signing_bytes());
    return vote;
  };
  const SVote genuine = vote_by(1);
  const net::Envelope vote_env =
      net::Envelope::pack(net::WireType::kSVote, 1, genuine);
  EXPECT_EQ(&CheckedSVote::of(vote_env), &CheckedSVote::of(vote_env));
  shared.deliver_shared(CheckedSVote::of(vote_env));
  own.deliver_private(genuine);
  expect_same_receivers(shared, own, "genuine vote");

  // Bad SVote MACs: one over bytes every receiver has a MAC memo for (a
  // hit that must still fail), one over fresh bytes (a miss).
  for (const ReplicaId voter : {ReplicaId{1}, ReplicaId{2}}) {
    SVote bad = vote_by(voter);
    bad.sig.mac[0] ^= 1;
    const net::Envelope bad_env =
        net::Envelope::pack(net::WireType::kSVote, voter, bad);
    shared.deliver_shared(CheckedSVote::of(bad_env));
    own.deliver_private(bad);
    for (ReplicaId id = 0; id < kN; ++id) {
      EXPECT_EQ(shared.votes_seen(id), 1) << "bad vote admitted by " << id;
    }
    expect_same_receivers(shared, own,
                          "bad SVote MAC by " + std::to_string(voter));
  }
}

}  // namespace
}  // namespace sftbft
