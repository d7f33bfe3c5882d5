// Sec. 5 light-client proofs: build from a live replica, verify with only
// the PKI, and reject every class of tampering.
#include <gtest/gtest.h>

#include "sftbft/lightclient/light_client.hpp"
#include "sftbft/engine/deployment.hpp"

namespace sftbft {
namespace {

using engine::Deployment;
using engine::DeploymentConfig;

class LightClientTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kN = 7;
  static constexpr std::uint32_t kF = 2;

  void SetUp() override {
    DeploymentConfig config;
    config.n = kN;
    config.chained.mode = consensus::CoreMode::SftMarker;
    config.chained.base_timeout = millis(500);
    config.chained.leader_processing = millis(5);
    config.chained.max_batch = 10;
    config.topology = net::Topology::uniform(kN, millis(10));
    config.net.jitter = millis(2);
    config.seed = 9;
    cluster_ = std::make_unique<Deployment>(std::move(config));
    cluster_->start();
    cluster_->run_for(seconds(8));
  }

  /// A 2f-strong committed block id from replica 0's ledger.
  types::BlockId strong_block() {
    for (const auto& entry : cluster_->chained_core(0).ledger().snapshot()) {
      if (entry.strength >= 2 * kF) return entry.block_id;
    }
    ADD_FAILURE() << "no 2f-strong block";
    return {};
  }

  std::unique_ptr<Deployment> cluster_;
};

TEST_F(LightClientTest, BuildAndVerify) {
  const auto target = strong_block();
  const auto proof =
      lightclient::build_proof(cluster_->chained_core(0), target, 2 * kF);
  ASSERT_TRUE(proof.has_value());
  lightclient::LightClient client(cluster_->registry(), kN);
  EXPECT_TRUE(client.verify(*proof));
}

TEST_F(LightClientTest, ProofsPortableAcrossReplicas) {
  // A proof built by one full node verifies for a client that has never
  // talked to it; and other replicas can build equivalent proofs.
  const auto target = strong_block();
  lightclient::LightClient client(cluster_->registry(), kN);
  int provers = 0;
  for (ReplicaId id = 0; id < kN; ++id) {
    const auto proof =
        lightclient::build_proof(cluster_->chained_core(id), target, 2 * kF);
    if (proof.has_value()) {
      EXPECT_TRUE(client.verify(*proof)) << "prover " << id;
      ++provers;
    }
  }
  EXPECT_GE(provers, static_cast<int>(2 * kF + 1));
}

TEST_F(LightClientTest, RejectsInflatedStrength) {
  const auto target = strong_block();
  auto proof =
      lightclient::build_proof(cluster_->chained_core(0), target, 2 * kF);
  ASSERT_TRUE(proof.has_value());
  lightclient::LightClient client(cluster_->registry(), kN);

  auto forged = *proof;
  forged.strength = 2 * kF + 1;  // above the 2f ceiling
  EXPECT_FALSE(client.verify(forged));

  forged = *proof;
  forged.entry.strength += 1;  // entry no longer matches the signed log
  EXPECT_FALSE(client.verify(forged));
}

TEST_F(LightClientTest, RejectsTamperedCarrier) {
  const auto target = strong_block();
  auto proof =
      lightclient::build_proof(cluster_->chained_core(0), target, 2 * kF);
  ASSERT_TRUE(proof.has_value());
  lightclient::LightClient client(cluster_->registry(), kN);

  auto forged = *proof;
  forged.carrier.commit_log.push_back(
      {.block_id = target, .round = 1, .strength = 2 * kF});
  EXPECT_FALSE(client.verify(forged));  // signature no longer covers the log

  forged = *proof;
  forged.carrier.block.round += 1;  // block id no longer matches content
  EXPECT_FALSE(client.verify(forged));
}

TEST_F(LightClientTest, RejectsThinOrForeignQc) {
  const auto target = strong_block();
  auto proof =
      lightclient::build_proof(cluster_->chained_core(0), target, 2 * kF);
  ASSERT_TRUE(proof.has_value());
  lightclient::LightClient client(cluster_->registry(), kN);

  auto forged = *proof;
  forged.carrier_qc.votes.resize(2 * kF);  // below quorum
  EXPECT_FALSE(client.verify(forged));

  forged = *proof;
  forged.carrier_qc.round += 1;  // certifies a different round
  EXPECT_FALSE(client.verify(forged));
}

TEST_F(LightClientTest, RejectsBrokenAncestryPath) {
  const auto target = strong_block();
  auto proof =
      lightclient::build_proof(cluster_->chained_core(0), target, 2 * kF);
  ASSERT_TRUE(proof.has_value());
  lightclient::LightClient client(cluster_->registry(), kN);

  auto forged = *proof;
  forged.target.bytes[5] ^= 0x01;  // proof is not about this block
  EXPECT_FALSE(client.verify(forged));

  if (!proof->path.empty()) {
    forged = *proof;
    forged.path.pop_back();  // path no longer reaches the logged head
    EXPECT_FALSE(client.verify(forged));
  }
}

TEST_F(LightClientTest, RejectsDuplicateSignerQc) {
  // An adversary controlling f + 1 replicas padding a QC to 2f + 1 votes by
  // repeating its own signers: size passes, distinctness must not.
  const auto target = strong_block();
  auto proof =
      lightclient::build_proof(cluster_->chained_core(0), target, 2 * kF);
  ASSERT_TRUE(proof.has_value());
  lightclient::LightClient client(cluster_->registry(), kN);

  auto forged = *proof;
  ASSERT_GE(forged.carrier_qc.votes.size(), 2u);
  forged.carrier_qc.votes[1] = forged.carrier_qc.votes[0];  // duplicate voter
  EXPECT_FALSE(client.verify(forged));
}

TEST_F(LightClientTest, RejectsAdversaryForgedCommitLog) {
  // A corrupted leader CAN sign a carrier proposal whose Log claims any
  // strength it likes — the proof must still die on the certification step:
  // without 2f + 1 distinct honest-or-not voters the Log is worthless.
  const auto target = strong_block();
  const auto honest =
      lightclient::build_proof(cluster_->chained_core(0), target, 2 * kF);
  ASSERT_TRUE(honest.has_value());
  lightclient::LightClient client(cluster_->registry(), kN);

  auto forged = *honest;
  // The corrupted proposer rewrites the Log entry to an inflated strength
  // and re-signs the proposal with its own (legitimate) key.
  ASSERT_FALSE(forged.carrier.commit_log.empty());
  forged.carrier.commit_log[0].strength = 2 * kF;
  forged.entry = forged.carrier.commit_log[0];
  forged.target = forged.entry.block_id;
  forged.path.clear();
  const ReplicaId proposer = forged.carrier.block.proposer;
  forged.carrier.sig = cluster_->registry()
                           ->signer_for(proposer)
                           .sign(forged.carrier.signing_bytes());
  // The proposer's re-signature is valid, but the Log digest sealed into
  // the (still certified) block header no longer matches the rewritten Log.
  EXPECT_FALSE(client.verify(forged));

  // Even rebuilding the carrier block around the forged Log fails: the new
  // block id voids the original QC, and the f + 1 colluding replicas cannot
  // produce 2f + 1 distinct valid votes for the rebuilt block — their
  // refolded aggregate is genuine but its signer bitmap is sub-quorum.
  forged.carrier.block.log_digest =
      types::commit_log_digest(forged.carrier.commit_log);
  forged.carrier.block.seal();
  forged.carrier.sig = cluster_->registry()
                           ->signer_for(proposer)
                           .sign(forged.carrier.signing_bytes());
  forged.carrier_qc.block_id = forged.carrier.block.id;
  forged.carrier_qc.votes.clear();
  forged.carrier_qc.agg = {};
  for (ReplicaId colluder = 0; colluder <= kF; ++colluder) {  // only f+1 keys
    types::Vote vote;
    vote.block_id = forged.carrier.block.id;
    vote.round = forged.carrier_qc.round;
    vote.voter = colluder;
    vote.mode = types::VoteMode::Marker;
    vote.sig = cluster_->registry()->signer_for(colluder).sign(
        vote.signing_bytes());
    forged.carrier_qc.add_vote(vote);
  }
  forged.carrier_qc.canonicalize();
  EXPECT_FALSE(client.verify(forged));
}

TEST_F(LightClientTest, RejectsForgedAggregateTag) {
  const auto target = strong_block();
  auto proof =
      lightclient::build_proof(cluster_->chained_core(0), target, 2 * kF);
  ASSERT_TRUE(proof.has_value());
  lightclient::LightClient client(cluster_->registry(), kN);

  auto forged = *proof;
  forged.carrier_qc.agg.tag[11] ^= 0x40;  // forged aggregate tag
  EXPECT_FALSE(client.verify(forged));
}

TEST_F(LightClientTest, RejectsBitmapMetadataLengthMismatch) {
  const auto target = strong_block();
  auto proof =
      lightclient::build_proof(cluster_->chained_core(0), target, 2 * kF);
  ASSERT_TRUE(proof.has_value());
  lightclient::LightClient client(cluster_->registry(), kN);

  // One more meta than the bitmap names (and the mirror image).
  auto forged = *proof;
  forged.carrier_qc.votes.push_back(forged.carrier_qc.votes.back());
  forged.carrier_qc.votes.back().voter = kN - 1;
  EXPECT_FALSE(client.verify(forged));

  forged = *proof;
  forged.carrier_qc.votes.pop_back();
  EXPECT_FALSE(client.verify(forged));
}

TEST_F(LightClientTest, MemoBypassTamperFailsFreshVerification) {
  // The client memoizes successful certificate verifications by the digest
  // of the certificate's full canonical encoding. Mutating *any* byte after
  // a successful verification must miss the memo and fail a fresh check —
  // the memo can never be used to launder a tampered certificate.
  const auto target = strong_block();
  const auto proof =
      lightclient::build_proof(cluster_->chained_core(0), target, 2 * kF);
  ASSERT_TRUE(proof.has_value());
  lightclient::LightClient client(cluster_->registry(), kN);

  ASSERT_TRUE(client.verify(*proof));  // warms the client's memo

  auto tampered = *proof;
  tampered.carrier_qc.agg.tag[3] ^= 0x80;
  EXPECT_FALSE(client.verify(tampered));

  auto meta_tampered = *proof;
  ASSERT_FALSE(meta_tampered.carrier_qc.votes.empty());
  meta_tampered.carrier_qc.votes[0].meta.marker += 1;
  EXPECT_FALSE(client.verify(meta_tampered));

  auto bitmap_tampered = *proof;
  // Swap one voter identity in both the bitmap and the meta list: lengths
  // still align, but the folded MACs belong to the original voter set.
  const ReplicaId absent = [&] {
    for (ReplicaId id = 0; id < kN; ++id) {
      if (!bitmap_tampered.carrier_qc.agg.signers.test(id)) return id;
    }
    return kNoReplica;
  }();
  if (absent != kNoReplica) {
    auto& qc = bitmap_tampered.carrier_qc;
    const ReplicaId swapped_out = qc.votes.back().voter;
    qc.agg.signers.clear(swapped_out);
    qc.agg.signers.set(absent);
    qc.votes.back().voter = absent;
    qc.canonicalize();
    EXPECT_FALSE(client.verify(bitmap_tampered));
  }

  // The untampered proof still verifies after all the failed attempts.
  EXPECT_TRUE(client.verify(*proof));
}

TEST_F(LightClientTest, RejectsTruncatedBlockPath) {
  // Find a proof whose claim rides on a descendant 3-chain head, so the
  // ancestry path is non-empty, then truncate it at both ends.
  lightclient::LightClient client(cluster_->registry(), kN);
  const auto& core = cluster_->chained_core(0);
  for (const auto& entry : core.ledger().snapshot()) {
    if (entry.strength < 2 * kF) continue;
    const auto proof =
        lightclient::build_proof(core, entry.block_id, 2 * kF);
    if (!proof || proof->path.empty()) continue;
    ASSERT_TRUE(client.verify(*proof));

    auto forged = *proof;
    forged.path.pop_back();  // no longer reaches the logged head
    EXPECT_FALSE(client.verify(forged));

    forged = *proof;
    forged.path.erase(forged.path.begin());  // no longer starts at target
    EXPECT_FALSE(client.verify(forged));

    forged = *proof;
    forged.path.clear();  // claim about an ancestor with no path at all
    EXPECT_FALSE(client.verify(forged));
    return;
  }
  GTEST_SKIP() << "no proof with a non-empty ancestry path in this run";
}

TEST_F(LightClientTest, BuildFailsForUnprovableClaims) {
  const auto target = strong_block();
  // Nobody can prove strength above 2f.
  EXPECT_FALSE(lightclient::build_proof(cluster_->chained_core(0), target,
                                        2 * kF + 1)
                   .has_value());
  // Unknown block.
  types::BlockId unknown{};
  unknown.bytes[1] = 0xee;
  EXPECT_FALSE(
      lightclient::build_proof(cluster_->chained_core(0), unknown, kF)
          .has_value());
}

}  // namespace
}  // namespace sftbft
