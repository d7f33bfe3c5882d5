// Protocol types: canonical serialization round-trips (parameterized over
// vote modes and randomized contents), digest stability, QC/TC validation.
#include <gtest/gtest.h>

#include "sftbft/common/rng.hpp"
#include "sftbft/crypto/signature.hpp"
#include "sftbft/types/proposal.hpp"

namespace sftbft::types {
namespace {

crypto::KeyRegistry& registry() {
  static crypto::KeyRegistry reg(7, 5);
  return reg;
}

Vote make_signed_vote(ReplicaId voter, const BlockId& block_id, Round round,
                      VoteMode mode, Round marker = 0) {
  Vote vote;
  vote.block_id = block_id;
  vote.round = round;
  vote.voter = voter;
  vote.mode = mode;
  vote.marker = marker;
  if (mode == VoteMode::Intervals) {
    vote.endorsed = IntervalSet::single(marker + 1, round);
  }
  vote.sig = registry().signer_for(voter).sign(vote.signing_bytes());
  return vote;
}

Block make_block(const Block& parent, Round round) {
  Block block;
  block.parent_id = parent.id;
  block.round = round;
  block.height = parent.height + 1;
  block.proposer = static_cast<ReplicaId>(round % 7);
  block.qc.block_id = parent.id;
  block.qc.round = parent.round;
  block.payload.txns.push_back({.id = round, .submitted_at = 1, .size_bytes = 450});
  block.seal();
  return block;
}

// ------------------------------------------------------------------ votes

class VoteModeRoundTrip : public ::testing::TestWithParam<VoteMode> {};

TEST_P(VoteModeRoundTrip, EncodeDecodeIdentity) {
  const Block genesis = Block::genesis();
  const Vote vote = make_signed_vote(3, genesis.id, 9, GetParam(), 4);
  Encoder enc;
  vote.encode(enc);
  Decoder dec(enc.data());
  EXPECT_EQ(Vote::decode(dec), vote);
  EXPECT_TRUE(dec.exhausted());
}

TEST_P(VoteModeRoundTrip, SigningBytesCoverMode) {
  const Block genesis = Block::genesis();
  Vote vote = make_signed_vote(3, genesis.id, 9, GetParam(), 4);
  const Bytes original = vote.signing_bytes();
  vote.marker += 1;
  EXPECT_NE(vote.signing_bytes(), original);  // marker is signed
}

INSTANTIATE_TEST_SUITE_P(AllModes, VoteModeRoundTrip,
                         ::testing::Values(VoteMode::Plain, VoteMode::Marker,
                                           VoteMode::Intervals));

TEST(Vote, EndorsementSemantics) {
  Vote vote;
  vote.round = 10;
  vote.mode = VoteMode::Marker;
  vote.marker = 6;
  EXPECT_TRUE(vote.endorses_round(10));  // own block, always
  EXPECT_TRUE(vote.endorses_round(7));   // 7 > marker
  EXPECT_FALSE(vote.endorses_round(6));  // 6 == marker: blocked
  EXPECT_FALSE(vote.endorses_round(2));

  vote.mode = VoteMode::Plain;
  EXPECT_TRUE(vote.endorses_round(10));
  EXPECT_FALSE(vote.endorses_round(9));  // plain votes are direct-only

  vote.mode = VoteMode::Intervals;
  vote.endorsed = IntervalSet::single(4, 10);
  vote.endorsed.subtract(6, 7);
  EXPECT_TRUE(vote.endorses_round(5));
  EXPECT_FALSE(vote.endorses_round(6));  // hole
  EXPECT_TRUE(vote.endorses_round(8));
  EXPECT_FALSE(vote.endorses_round(3));
}

TEST(Vote, DecodeRejectsBadMode) {
  const Block genesis = Block::genesis();
  Vote vote = make_signed_vote(0, genesis.id, 1, VoteMode::Plain);
  Encoder enc;
  vote.encode(enc);
  Bytes raw = enc.take();
  raw[32 + 8 + 4] = 9;  // mode byte
  Decoder dec(raw);
  EXPECT_THROW(Vote::decode(dec), CodecError);
}

// -------------------------------------------------------------------- QCs

TEST(QuorumCert, VerifyAcceptsValidQuorum) {
  const Block genesis = Block::genesis();
  const Block block = make_block(genesis, 1);
  QuorumCert qc;
  qc.block_id = block.id;
  qc.round = 1;
  qc.parent_id = genesis.id;
  qc.parent_round = 0;
  for (ReplicaId voter = 0; voter < 5; ++voter) {
    EXPECT_TRUE(
        qc.add_vote(make_signed_vote(voter, block.id, 1, VoteMode::Marker)));
  }
  qc.canonicalize();
  EXPECT_TRUE(qc.verify(registry(), 5));
}

TEST(QuorumCert, VerifyRejectsBelowQuorum) {
  const Block block = make_block(Block::genesis(), 1);
  QuorumCert qc;
  qc.block_id = block.id;
  qc.round = 1;
  for (ReplicaId voter = 0; voter < 4; ++voter) {
    qc.add_vote(make_signed_vote(voter, block.id, 1, VoteMode::Marker));
  }
  qc.canonicalize();
  EXPECT_FALSE(qc.verify(registry(), 5));
}

TEST(QuorumCert, DuplicateVoterCannotFoldTwice) {
  // The aggregate refuses a second fold of the same signer (XOR would cancel
  // the first), so a duplicate voter is unrepresentable through the builder.
  const Block block = make_block(Block::genesis(), 1);
  QuorumCert qc;
  qc.block_id = block.id;
  qc.round = 1;
  const Vote vote = make_signed_vote(2, block.id, 1, VoteMode::Marker);
  EXPECT_TRUE(qc.add_vote(vote));
  EXPECT_FALSE(qc.add_vote(vote));
  EXPECT_EQ(qc.votes.size(), 1u);
  EXPECT_EQ(qc.agg.signers.popcount(), 1u);
}

TEST(QuorumCert, VerifyRejectsMetaBitmapMisalignment) {
  // A hand-crafted votes list that disagrees with the signer bitmap (here: a
  // duplicate-voter meta smuggled in past the aggregate) must not verify.
  const Block block = make_block(Block::genesis(), 1);
  QuorumCert qc;
  qc.block_id = block.id;
  qc.round = 1;
  for (ReplicaId voter = 0; voter < 5; ++voter) {
    qc.add_vote(make_signed_vote(voter, block.id, 1, VoteMode::Marker));
  }
  qc.votes.push_back(qc.votes[2]);  // bitmap still has 5 bits
  qc.canonicalize();
  EXPECT_FALSE(qc.verify(registry(), 5));
}

TEST(QuorumCert, VerifyRejectsWrongBlock) {
  const Block block = make_block(Block::genesis(), 1);
  const Block other = make_block(Block::genesis(), 2);
  QuorumCert qc;
  qc.block_id = block.id;
  qc.round = 1;
  for (ReplicaId voter = 0; voter < 4; ++voter) {
    qc.add_vote(make_signed_vote(voter, block.id, 1, VoteMode::Marker));
  }
  // Voter 4 signed a different block: the recomputed MAC over *this* QC's
  // block id cannot match what got folded into the tag.
  qc.add_vote(make_signed_vote(4, other.id, 1, VoteMode::Marker));
  qc.canonicalize();
  EXPECT_FALSE(qc.verify(registry(), 5));
}

TEST(QuorumCert, VerifyRejectsTamperedMarker) {
  const Block block = make_block(Block::genesis(), 1);
  QuorumCert qc;
  qc.block_id = block.id;
  qc.round = 1;
  for (ReplicaId voter = 0; voter < 5; ++voter) {
    qc.add_vote(make_signed_vote(voter, block.id, 1, VoteMode::Marker, 2));
  }
  qc.votes[3].meta.marker = 0;  // lie about history without re-signing
  qc.canonicalize();
  EXPECT_FALSE(qc.verify(registry(), 5));
}

TEST(QuorumCert, VerifyRejectsForgedAggregateTag) {
  const Block block = make_block(Block::genesis(), 1);
  QuorumCert qc;
  qc.block_id = block.id;
  qc.round = 1;
  for (ReplicaId voter = 0; voter < 5; ++voter) {
    qc.add_vote(make_signed_vote(voter, block.id, 1, VoteMode::Marker));
  }
  qc.canonicalize();
  ASSERT_TRUE(qc.verify(registry(), 5));
  qc.agg.tag[7] ^= 0x20;
  EXPECT_FALSE(qc.verify(registry(), 5));
}

TEST(QuorumCert, GenesisQcIsValid) {
  QuorumCert qc;  // round 0, no votes
  EXPECT_TRUE(qc.is_genesis());
  EXPECT_TRUE(qc.verify(registry(), 5));
}

TEST(QuorumCert, CanonicalizeSortsByVoter) {
  const Block block = make_block(Block::genesis(), 1);
  QuorumCert qc;
  for (ReplicaId voter : {4u, 1u, 3u}) {
    qc.add_vote(make_signed_vote(voter, block.id, 1, VoteMode::Plain));
  }
  qc.canonicalize();
  EXPECT_EQ(qc.votes[0].voter, 1u);
  EXPECT_EQ(qc.votes[1].voter, 3u);
  EXPECT_EQ(qc.votes[2].voter, 4u);
}

TEST(QuorumCert, DigestBindsVoterSet) {
  const Block block = make_block(Block::genesis(), 1);
  QuorumCert qc;
  qc.block_id = block.id;
  qc.round = 1;
  for (ReplicaId voter = 0; voter < 5; ++voter) {
    qc.add_vote(make_signed_vote(voter, block.id, 1, VoteMode::Marker));
  }
  const auto base = qc.digest();
  // The digest is memoized per object and survives copies; editing a copy
  // requires the documented canonicalize() refresh before digest() speaks
  // for the new content again.
  QuorumCert more = qc;
  more.add_vote(make_signed_vote(5, block.id, 1, VoteMode::Marker));
  more.canonicalize();
  EXPECT_NE(more.digest(), base);
  QuorumCert tampered = qc;
  tampered.votes[0].meta.marker = 7;
  EXPECT_EQ(tampered.digest(), base);  // stale memo until the refresh point
  tampered.canonicalize();
  EXPECT_NE(tampered.digest(), base);
  // An untouched copy shares the memo (and the answer).
  const QuorumCert copy = qc;
  EXPECT_EQ(copy.digest(), base);
}

// ------------------------------------------------------------------ blocks

TEST(Block, SealedIdDetectsTampering) {
  Block block = make_block(Block::genesis(), 3);
  EXPECT_TRUE(block.id_is_valid());
  block.round = 4;
  EXPECT_FALSE(block.id_is_valid());
  block.seal();
  EXPECT_TRUE(block.id_is_valid());
}

TEST(Block, RoundTrip) {
  const Block block = make_block(Block::genesis(), 3);
  Encoder enc;
  block.encode(enc);
  Decoder dec(enc.data());
  EXPECT_EQ(Block::decode(dec), block);
}

TEST(Block, EncodedSizeCarriesTransactionBodies) {
  // The canonical encoding materializes each transaction's synthetic body,
  // so encoded blocks really are block-sized (the transport charges exactly
  // these bytes) while decode stays compact (bodies are skipped).
  Block block = make_block(Block::genesis(), 1);
  Encoder base_enc;
  block.encode(base_enc);
  const std::size_t base = base_enc.data().size();
  block.payload.txns.push_back({.id = 99, .submitted_at = 0, .size_bytes = 4500});
  block.seal();
  Encoder enc;
  block.encode(enc);
  EXPECT_GE(enc.data().size(), base + 4500);
  Decoder dec(enc.data());
  const Block decoded = Block::decode(dec);
  EXPECT_EQ(decoded, block);
  EXPECT_TRUE(dec.exhausted());
  // Re-encoding a decoded block regenerates the bodies bit-identically.
  Encoder again;
  decoded.encode(again);
  EXPECT_EQ(again.data(), enc.data());
}

TEST(Block, GenesisIsStable) {
  EXPECT_EQ(Block::genesis().id, Block::genesis().id);
  EXPECT_EQ(Block::genesis().height, 0u);
  EXPECT_EQ(Block::genesis().round, 0u);
}

// --------------------------------------------------------------- timeouts

TEST(TimeoutCert, VerifyAndHighestQc) {
  // A real certified QC at round 3, held by two of the timing-out senders;
  // the rest still sit on the genesis QC.
  const Block block = make_block(Block::genesis(), 3);
  QuorumCert high;
  high.block_id = block.id;
  high.round = 3;
  high.parent_id = block.parent_id;
  for (ReplicaId voter = 0; voter < 5; ++voter) {
    high.add_vote(make_signed_vote(voter, block.id, 3, VoteMode::Marker));
  }
  high.canonicalize();

  TimeoutCert tc;
  tc.round = 5;
  for (ReplicaId sender = 0; sender < 5; ++sender) {
    TimeoutMsg msg;
    msg.round = 5;
    msg.sender = sender;
    if (sender >= 3) msg.high_qc = high;
    msg.sig = registry().signer_for(sender).sign(msg.signing_bytes());
    EXPECT_TRUE(tc.add_timeout(msg));
  }
  EXPECT_TRUE(tc.verify(registry(), 5));
  EXPECT_EQ(tc.highest_qc().round, 3u);

  // A member's claimed high-QC round cannot be rewritten: the claim is
  // signed, so the refolded aggregate no longer matches.
  TimeoutCert lied = tc;
  lied.hqc_rounds[4] = 2;
  EXPECT_FALSE(lied.verify(registry(), 5));

  // Nor can the representative QC be swapped below the members' max.
  TimeoutCert hidden = tc;
  hidden.high_qc = QuorumCert{};
  EXPECT_FALSE(hidden.verify(registry(), 5));

  // Forged aggregate tag.
  TimeoutCert forged = tc;
  forged.agg.tag[0] ^= 1;
  EXPECT_FALSE(forged.verify(registry(), 5));
}

TEST(TimeoutCert, RoundTrip) {
  TimeoutCert tc;
  tc.round = 7;
  for (ReplicaId sender = 1; sender < 6; ++sender) {
    TimeoutMsg msg;
    msg.round = 7;
    msg.sender = sender;
    msg.sig = registry().signer_for(sender).sign(msg.signing_bytes());
    tc.add_timeout(msg);
  }
  Encoder enc;
  tc.encode(enc);
  Decoder dec(enc.data());
  EXPECT_EQ(TimeoutCert::decode(dec), tc);
  EXPECT_TRUE(dec.exhausted());
}

TEST(TimeoutMsg, RoundTrip) {
  TimeoutMsg msg;
  msg.round = 9;
  msg.sender = 2;
  msg.high_qc.round = 7;
  msg.sig = registry().signer_for(2).sign(msg.signing_bytes());
  Encoder enc;
  msg.encode(enc);
  Decoder dec(enc.data());
  EXPECT_EQ(TimeoutMsg::decode(dec), msg);
}

// --------------------------------------------------------------- proposals

TEST(Proposal, RoundTripWithTcAndLog) {
  Proposal proposal;
  proposal.block = make_block(Block::genesis(), 2);
  TimeoutCert tc;
  tc.round = 1;
  TimeoutMsg msg;
  msg.round = 1;
  msg.sender = 0;
  msg.sig = registry().signer_for(0).sign(msg.signing_bytes());
  tc.add_timeout(msg);
  proposal.tc = tc;
  proposal.commit_log.push_back(
      {.block_id = proposal.block.parent_id, .round = 1, .strength = 3});
  proposal.sig = registry().signer_for(2).sign(proposal.signing_bytes());

  Encoder enc;
  proposal.encode(enc);
  Decoder dec(enc.data());
  EXPECT_EQ(Proposal::decode(dec), proposal);
}

TEST(Proposal, SignatureCoversCommitLog) {
  Proposal proposal;
  proposal.block = make_block(Block::genesis(), 2);
  proposal.commit_log.push_back({.block_id = {}, .round = 1, .strength = 2});
  const Bytes before = proposal.signing_bytes();
  proposal.commit_log[0].strength = 5;
  EXPECT_NE(proposal.signing_bytes(), before);
}

// Randomized round-trip sweep: arbitrary vote/QC contents survive encoding.
class RandomizedRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomizedRoundTrip, QuorumCert) {
  Rng rng(GetParam());
  const Block block = make_block(Block::genesis(), 1 + rng.uniform(0, 50));
  QuorumCert qc;
  qc.block_id = block.id;
  qc.round = block.round;
  qc.parent_id = block.parent_id;
  const auto voters = 1 + rng.uniform(0, 6);
  for (std::int64_t i = 0; i < voters; ++i) {
    const auto mode = static_cast<VoteMode>(rng.uniform(0, 2));
    qc.add_vote(make_signed_vote(static_cast<ReplicaId>(i), block.id,
                                 block.round, mode,
                                 rng.uniform(0, block.round - 1)));
  }
  qc.canonicalize();
  Encoder enc;
  qc.encode(enc);
  Decoder dec(enc.data());
  EXPECT_EQ(QuorumCert::decode(dec), qc);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedRoundTrip,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace sftbft::types
