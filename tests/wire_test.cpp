// The byte-level wire protocol:
//  * parity — the size the transport charges for every message type equals
//    the canonical `Envelope::encode().size()` exactly (there is no other
//    notion of wire size left in the system);
//  * round-trip fuzz — randomized instances of every registered message
//    type encode -> decode -> re-encode byte-identically;
//  * robustness — truncated / bit-flipped / garbage frames never exhibit
//    UB: they either decode or throw CodecError (run under the ASan CI job
//    like the rest of the suite).
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "sftbft/common/rng.hpp"
#include "sftbft/crypto/signature.hpp"
#include "sftbft/dissem/batch.hpp"
#include "sftbft/net/sim_transport.hpp"
#include "sftbft/streamlet/streamlet.hpp"
#include "sftbft/types/proposal.hpp"

namespace sftbft {
namespace {

using net::Envelope;
using net::SimTransport;
using net::WireType;

crypto::KeyRegistry& registry() {
  static crypto::KeyRegistry reg(7, 1);
  return reg;
}

types::BlockId random_id(Rng& rng) {
  types::BlockId id;
  for (auto& byte : id.bytes) byte = static_cast<std::uint8_t>(rng.next());
  return id;
}

types::Vote random_vote(Rng& rng, const types::BlockId& block_id, Round round,
                        std::optional<ReplicaId> fixed_voter = std::nullopt) {
  types::Vote vote;
  vote.block_id = block_id;
  vote.round = round;
  vote.voter =
      fixed_voter ? *fixed_voter : static_cast<ReplicaId>(rng.uniform(0, 6));
  switch (rng.uniform(0, 2)) {
    case 0:
      vote.mode = types::VoteMode::Plain;
      break;
    case 1:
      vote.mode = types::VoteMode::Marker;
      vote.marker = static_cast<Round>(rng.uniform(0, round));
      break;
    default: {
      vote.mode = types::VoteMode::Intervals;
      vote.endorsed = IntervalSet::single(1, std::max<Round>(round, 8));
      if (rng.chance(0.5)) {
        // Punch a hole so multi-interval sets round-trip too.
        vote.endorsed.subtract(3, static_cast<Round>(3 + rng.uniform(0, 3)));
      }
      break;
    }
  }
  vote.sig = registry().signer_for(vote.voter).sign(vote.signing_bytes());
  return vote;
}

types::QuorumCert random_qc(Rng& rng, const types::BlockId& block_id,
                            Round round) {
  types::QuorumCert qc;
  qc.block_id = block_id;
  qc.round = round;
  qc.parent_id = random_id(rng);
  qc.parent_round = round > 0 ? round - 1 : 0;
  // Distinct voters only — a duplicate signer is unrepresentable in the
  // aggregate (voter ids are implicit in the bitmap).
  for (ReplicaId voter = 0; voter < 7; ++voter) {
    if (rng.chance(0.6)) {
      qc.add_vote(random_vote(rng, block_id, round, voter));
    }
  }
  qc.canonicalize();
  return qc;
}

crypto::Sha256Digest random_digest(Rng& rng) {
  crypto::Sha256Digest digest;
  for (auto& byte : digest.bytes) byte = static_cast<std::uint8_t>(rng.next());
  return digest;
}

types::Block random_block(Rng& rng) {
  types::Block block;
  block.parent_id = random_id(rng);
  block.round = static_cast<Round>(rng.uniform(1, 200));
  block.height = static_cast<Height>(rng.uniform(1, 100));
  block.proposer = static_cast<ReplicaId>(rng.uniform(0, 6));
  block.qc = random_qc(rng, block.parent_id, block.round - 1);
  if (rng.chance(0.3)) {
    // Dissemination mode: the payload is a batch-digest list.
    block.payload.mode = types::Payload::Mode::kDigests;
    const int digests = static_cast<int>(rng.uniform(0, 5));
    for (int i = 0; i < digests; ++i) {
      block.payload.batch_digests.push_back(random_digest(rng));
    }
  } else {
    const int txns = static_cast<int>(rng.uniform(0, 6));
    for (int i = 0; i < txns; ++i) {
      block.payload.txns.push_back(
          {.id = rng.next(),
           .submitted_at = static_cast<SimTime>(rng.uniform(0, 1'000'000)),
           .size_bytes = static_cast<std::uint32_t>(rng.uniform(0, 600))});
    }
  }
  block.created_at = static_cast<SimTime>(rng.uniform(0, 1'000'000));
  block.seal();
  return block;
}

dissem::Batch random_batch(Rng& rng) {
  dissem::Batch batch;
  batch.creator = static_cast<ReplicaId>(rng.uniform(0, 6));
  batch.seq = rng.next() % 1000;
  const int txns = static_cast<int>(rng.uniform(0, 8));
  for (int i = 0; i < txns; ++i) {
    batch.txns.push_back(
        {.id = rng.next(),
         .submitted_at = static_cast<SimTime>(rng.uniform(0, 1'000'000)),
         .size_bytes = static_cast<std::uint32_t>(rng.uniform(0, 600))});
  }
  batch.seal();
  return batch;
}

dissem::BatchRequest random_batch_request(Rng& rng) {
  dissem::BatchRequest req;
  req.requester = static_cast<ReplicaId>(rng.uniform(0, 6));
  const int digests = 1 + static_cast<int>(rng.uniform(0, 7));
  for (int i = 0; i < digests; ++i) req.digests.push_back(random_digest(rng));
  return req;
}

dissem::BatchResponse random_batch_response(Rng& rng) {
  dissem::BatchResponse resp;
  const int batches = static_cast<int>(rng.uniform(0, 3));
  for (int i = 0; i < batches; ++i) resp.batches.push_back(random_batch(rng));
  return resp;
}

types::Proposal random_proposal(Rng& rng) {
  types::Proposal proposal;
  proposal.block = random_block(rng);
  if (rng.chance(0.5)) {
    types::TimeoutCert tc;
    tc.round = proposal.block.round - 1;
    const int msgs = 1 + static_cast<int>(rng.uniform(0, 3));
    for (int i = 0; i < msgs; ++i) {  // ascending senders (bitmap order)
      types::TimeoutMsg msg;
      msg.round = tc.round;
      msg.sender = static_cast<ReplicaId>(i);
      msg.high_qc = random_qc(rng, random_id(rng), tc.round > 0 ? tc.round - 1 : 0);
      msg.sig = registry().signer_for(msg.sender).sign(msg.signing_bytes());
      tc.add_timeout(msg);
    }
    proposal.tc = tc;
  }
  const int log = static_cast<int>(rng.uniform(0, 4));
  for (int i = 0; i < log; ++i) {
    proposal.commit_log.push_back(
        {.block_id = random_id(rng),
         .round = static_cast<Round>(rng.uniform(1, 100)),
         .strength = static_cast<std::uint32_t>(rng.uniform(1, 8))});
  }
  proposal.sig = registry()
                     .signer_for(proposal.block.proposer)
                     .sign(proposal.signing_bytes());
  return proposal;
}

types::TimeoutMsg random_timeout(Rng& rng) {
  types::TimeoutMsg msg;
  msg.round = static_cast<Round>(rng.uniform(1, 500));
  msg.sender = static_cast<ReplicaId>(rng.uniform(0, 6));
  msg.high_qc = random_qc(rng, random_id(rng), msg.round - 1);
  msg.sig = registry().signer_for(msg.sender).sign(msg.signing_bytes());
  return msg;
}

streamlet::SVote random_svote(Rng& rng) {
  streamlet::SVote vote;
  vote.block_id = random_id(rng);
  vote.round = static_cast<Round>(rng.uniform(1, 300));
  vote.height = static_cast<Height>(rng.uniform(1, 200));
  vote.voter = static_cast<ReplicaId>(rng.uniform(0, 6));
  vote.marker = static_cast<Height>(rng.uniform(0, vote.height));
  vote.sig = registry().signer_for(vote.voter).sign(vote.signing_bytes());
  return vote;
}

streamlet::SProposal random_sproposal(Rng& rng) {
  streamlet::SProposal proposal;
  proposal.block = random_block(rng);
  proposal.sig = registry()
                     .signer_for(proposal.block.proposer)
                     .sign(proposal.signing_bytes());
  return proposal;
}

streamlet::SCert random_scert(Rng& rng) {
  streamlet::SCert cert;
  cert.block_id = random_id(rng);
  cert.round = static_cast<Round>(rng.uniform(1, 300));
  cert.height = static_cast<Height>(rng.uniform(1, 200));
  for (ReplicaId voter = 0; voter < 7; ++voter) {  // ascending, distinct
    if (!rng.chance(0.6)) continue;
    streamlet::SVote vote;
    vote.block_id = cert.block_id;
    vote.round = cert.round;
    vote.height = cert.height;
    vote.voter = voter;
    vote.marker = static_cast<Height>(rng.uniform(0, vote.height));
    vote.sig = registry().signer_for(voter).sign(vote.signing_bytes());
    cert.add_vote(vote);
  }
  return cert;
}

streamlet::SSyncResponse random_ssync_response(Rng& rng) {
  streamlet::SSyncResponse resp;
  const int blocks = static_cast<int>(rng.uniform(0, 3));
  for (int i = 0; i < blocks; ++i) resp.blocks.push_back(random_block(rng));
  const int certs = static_cast<int>(rng.uniform(0, 3));
  for (int i = 0; i < certs; ++i) resp.certs.push_back(random_scert(rng));
  return resp;
}

/// One envelope per registered tag, freshly randomized.
std::vector<Envelope> all_message_envelopes(Rng& rng) {
  const auto sender = static_cast<ReplicaId>(rng.uniform(0, 6));
  types::SyncResponse sync_resp;
  const int blocks = 1 + static_cast<int>(rng.uniform(0, 2));
  for (int i = 0; i < blocks; ++i) sync_resp.blocks.push_back(random_block(rng));
  sync_resp.high_qc = random_qc(rng, sync_resp.blocks.back().id,
                                sync_resp.blocks.back().round);
  return {
      Envelope::pack(WireType::kProposal, sender, random_proposal(rng)),
      Envelope::pack(WireType::kVote, sender,
                     random_vote(rng, random_id(rng),
                                 static_cast<Round>(rng.uniform(1, 100)))),
      Envelope::pack(WireType::kTimeout, sender, random_timeout(rng)),
      Envelope::pack(WireType::kSyncRequest, sender,
                     types::SyncRequest{.requester = sender,
                                        .from_height = rng.next() % 1000}),
      Envelope::pack(WireType::kSyncResponse, sender, sync_resp),
      Envelope::pack(WireType::kSProposal, sender, random_sproposal(rng)),
      Envelope::pack(WireType::kSVote, sender, random_svote(rng)),
      Envelope::pack(WireType::kSSyncResponse, sender,
                     random_ssync_response(rng)),
      Envelope::pack(WireType::kBatchPush, sender,
                     dissem::BatchPush{random_batch(rng)}),
      Envelope::pack(WireType::kBatchRequest, sender,
                     random_batch_request(rng)),
      Envelope::pack(WireType::kBatchResponse, sender,
                     random_batch_response(rng)),
  };
}

/// Calls `f(M{})` with the message type M an envelope of `type` carries.
template <typename F>
void visit_message_type(WireType type, F&& f) {
  switch (type) {
    case WireType::kProposal:
      return f(types::Proposal{});
    case WireType::kVote:
      return f(types::Vote{});
    case WireType::kTimeout:
      return f(types::TimeoutMsg{});
    case WireType::kSyncRequest:
      return f(types::SyncRequest{});
    case WireType::kSyncResponse:
      return f(types::SyncResponse{});
    case WireType::kSProposal:
      return f(streamlet::SProposal{});
    case WireType::kSVote:
      return f(streamlet::SVote{});
    case WireType::kSSyncResponse:
      return f(streamlet::SSyncResponse{});
    case WireType::kBatchPush:
      return f(dissem::BatchPush{});
    case WireType::kBatchRequest:
      return f(dissem::BatchRequest{});
    case WireType::kBatchResponse:
      return f(dissem::BatchResponse{});
  }
  FAIL() << "unregistered wire type";
}

// ---------------------------------------------------------------- parity

TEST(WireParity, ChargedBytesEqualCanonicalEncodingForEveryType) {
  // The acceptance check of the refactor: for every registered tag, the
  // size the transport charges (send-side stats AND the receiver's frame
  // accounting) is exactly encode().size(), and encoded_size() (which the
  // transport charges) computes it without building the frame. A packed
  // envelope keeps its bodies as runs; the frame expands them, and the
  // decoded frame (all literal bytes) equals the compact envelope and
  // unpacks to the same message.
  Rng rng(2024);
  sim::Scheduler sched;
  SimTransport transport(sched, net::Topology::uniform(7, millis(1)), {}, 1);

  std::vector<std::size_t> received;
  transport.set_handler(1, [&received](const Envelope&, std::size_t bytes) {
    received.push_back(bytes);
  });

  std::uint64_t expected_bytes = 0;
  std::uint64_t sent = 0;
  std::set<WireType> tags;
  bool saw_runs = false;
  for (int round = 0; round < 5; ++round) {
    for (Envelope& env : all_message_envelopes(rng)) {
      const Bytes frame = env.encode();
      const std::size_t canonical = frame.size();
      EXPECT_EQ(env.encoded_size(), canonical);
      const Envelope decoded = Envelope::decode(BytesView(frame));
      EXPECT_TRUE(decoded.bodies.empty());
      EXPECT_EQ(decoded, env);
      visit_message_type(env.type, [&](auto tag) {
        using M = decltype(tag);
        EXPECT_EQ(env.unpack<M>(), decoded.unpack<M>());
      });
      tags.insert(env.type);
      saw_runs = saw_runs || !env.bodies.empty();
      expected_bytes += canonical;
      ++sent;
      transport.send(1, std::move(env));
    }
  }
  sched.run_until_idle();

  for (int tag = 0; tag < 256; ++tag) {
    if (net::wire_type_known(static_cast<std::uint8_t>(tag))) {
      EXPECT_TRUE(tags.contains(static_cast<WireType>(tag))) << tag;
    }
  }
  EXPECT_TRUE(saw_runs);
  EXPECT_EQ(transport.stats().total_count(), sent);
  EXPECT_EQ(transport.stats().total_bytes(), expected_bytes);
  ASSERT_EQ(received.size(), sent);
  std::uint64_t received_bytes = 0;
  for (const std::size_t bytes : received) received_bytes += bytes;
  EXPECT_EQ(received_bytes, expected_bytes);
}

TEST(WireParity, PayloadBodiesAreOnTheWire) {
  // Blocks carry their (synthetic) transaction bodies on the wire: a
  // 100x4500-byte batch makes the proposal frame ~450 KB, like the paper's.
  Rng rng(7);
  types::Proposal proposal = random_proposal(rng);
  proposal.block.payload.txns.clear();
  for (int i = 0; i < 100; ++i) {
    proposal.block.payload.txns.push_back(
        {.id = static_cast<std::uint64_t>(i), .submitted_at = 0,
         .size_bytes = 4500});
  }
  proposal.block.seal();
  const Envelope env = Envelope::pack(WireType::kProposal, 0, proposal);
  EXPECT_GE(env.encode().size(), 450'000u);
  EXPECT_EQ(env.encoded_size(), env.encode().size());
  // The packed envelope holds the bodies as runs, not bytes.
  EXPECT_EQ(env.bodies.size(), 100u);
  EXPECT_LT(env.payload.size(), 10'000u);
}

// ------------------------------------------------------------- round trip

TEST(WireRoundTrip, AllTypesReencodeByteIdentically) {
  Rng rng(99);
  for (int iteration = 0; iteration < 30; ++iteration) {
    for (const Envelope& env : all_message_envelopes(rng)) {
      const Bytes frame = env.encode();
      const Envelope decoded = Envelope::decode(BytesView(frame));
      EXPECT_EQ(decoded, env);
      // Re-encode the decoded *message* too: payload -> typed -> payload.
      Envelope rebuilt = decoded;
      visit_message_type(env.type, [&](auto tag) {
        using M = decltype(tag);
        rebuilt = Envelope::pack(env.type, env.sender, env.unpack<M>());
      });
      EXPECT_EQ(rebuilt.encode(), frame);
    }
  }
}

// ------------------------------------------------------------- robustness

TEST(WireRobustness, TruncatedFramesThrowCodecError) {
  Rng rng(123);
  for (const Envelope& env : all_message_envelopes(rng)) {
    const Bytes frame = env.encode();
    // Every strict prefix must be rejected (sampled for long frames).
    const std::size_t step = std::max<std::size_t>(1, frame.size() / 64);
    for (std::size_t len = 0; len < frame.size(); len += step) {
      EXPECT_THROW(Envelope::decode(BytesView(frame.data(), len)),
                   CodecError);
    }
  }
}

TEST(WireRobustness, BitFlipsAreRejectedNeverUb) {
  Rng rng(321);
  int rejected = 0, survived = 0;
  for (int iteration = 0; iteration < 10; ++iteration) {
    for (const Envelope& env : all_message_envelopes(rng)) {
      Bytes frame = env.encode();
      const int flips = 1 + static_cast<int>(rng.uniform(0, 7));
      for (int i = 0; i < flips; ++i) {
        const auto bit = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(frame.size()) * 8 - 1));
        frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      try {
        (void)Envelope::decode(BytesView(frame));
        ++survived;  // astronomically unlikely (CRC collision)
      } catch (const CodecError&) {
        ++rejected;
      }
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(survived, 0);
}

TEST(WireRobustness, GarbageBuffersThrowCodecError) {
  Rng rng(555);
  for (int iteration = 0; iteration < 200; ++iteration) {
    Bytes garbage(static_cast<std::size_t>(rng.uniform(0, 512)));
    for (auto& byte : garbage) byte = static_cast<std::uint8_t>(rng.next());
    EXPECT_THROW(Envelope::decode(BytesView(garbage)), CodecError);
  }
}

TEST(WireRobustness, GarbagePayloadsNeverUbInTypedDecoders) {
  // Bypass the CRC (a Byzantine sender can frame garbage correctly) and
  // fuzz the typed payload decoders directly: they must either produce a
  // message or throw CodecError — no crashes, no huge allocations (the
  // Decoder::count clamp), no UB for ASan to find.
  Rng rng(777);
  for (int iteration = 0; iteration < 400; ++iteration) {
    Bytes garbage(static_cast<std::size_t>(rng.uniform(0, 256)));
    for (auto& byte : garbage) byte = static_cast<std::uint8_t>(rng.next());
    const Envelope env{WireType::kProposal, 0, garbage};
    const auto poke = [&](auto tag) {
      using M = decltype(tag);
      try {
        (void)env.unpack<M>();
      } catch (const CodecError&) {
        // expected for nearly all inputs
      }
    };
    poke(types::Proposal{});
    poke(types::Vote{});
    poke(types::TimeoutMsg{});
    poke(types::SyncRequest{});
    poke(types::SyncResponse{});
    poke(streamlet::SProposal{});
    poke(streamlet::SVote{});
    poke(streamlet::SSyncResponse{});
    poke(dissem::BatchPush{});
    poke(dissem::BatchRequest{});
    poke(dissem::BatchResponse{});
  }
}

TEST(WireRobustness, BatchCountClampRejectsHugeCountsWithoutAllocating) {
  // A Byzantine peer can frame any payload with a valid CRC; the typed
  // decoders must reject element counts that cannot fit the remaining bytes
  // (Decoder::count) instead of reserving gigabytes.
  Encoder resp;
  resp.u32(0xFFFFFFFFu);  // "4 billion batches", then nothing
  const Envelope resp_env{WireType::kBatchResponse, 0, resp.data()};
  EXPECT_THROW((void)resp_env.unpack<dissem::BatchResponse>(), CodecError);

  Encoder req;
  req.u32(3);              // requester
  req.u32(0x10000000u);    // "268M digests" in an 8-byte payload
  const Envelope req_env{WireType::kBatchRequest, 0, req.data()};
  EXPECT_THROW((void)req_env.unpack<dissem::BatchRequest>(), CodecError);

  // Same clamp inside a digest-mode block payload.
  Encoder payload;
  payload.u8(1);           // Payload::Mode::kDigests
  payload.u32(0x0FFFFFFFu);
  Decoder dec(payload.data());
  EXPECT_THROW((void)types::Payload::decode(dec), CodecError);
}

TEST(WireRobustness, UnknownTagRejected) {
  Envelope env{WireType::kVote, 3, {1, 2, 3}};
  Bytes frame = env.encode();
  frame[0] = 0x7F;  // not a registered tag; CRC also breaks — both reject
  EXPECT_THROW(Envelope::decode(BytesView(frame)), CodecError);
}

TEST(WireRobustness, RetiredTagsRejectedWithIntactCrc) {
  // 0x13 (Streamlet's old sync-request tag) and 0x21-0x25 (the old HotStuff
  // copy of the chained tags) are retired: a well-framed frame under one of
  // them, CRC intact, is rejected for its tag alone.
  for (const std::uint8_t tag : {0x13, 0x21, 0x22, 0x23, 0x24, 0x25}) {
    EXPECT_FALSE(net::wire_type_known(tag)) << int{tag};
    const Bytes frame =
        Envelope{static_cast<WireType>(tag), 3, {1, 2, 3}}.encode();
    EXPECT_THROW(Envelope::decode(BytesView(frame)), CodecError) << int{tag};
  }
}

// ------------------------------------------------- aggregate certificates

TEST(WireAggregate, QcSignatureMaterialIsConstantInN) {
  // The perf claim, pinned exactly: at n = 100 a full QC carries
  // ⌈100/8⌉ + 32 = 45 bytes of signature material (the u32 length prefix on
  // the bitmap is framing), where the per-vote scheme carried 100 × 36 B.
  crypto::KeyRegistry reg(100, 13);
  Rng rng(41);
  const types::BlockId id = random_id(rng);
  types::QuorumCert qc;
  qc.block_id = id;
  qc.round = 9;
  qc.parent_id = random_id(rng);
  qc.parent_round = 8;
  for (ReplicaId voter = 0; voter < 100; ++voter) {
    types::Vote vote;
    vote.block_id = id;
    vote.round = 9;
    vote.voter = voter;
    vote.mode = types::VoteMode::Marker;
    vote.marker = 3;
    vote.sig = reg.signer_for(voter).sign(vote.signing_bytes());
    ASSERT_TRUE(qc.add_vote(vote));
  }
  qc.canonicalize();
  EXPECT_TRUE(qc.verify(reg, 67));
  EXPECT_EQ(qc.agg.signers.bits.size(), 13u);
  EXPECT_EQ(qc.agg.signers.bits.size() + qc.agg.tag.size(), 45u);

  // And the whole QC round-trips byte-identically at that width.
  Encoder enc;
  qc.encode(enc);
  Decoder dec(enc.data());
  const types::QuorumCert decoded = types::QuorumCert::decode(dec);
  EXPECT_EQ(decoded, qc);
  Encoder again;
  decoded.encode(again);
  EXPECT_EQ(again.data(), enc.data());
}

TEST(WireAggregate, DecodeRejectsMetaCountBitmapMismatch) {
  // One meta but two bitmap bits: the cross-check must throw, not zip.
  Rng rng(42);
  Encoder enc;
  enc.raw(random_id(rng).bytes);   // block_id
  enc.u64(3);                      // round
  enc.raw(random_id(rng).bytes);   // parent_id
  enc.u64(2);                      // parent_round
  enc.u32(1);                      // one meta...
  types::VoteMeta{}.encode(enc);
  crypto::AggregateSignature agg;
  agg.signers.set(0);
  agg.signers.set(1);              // ...two signers
  agg.encode(enc);
  Decoder dec(enc.data());
  EXPECT_THROW((void)types::QuorumCert::decode(dec), CodecError);
}

TEST(WireAggregate, DecodedVotersAreImplicitAndStrictlyAscending) {
  // Voter ids never ride the wire — they are reconstructed from the bitmap,
  // so a duplicate signer is unrepresentable in any decoded certificate.
  Rng rng(43);
  for (int i = 0; i < 20; ++i) {
    const types::QuorumCert qc = random_qc(rng, random_id(rng), 5);
    Encoder enc;
    qc.encode(enc);
    Decoder dec(enc.data());
    const types::QuorumCert decoded = types::QuorumCert::decode(dec);
    for (std::size_t v = 1; v < decoded.votes.size(); ++v) {
      EXPECT_LT(decoded.votes[v - 1].voter, decoded.votes[v].voter);
    }
  }
}

TEST(WireAggregate, SubQuorumBitmapFailsVerify) {
  // Four genuine voters of seven: every byte authentic, still not a quorum.
  Rng rng(44);
  const types::BlockId id = random_id(rng);
  types::QuorumCert qc;
  qc.block_id = id;
  qc.round = 6;
  for (ReplicaId voter = 0; voter < 4; ++voter) {
    qc.add_vote(random_vote(rng, id, 6, voter));
  }
  qc.canonicalize();
  EXPECT_FALSE(qc.verify(registry(), 5));
}

TEST(WireAggregate, TimeoutCertDecodeRejectsRoundCountMismatch) {
  types::TimeoutCert tc;
  tc.round = 4;
  for (ReplicaId sender = 0; sender < 5; ++sender) {
    types::TimeoutMsg msg;
    msg.round = 4;
    msg.sender = sender;
    msg.sig = registry().signer_for(sender).sign(msg.signing_bytes());
    tc.add_timeout(msg);
  }
  tc.hqc_rounds.pop_back();  // 4 rounds vs 5 bitmap bits
  Encoder enc;
  tc.encode(enc);
  Decoder dec(enc.data());
  EXPECT_THROW((void)types::TimeoutCert::decode(dec), CodecError);
}

TEST(WireAggregate, SCertDecodeRejectsMarkerCountMismatch) {
  Rng rng(45);
  streamlet::SCert cert = random_scert(rng);
  if (cert.markers.empty()) GTEST_SKIP() << "empty cert drawn";
  cert.markers.pop_back();
  Encoder enc;
  cert.encode(enc);
  Decoder dec(enc.data());
  EXPECT_THROW((void)streamlet::SCert::decode(dec), CodecError);
}

TEST(WireAggregate, BitmapLengthClampAndCanonicalForm) {
  // Hostile length prefix beyond the clamp (n > 4096): rejected before any
  // large allocation.
  Encoder oversize;
  const Bytes big(crypto::SignerBitmap::kMaxBytes + 1, 0x01);
  oversize.bytes(BytesView(big));
  Decoder dec_oversize(oversize.data());
  EXPECT_THROW((void)crypto::SignerBitmap::decode(dec_oversize), CodecError);

  // Trailing zero byte: same signer set, different bytes — non-canonical
  // encodings are rejected so each set has exactly one wire form.
  Encoder padded;
  const Bytes trailing{0x01, 0x00};
  padded.bytes(BytesView(trailing));
  Decoder dec_padded(padded.data());
  EXPECT_THROW((void)crypto::SignerBitmap::decode(dec_padded), CodecError);

  // Boundary: exactly kMaxBytes with the top bit set decodes fine.
  Encoder maxed;
  Bytes max_bits(crypto::SignerBitmap::kMaxBytes, 0x00);
  max_bits.back() = 0x80;
  maxed.bytes(BytesView(max_bits));
  Decoder dec_maxed(maxed.data());
  EXPECT_EQ(crypto::SignerBitmap::decode(dec_maxed).popcount(), 1u);
}

TEST(WireAggregate, CertificateFuzzTruncationAndBitFlips) {
  // Certificate-focused fuzz on the raw typed decoders (the envelope fuzz
  // above exercises them only behind the CRC).
  Rng rng(4242);
  for (int iteration = 0; iteration < 50; ++iteration) {
    const types::QuorumCert qc = random_qc(rng, random_id(rng), 7);
    Encoder enc;
    qc.encode(enc);
    const Bytes frame = enc.data();
    for (std::size_t len = 0; len < frame.size();
         len += std::max<std::size_t>(1, frame.size() / 16)) {
      try {
        const Bytes prefix(frame.begin(),
                           frame.begin() + static_cast<long>(len));
        Decoder dec(prefix);
        (void)types::QuorumCert::decode(dec);
      } catch (const CodecError&) {
        // expected for nearly every prefix
      }
    }
    Bytes flipped = frame;
    const auto bit = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(flipped.size()) * 8 - 1));
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    try {
      Decoder dec(flipped);
      const types::QuorumCert mutated = types::QuorumCert::decode(dec);
      // A flip that still parses and verifies must agree with the original
      // on everything the vote signatures cover: block_id, round, and the
      // full (voter, meta) vector plus aggregate. The parent_* header
      // fields are uncovered convenience copies (the block hash commits to
      // its parent), so flips there are the only ones allowed through.
      if (mutated.verify(registry(), 5)) {
        EXPECT_EQ(mutated.block_id, qc.block_id);
        EXPECT_EQ(mutated.round, qc.round);
        EXPECT_EQ(mutated.votes, qc.votes);
        EXPECT_EQ(mutated.agg, qc.agg);
      }
    } catch (const CodecError&) {
      // rejected — fine
    }
  }
}

}  // namespace
}  // namespace sftbft
