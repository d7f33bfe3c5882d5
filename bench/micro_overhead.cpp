// Micro-benchmarks for the Sec. 3.2 "marginal bookkeeping overhead" claim:
// the per-vote cost of SFT (marker computation, interval computation,
// endorser updates) against the baseline costs every BFT implementation
// already pays (hashing, signing, QC digests).
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "sftbft/chain/block_tree.hpp"
#include "sftbft/common/interval_set.hpp"
#include "sftbft/core/chained_core.hpp"
#include "sftbft/core/strength.hpp"
#include "sftbft/core/vote_history.hpp"
#include "sftbft/crypto/sha256.hpp"
#include "sftbft/crypto/signature.hpp"
#include "sftbft/crypto/verify_cache.hpp"
#include "sftbft/dissem/admission.hpp"
#include "sftbft/dissem/batch.hpp"
#include "sftbft/mempool/mempool.hpp"
#include "sftbft/net/envelope.hpp"
#include "sftbft/net/sim_transport.hpp"
#include "sftbft/sim/scheduler.hpp"
#include "sftbft/types/proposal.hpp"

namespace {

using namespace sftbft;

Bytes make_bytes(std::size_t size) {
  Bytes data(size);
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  return data;
}

void BM_Sha256_64B(benchmark::State& state) {
  const Bytes data = make_bytes(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
}
BENCHMARK(BM_Sha256_64B);

void BM_Sha256_450KB(benchmark::State& state) {
  const Bytes data = make_bytes(450 * 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          450 * 1024);
}
BENCHMARK(BM_Sha256_450KB);

void BM_SignVote(benchmark::State& state) {
  crypto::KeyRegistry registry(4, 1);
  const crypto::Signer signer = registry.signer_for(0);
  const Bytes msg = make_bytes(96);
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer.sign(msg));
  }
}
BENCHMARK(BM_SignVote);

void BM_VerifyVote(benchmark::State& state) {
  crypto::KeyRegistry registry(4, 1);
  const Bytes msg = make_bytes(96);
  const crypto::Signature sig = registry.signer_for(0).sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.verify(sig, msg));
  }
}
BENCHMARK(BM_VerifyVote);

/// Vote verification through a VerifyCache that never hits: every lookup
/// pays the memo key (a SHA-256 of the signing bytes) and a store on top
/// of the MAC. Distinct signed votes cycle through a fresh cache per lap,
/// so the memo's node frees are charged too. Compare with BM_VerifyVote
/// (no memo) and BM_VoteVerifyMemoized (every lookup hits).
void BM_VerifyVoteColdCache(benchmark::State& state) {
  constexpr std::size_t kVotes = 1024;
  crypto::KeyRegistry registry(4, 1);
  const crypto::Signer signer = registry.signer_for(0);
  std::vector<Bytes> msgs;
  std::vector<crypto::Signature> sigs;
  for (std::size_t i = 0; i < kVotes; ++i) {
    Bytes msg = make_bytes(96);
    for (std::size_t b = 0; b < 8; ++b) {
      msg[b] = static_cast<std::uint8_t>(i >> (8 * b));
    }
    sigs.push_back(signer.sign(msg));
    msgs.push_back(std::move(msg));
  }
  auto cache = std::make_unique<crypto::VerifyCache>();
  std::size_t i = 0;
  for (auto _ : state) {
    if (i == kVotes) {
      cache = std::make_unique<crypto::VerifyCache>();
      i = 0;
    }
    benchmark::DoNotOptimize(registry.verify(sigs[i], msgs[i], cache.get()));
    ++i;
  }
  if (cache->vote_hits() != 0) state.SkipWithError("a lookup hit the memo");
}
BENCHMARK(BM_VerifyVoteColdCache);

/// Builds a linear chain of `length` blocks on a tree.
chain::BlockTree make_chain(std::size_t length,
                            std::vector<types::BlockId>* ids = nullptr) {
  chain::BlockTree tree;
  types::BlockId parent = tree.genesis_id();
  for (std::size_t i = 1; i <= length; ++i) {
    types::Block block;
    block.parent_id = parent;
    block.round = i;
    block.height = i;
    block.proposer = static_cast<ReplicaId>(i % 4);
    block.qc.block_id = parent;
    block.qc.round = i - 1;
    block.seal();
    tree.insert(block);
    if (ids) ids->push_back(block.id);
    parent = block.id;
  }
  return tree;
}

/// The marker computation the paper adds to every vote (Fig. 4), with
/// `state.range(0)` dead forks behind the tip. Fork k is a sibling of main
/// block k, voted just before it, so every dead fork stays in the frontier
/// (one entry per fork) at a distinct depth below the tip — the shape a
/// long run with many view changes leaves behind.
void BM_MarkerComputation(benchmark::State& state) {
  const auto forks = static_cast<std::size_t>(state.range(0));
  chain::BlockTree tree;
  core::VoteHistory history(tree);
  types::Block parent = tree.genesis();
  const auto extend = [&tree](const types::Block& from, Round round) {
    types::Block block;
    block.parent_id = from.id;
    block.round = round;
    block.height = from.height + 1;
    block.proposer = static_cast<ReplicaId>(round % 4);
    block.qc.block_id = from.id;
    block.qc.round = from.round;
    block.seal();
    tree.insert(block);
    return block;
  };
  for (std::size_t k = 1; k <= forks; ++k) {
    history.record_vote(extend(parent, 2 * k - 1));  // the fork, then...
    parent = extend(parent, 2 * k);                  // ...the main chain
    history.record_vote(parent);
  }
  // A 64-block stretch above the last fork, so the tip is well clear of it.
  for (Round round = 2 * forks + 1; round <= 2 * forks + 64; ++round) {
    parent = extend(parent, round);
  }
  history.record_vote(parent);
  const types::Block tip = extend(parent, 2 * forks + 65);
  if (history.frontier().size() != forks + 1) {
    state.SkipWithError("frontier is not one entry per fork");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(history.marker_for(tip));
  }
}
BENCHMARK(BM_MarkerComputation)->Arg(1)->Arg(64)->Arg(512);

/// The Sec. 3.4 interval-set computation (generalized strong-vote).
void BM_IntervalComputation(benchmark::State& state) {
  std::vector<types::BlockId> ids;
  chain::BlockTree tree = make_chain(64, &ids);
  core::VoteHistory history(tree);
  const types::Block* tip = tree.get(ids.back());
  for (std::size_t i = 0; i + 1 < ids.size(); i += 2) {
    history.record_vote(*tree.get(ids[i]));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(history.intervals_for(*tip, 0));
  }
}
BENCHMARK(BM_IntervalComputation);

/// Endorser-set update for one strong-QC of 2f+1 votes (n = 100): the
/// "whenever a replica receives a new strong-QC" bookkeeping.
void BM_EndorsementProcessQc(benchmark::State& state) {
  const std::uint32_t n = 100, f = 33;
  crypto::KeyRegistry registry(n, 1);
  std::vector<types::BlockId> ids;
  chain::BlockTree tree = make_chain(16, &ids);

  types::QuorumCert qc;
  qc.block_id = ids.back();
  qc.round = ids.size();
  qc.parent_id = ids[ids.size() - 2];
  qc.parent_round = ids.size() - 1;
  for (ReplicaId voter = 0; voter < 2 * f + 1; ++voter) {
    types::Vote vote;
    vote.block_id = ids.back();
    vote.round = ids.size();
    vote.voter = voter;
    vote.mode = types::VoteMode::Marker;
    vote.marker = 0;
    vote.sig = registry.signer_for(voter).sign(vote.signing_bytes());
    qc.add_vote(vote);
  }
  qc.canonicalize();
  for (auto _ : state) {
    state.PauseTiming();
    core::StrengthTracker tracker(tree, n, f);
    state.ResumeTiming();
    benchmark::DoNotOptimize(tracker.process_qc(qc));
  }
}
BENCHMARK(BM_EndorsementProcessQc);

/// The live steady state of the same bookkeeping (n = 50): each strong-QC
/// of 2f+1 marker votes certifies the child of the last certified block.
/// QC i's voters are replicas (i * shift + j) mod n for j < 2f+1, so
/// `shift` = 0 keeps one voter set and `shift` = 1 rotates it by one
/// replica per QC (each voter then rejoins after missing n - 2f - 1 QCs and
/// its vote walks back over those ancestors). Per-iteration cost is one
/// process_qc on a warm tracker; a fresh tracker restarts the chain
/// (untimed) every kChain QCs.
void process_qc_chain(benchmark::State& state, std::uint32_t shift) {
  const std::uint32_t n = 50, f = 16;
  constexpr std::size_t kChain = 512;
  std::vector<types::BlockId> ids;
  const chain::BlockTree tree = make_chain(kChain, &ids);
  std::vector<types::QuorumCert> qcs;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    types::QuorumCert qc;
    qc.block_id = ids[i];
    qc.round = i + 1;
    qc.parent_id = i == 0 ? tree.genesis_id() : ids[i - 1];
    qc.parent_round = i;
    // Structural assembly: the tracker reads voter + meta only.
    for (std::uint32_t j = 0; j < 2 * f + 1; ++j) {
      const auto voter = static_cast<ReplicaId>((i * shift + j) % n);
      types::VoteMeta meta;
      meta.mode = types::VoteMode::Marker;
      qc.votes.push_back({voter, meta});
      qc.agg.signers.set(voter);
    }
    qc.canonicalize();
    benchmark::DoNotOptimize(qc.digest());  // memoized, as on the wire path
    qcs.push_back(std::move(qc));
  }
  auto tracker = std::make_unique<core::StrengthTracker>(tree, n, f);
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == qcs.size()) {
      state.PauseTiming();
      tracker = std::make_unique<core::StrengthTracker>(tree, n, f);
      next = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(tracker->process_qc(qcs[next++]));
  }
}

void BM_EndorsementProcessQcSteady(benchmark::State& state) {
  process_qc_chain(state, /*shift=*/0);
}
BENCHMARK(BM_EndorsementProcessQcSteady);

void BM_EndorsementProcessQcRotatingVoters(benchmark::State& state) {
  process_qc_chain(state, /*shift=*/1);
}
BENCHMARK(BM_EndorsementProcessQcRotatingVoters);

types::QuorumCert make_wide_qc() {
  types::QuorumCert qc;
  qc.round = 4;
  // Digest benches only look at voter + meta, so structural assembly
  // (no signatures) keeps the setup cheap.
  for (ReplicaId voter = 0; voter < 67; ++voter) {
    qc.votes.push_back({voter, types::VoteMeta{}});
    qc.agg.signers.set(voter);
  }
  qc.canonicalize();
  return qc;
}

/// QC digest, cold: what every digest() call cost before memoization (the
/// canonicalize() busts the memo, modelling a freshly assembled QC). A
/// canonical QC's digest is taken 3-4x per replica per round (block-id
/// sealing, strength-tracker dedupe, commit-log keying) — the "before" of
/// the digest-memoization satellite.
void BM_QcDigestCold(benchmark::State& state) {
  types::QuorumCert qc = make_wide_qc();
  for (auto _ : state) {
    qc.canonicalize();  // memo refresh point: forces the full encode + hash
    benchmark::DoNotOptimize(qc.digest());
  }
}
BENCHMARK(BM_QcDigestCold);

/// ...and warm: every repeat call on the same (or a copied) QC object now
/// returns the memo — the "after".
void BM_QcDigestMemoized(benchmark::State& state) {
  types::QuorumCert qc = make_wide_qc();
  benchmark::DoNotOptimize(qc.digest());  // prime
  for (auto _ : state) {
    benchmark::DoNotOptimize(qc.digest());
  }
}
BENCHMARK(BM_QcDigestMemoized);

/// A quorum-sized signed QC at scale n, plus the standalone per-vote
/// signatures the pre-aggregate scheme would have shipped alongside it.
struct SignedQcFixture {
  crypto::KeyRegistry registry;
  types::QuorumCert qc;
  std::vector<types::Vote> votes;  // quorum's worth, fully signed
  std::uint32_t quorum;

  explicit SignedQcFixture(std::uint32_t n)
      : registry(n, 1), quorum(2 * ((n - 1) / 3) + 1) {
    qc.round = 7;
    for (ReplicaId voter = 0; voter < quorum; ++voter) {
      types::Vote vote;
      vote.round = 7;
      vote.voter = voter;
      vote.mode = types::VoteMode::Marker;
      vote.marker = 2;
      vote.sig = registry.signer_for(voter).sign(vote.signing_bytes());
      votes.push_back(vote);
      qc.add_vote(vote);
    }
    qc.canonicalize();
  }
};

/// Per-vote certificates, encode side: the 2f+1 x 36 B signature vector the
/// old wire format carried (signer u32 + 32 B MAC each) — the "before" of
/// the aggregate-signature tentpole. Arg = n.
void BM_CertEncodePerVote(benchmark::State& state) {
  const SignedQcFixture fx(static_cast<std::uint32_t>(state.range(0)));
  std::size_t sig_bytes = 0;
  for (auto _ : state) {
    Encoder enc;
    for (const types::Vote& vote : fx.votes) vote.sig.encode(enc);
    sig_bytes = enc.data().size();
    benchmark::DoNotOptimize(enc.data().data());
  }
  state.counters["sig_bytes"] = static_cast<double>(sig_bytes);
}
BENCHMARK(BM_CertEncodePerVote)->Arg(16)->Arg(31)->Arg(100);

/// ...and the aggregate "after": one ⌈n/8⌉-byte bitmap + one 32 B tag,
/// regardless of quorum size.
void BM_CertEncodeAggregate(benchmark::State& state) {
  const SignedQcFixture fx(static_cast<std::uint32_t>(state.range(0)));
  std::size_t sig_bytes = 0;
  for (auto _ : state) {
    Encoder enc;
    fx.qc.agg.encode(enc);
    sig_bytes = enc.data().size();
    benchmark::DoNotOptimize(enc.data().data());
  }
  state.counters["sig_bytes"] = static_cast<double>(sig_bytes);
}
BENCHMARK(BM_CertEncodeAggregate)->Arg(16)->Arg(31)->Arg(100);

/// Verify side, per-vote scheme: 2f+1 independent MAC recomputations, the
/// cost every receiver paid per certificate before aggregation.
void BM_CertVerifyPerVote(benchmark::State& state) {
  const SignedQcFixture fx(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    bool ok = true;
    for (const types::Vote& vote : fx.votes) {
      ok &= fx.registry.verify(vote.sig, vote.signing_bytes());
    }
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_CertVerifyPerVote)->Arg(16)->Arg(31)->Arg(100);

/// Aggregate verify, cold: the full refold (one MAC recomputation per
/// bitmap signer) a receiver pays the first time it sees a certificate.
void BM_CertVerifyAggregateCold(benchmark::State& state) {
  const SignedQcFixture fx(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.qc.verify(fx.registry, fx.quorum));
  }
}
BENCHMARK(BM_CertVerifyAggregateCold)->Arg(16)->Arg(31)->Arg(100);

/// ...and memoized: the VerifyCache hit path for a certificate this replica
/// has already verified (the chained pipeline re-verifies the same QC on
/// proposal validation, sync, and commit paths).
void BM_CertVerifyAggregateMemoized(benchmark::State& state) {
  const SignedQcFixture fx(static_cast<std::uint32_t>(state.range(0)));
  crypto::VerifyCache cache(nullptr, 0);
  benchmark::DoNotOptimize(fx.qc.verify(fx.registry, fx.quorum, &cache));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.qc.verify(fx.registry, fx.quorum, &cache));
  }
}
BENCHMARK(BM_CertVerifyAggregateMemoized)->Arg(16)->Arg(31)->Arg(100);

/// Vote admission with a warm vote-MAC memo: the dedupe/revalidate path
/// when the same vote arrives again (gossip, retransmit).
void BM_VoteVerifyMemoized(benchmark::State& state) {
  const SignedQcFixture fx(31);
  crypto::VerifyCache cache(nullptr, 0);
  const types::Vote& vote = fx.votes.front();
  benchmark::DoNotOptimize(
      fx.registry.verify(vote.sig, vote.signing_bytes(), &cache));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.registry.verify(vote.sig, vote.signing_bytes(), &cache));
  }
}
BENCHMARK(BM_VoteVerifyMemoized);

/// A paper-calibrated proposal: 100 transactions x 4.5 KB -> ~450 KB frame.
types::Proposal make_block_proposal() {
  types::Proposal proposal;
  proposal.block.parent_id = {};
  proposal.block.round = 10;
  proposal.block.height = 9;
  proposal.block.proposer = 1;
  for (std::uint64_t i = 0; i < 100; ++i) {
    proposal.block.payload.txns.push_back(
        {.id = i, .submitted_at = 0, .size_bytes = 4500});
  }
  proposal.block.seal();
  return proposal;
}

/// Sealing a block whose payload digest is cold (100-record re-encode +
/// hash) — the "before" of the payload-digest memo on the proposer path.
void BM_BlockSealColdPayload(benchmark::State& state) {
  types::Proposal proposal = make_block_proposal();
  for (auto _ : state) {
    state.PauseTiming();
    // A copy with a fresh payload (clears the memo via reconstruction).
    types::Block block = proposal.block;
    types::Payload cold;
    cold.txns = block.payload.txns;
    block.payload = std::move(cold);
    state.ResumeTiming();
    block.seal();
    benchmark::DoNotOptimize(block.id);
  }
}
BENCHMARK(BM_BlockSealColdPayload);

/// Re-sealing with a warm payload memo — the equivocation-twin / re-seal
/// path after memoization: only the small header re-hashes.
void BM_BlockSealWarmPayload(benchmark::State& state) {
  types::Proposal proposal = make_block_proposal();
  types::Block block = proposal.block;
  block.seal();  // primes the payload records memo
  for (auto _ : state) {
    block.created_at += 1;  // the twin recipe
    block.seal();
    benchmark::DoNotOptimize(block.id);
  }
}
BENCHMARK(BM_BlockSealWarmPayload);

/// Building one ~450 KB proposal frame: pack (records plus body runs, no
/// body bytes) and encode(), which expands the runs into the frame. The
/// simulated transport pays this only on a corrupted link; everywhere else
/// it charges encoded_size() (BM_PackBatchPush250x4500 is that path).
void BM_EnvelopeEncodeProposal450KB(benchmark::State& state) {
  const types::Proposal proposal = make_block_proposal();
  std::size_t frame_bytes = 0;
  for (auto _ : state) {
    const net::Envelope env =
        net::Envelope::pack(net::WireType::kProposal, 1, proposal);
    const Bytes frame = env.encode();
    frame_bytes = frame.size();
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame_bytes));
}
BENCHMARK(BM_EnvelopeEncodeProposal450KB);

/// Receiver-side cost per delivery: frame validation (CRC) + typed decode.
void BM_EnvelopeDecodeProposal450KB(benchmark::State& state) {
  const net::Envelope env =
      net::Envelope::pack(net::WireType::kProposal, 1, make_block_proposal());
  const Bytes frame = env.encode();
  for (auto _ : state) {
    const net::Envelope decoded = net::Envelope::decode(BytesView(frame));
    benchmark::DoNotOptimize(decoded.unpack<types::Proposal>());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_EnvelopeDecodeProposal450KB);

/// What a per-recipient transport would pay to serialize one proposal for
/// 99 peers. SimTransport::broadcast pays none of it: clean links deliver
/// the shared envelope and take its size from Envelope::encoded_size(), and
/// a frame is built at most once per broadcast, only when a CorruptSpec
/// corrupts some link (compare one iteration here against one
/// BM_EnvelopeEncodeProposal450KB).
void BM_EnvelopeEncodePerPeer99(benchmark::State& state) {
  const types::Proposal proposal = make_block_proposal();
  for (auto _ : state) {
    std::size_t total = 0;
    for (int peer = 0; peer < 99; ++peer) {
      const net::Envelope env =
          net::Envelope::pack(net::WireType::kProposal, 1, proposal);
      total += env.encode().size();
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_EnvelopeEncodePerPeer99);

/// One broadcast of a 250 x 4.5 KB BatchPush (~1.1 MB) to n = 50, drained
/// through handlers on the host's receive path (dissem::CheckedPush::of):
/// the transport charges encoded_size() without building a frame, and the
/// 49 clean recipients share one decode and one digest check.
void BM_BroadcastBatchPushN50(benchmark::State& state) {
  constexpr std::uint32_t kN = 50;
  dissem::Batch batch;
  batch.creator = 0;
  for (std::uint64_t i = 0; i < 250; ++i) {
    batch.txns.push_back(
        {.id = i + 1, .submitted_at = 0, .size_bytes = 4500});
  }
  batch.seal();
  const net::Envelope env = net::Envelope::pack(
      net::WireType::kBatchPush, 0, dissem::BatchPush{batch});
  sim::Scheduler sched;
  net::SimTransport transport(sched, net::Topology::uniform(kN, millis(10)),
                              {}, 1);
  std::uint64_t valid = 0;
  for (ReplicaId id = 0; id < kN; ++id) {
    transport.set_handler(id, [&valid](const net::Envelope& received,
                                       std::size_t) {
      valid += dissem::CheckedPush::of(received).digest_valid ? 1 : 0;
    });
  }
  for (auto _ : state) {
    transport.broadcast(env, /*include_self=*/false);
    sched.run_until_idle();
    benchmark::DoNotOptimize(valid);
  }
  if (valid != static_cast<std::uint64_t>(state.iterations()) * (kN - 1)) {
    state.SkipWithError("a recipient rejected the push");
  }
}
BENCHMARK(BM_BroadcastBatchPushN50)->Unit(benchmark::kMillisecond);

/// One signed proposal whose QC carries 21 votes, broadcast to n = 31 with
/// signatures on and checked by every receiver on the host's receive path
/// (core::CheckedProposal::of): each receiver runs the validation checks in
/// order against its own VerifyCache, while the decode, the block-id and
/// Log-digest hashes, the proposer's MAC and the QC's memo key and refold
/// happen once per broadcast. The caches start empty for every broadcast,
/// as for a new proposal; emptying them is inside the timed loop.
void BM_BroadcastProposalN31(benchmark::State& state) {
  constexpr std::uint32_t kN = 31;
  const SignedQcFixture fx(kN);
  types::Block block;
  block.parent_id = fx.qc.block_id;
  block.round = fx.qc.round + 1;
  block.height = 2;
  block.proposer = static_cast<ReplicaId>(block.round % kN);
  block.qc = fx.qc;
  block.seal();
  types::Proposal proposal;
  proposal.block = block;
  proposal.sig =
      fx.registry.signer_for(block.proposer).sign(proposal.signing_bytes());
  const net::Envelope env =
      net::Envelope::pack(net::WireType::kProposal, block.proposer, proposal);
  sim::Scheduler sched;
  net::SimTransport transport(sched, net::Topology::uniform(kN, millis(10)),
                              {}, 1);
  std::vector<crypto::VerifyCache> caches(kN);
  std::uint64_t accepted = 0;
  for (ReplicaId id = 0; id < kN; ++id) {
    transport.set_handler(id, [&, id](const net::Envelope& received,
                                      std::size_t) {
      const core::CheckedProposal& checked =
          core::CheckedProposal::of(received);
      crypto::VerifyCache* cache = &caches[id];
      const bool ok = checked.id_valid() && checked.log_digest_valid() &&
                      checked.signature_valid(fx.registry, cache) &&
                      checked.qc_valid(fx.registry, fx.quorum, cache);
      accepted += ok ? 1 : 0;
    });
  }
  const std::uint64_t refolds_before = fx.registry.aggregate_refolds();
  for (auto _ : state) {
    for (crypto::VerifyCache& cache : caches) cache = crypto::VerifyCache();
    transport.broadcast(env, /*include_self=*/true);
    sched.run_until_idle();
    benchmark::DoNotOptimize(accepted);
  }
  if (accepted != static_cast<std::uint64_t>(state.iterations()) * kN) {
    state.SkipWithError("a receiver rejected the proposal");
  }
  state.counters["refolds_per_broadcast"] =
      static_cast<double>(fx.registry.aggregate_refolds() - refolds_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_BroadcastProposalN31)->Unit(benchmark::kMicrosecond);

/// One signed marker-mode vote broadcast to n = 100 with no-op handlers:
/// the transport's per-frame routing cost (traffic ledger, egress charge,
/// delay draw, schedule and dispatch) on a small frame, where no payload
/// work hides it. `ns_per_frame` divides by the 99 routed frames.
void BM_BroadcastVoteN100(benchmark::State& state) {
  constexpr std::uint32_t kN = 100;
  crypto::KeyRegistry registry(kN, 1);
  types::Vote vote;
  vote.round = 7;
  vote.voter = 3;
  vote.mode = types::VoteMode::Marker;
  vote.marker = 2;
  vote.sig = registry.signer_for(vote.voter).sign(vote.signing_bytes());
  const net::Envelope env =
      net::Envelope::pack(net::WireType::kVote, vote.voter, vote);
  sim::Scheduler sched;
  net::SimTransport transport(sched, net::Topology::uniform(kN, millis(10)),
                              {}, 1);
  for (ReplicaId id = 0; id < kN; ++id) {
    transport.set_handler(id, [](const net::Envelope&, std::size_t) {});
  }
  for (auto _ : state) {
    transport.broadcast(env, /*include_self=*/false);
    sched.run_until_idle();
  }
  state.counters["frame_bytes"] = static_cast<double>(env.encoded_size());
  state.counters["ns_per_frame"] = benchmark::Counter(
      (kN - 1) * 1e-9, benchmark::Counter::kIsIterationInvariantRate |
                           benchmark::Counter::kInvert);
}
BENCHMARK(BM_BroadcastVoteN100)->Unit(benchmark::kMicrosecond);

/// The sender's whole encode cost per digest_dissem batch push: pack a
/// 250 x 4.5 KB batch (~1.1 MB on the wire) and size it, with no frame
/// built. The bodies stay runs, so this writes ~6 KB of records.
void BM_PackBatchPush250x4500(benchmark::State& state) {
  dissem::Batch batch;
  batch.creator = 0;
  for (std::uint64_t i = 0; i < 250; ++i) {
    batch.txns.push_back(
        {.id = i + 1, .submitted_at = 0, .size_bytes = 4500});
  }
  batch.seal();
  const dissem::BatchPush push{batch};
  std::size_t wire_bytes = 0;
  for (auto _ : state) {
    const net::Envelope env =
        net::Envelope::pack(net::WireType::kBatchPush, 0, push);
    wire_bytes = env.encoded_size();
    benchmark::DoNotOptimize(wire_bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire_bytes));
}
BENCHMARK(BM_PackBatchPush250x4500);

/// mark_committed of a 250-transaction batch from another replica's id
/// space (fresh ids each iteration, as in a live run) against a pool
/// holding 4,000 own transactions: the inline-mode cost of every block a
/// replica did not propose.
void BM_MempoolMarkCommittedForeign250(benchmark::State& state) {
  mempool::Mempool pool;
  for (std::uint64_t i = 0; i < 4000; ++i) {
    pool.submit({.id = (std::uint64_t{1} << 40) | i, .submitted_at = 0,
                 .size_bytes = 450});
  }
  types::Payload foreign;
  foreign.txns.resize(250, {.id = 0, .submitted_at = 0, .size_bytes = 450});
  std::uint64_t next = std::uint64_t{2} << 40;
  for (auto _ : state) {
    for (types::Transaction& txn : foreign.txns) txn.id = next++;
    pool.mark_committed(foreign);
  }
  if (pool.pending() != 4000) state.SkipWithError("own transactions lost");
}
BENCHMARK(BM_MempoolMarkCommittedForeign250);

/// One rate-limited submission through the AdmissionFrontend with 50
/// clients, each with a full dedup window and its per-second budget spent:
/// what submit() costs a caller outside the swarm. The swarm itself skips
/// these calls on over-budget ticks (BM_ClientSwarmOverBudgetTick).
void BM_AdmissionRateLimitedSubmit(benchmark::State& state) {
  constexpr std::uint32_t kClients = 50;
  mempool::Mempool pool;
  dissem::DissemConfig config;
  config.clients = kClients;
  config.client_rate_limit = 5;
  dissem::AdmissionFrontend frontend(pool, config);
  std::vector<std::uint64_t> seq(kClients, 0);
  const auto id_of = [&seq](std::uint32_t client) {
    return (std::uint64_t{client} << 26) | seq[client]++;
  };
  SimTime now = 0;
  for (std::size_t filled = 0; filled < config.client_dedup_window;
       filled += config.client_rate_limit, now += seconds(1)) {
    for (std::uint32_t client = 0; client < kClients; ++client) {
      for (std::uint32_t i = 0; i < config.client_rate_limit; ++i) {
        frontend.submit(client,
                        {.id = id_of(client), .submitted_at = now,
                         .size_bytes = 450},
                        now);
      }
    }
  }
  now -= seconds(1);  // inside the last window: every budget is spent
  std::uint32_t client = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(frontend.submit(
        client, {.id = id_of(client), .submitted_at = now, .size_bytes = 450},
        now));
    client = (client + 1) % kClients;
  }
  if (frontend.stats().rate_limited !=
      static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("a submission was not rate-limited");
  }
}
BENCHMARK(BM_AdmissionRateLimitedSubmit);

/// One ClientSwarm refill tick on which all 50 clients are over budget
/// (digest_dissem's shape: 50 clients at 5 txn/s, so ~99 of every 100
/// ticks): the bulk tick that records 50 rejections at once.
void BM_ClientSwarmOverBudgetTick(benchmark::State& state) {
  constexpr std::uint32_t kClients = 50;
  sim::Scheduler sched;
  mempool::Mempool pool;
  dissem::DissemConfig config;
  config.clients = kClients;
  config.client_rate_limit = 5;
  dissem::AdmissionFrontend frontend(pool, config);
  dissem::ClientSwarm swarm(sched, frontend, {.target_pool_size = 4000},
                            config, Rng(1));
  swarm.top_up();  // spends every client's budget for this second
  const std::uint64_t admitted = frontend.stats().admitted;
  for (auto _ : state) swarm.top_up();
  if (frontend.stats().admitted != admitted ||
      frontend.stats().rate_limited !=
          kClients * (static_cast<std::uint64_t>(state.iterations()) + 1)) {
    state.SkipWithError("a tick admitted or skipped a client");
  }
}
BENCHMARK(BM_ClientSwarmOverBudgetTick);

/// One own batch through the pool: 250 submissions, make_batch(250) and
/// mark_committed, with fresh ids each time, so the committed window keeps
/// evicting once it is full (the digest_dissem leader's per-batch work).
void BM_MempoolCycle250(benchmark::State& state) {
  mempool::Mempool pool;
  std::uint64_t next = std::uint64_t{1} << 40;
  for (auto _ : state) {
    for (int i = 0; i < 250; ++i) {
      pool.submit({.id = next++, .submitted_at = 0, .size_bytes = 450});
    }
    pool.mark_committed(pool.make_batch(250));
  }
  if (pool.pending() != 0 || pool.in_flight() != 0) {
    state.SkipWithError("transactions left behind");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 250);
}
BENCHMARK(BM_MempoolCycle250);

/// Encoder growth with the exact pre-reserve (the shipped behaviour)...
void BM_EncoderAppendReserved(benchmark::State& state) {
  const Bytes chunk = make_bytes(4500);
  for (auto _ : state) {
    Encoder enc;
    enc.reserve(100 * chunk.size());
    for (int i = 0; i < 100; ++i) enc.raw(BytesView(chunk));
    benchmark::DoNotOptimize(enc.data().data());
  }
}
BENCHMARK(BM_EncoderAppendReserved);

/// ...versus the old behaviour (no reserve: repeated reallocation while a
/// message-sized buffer grows). The delta is the satellite fix's win on
/// the broadcast hot path.
void BM_EncoderAppendNoReserve(benchmark::State& state) {
  const Bytes chunk = make_bytes(4500);
  for (auto _ : state) {
    Encoder enc;
    for (int i = 0; i < 100; ++i) enc.raw(BytesView(chunk));
    benchmark::DoNotOptimize(enc.data().data());
  }
}
BENCHMARK(BM_EncoderAppendNoReserve);

/// Scheduler bookkeeping per event with ~1k events pending (a live n = 50
/// run's order of magnitude): schedule one event at a varying delay, cancel
/// every fourth one (a re-armed timer), and dispatch the earliest.
void BM_SchedulerScheduleDispatch(benchmark::State& state) {
  sim::Scheduler sched;
  std::uint64_t fired = 0;
  const auto callback = [&fired] { ++fired; };
  std::uint64_t i = 0;
  const auto delay = [&i] {
    return static_cast<SimDuration>(1 + (i * 7919) % 997);
  };
  for (; i < 1024; ++i) sched.schedule_after(delay(), callback);
  sim::TimerId rearmed = sim::kInvalidTimer;
  for (auto _ : state) {
    const sim::TimerId id = sched.schedule_after(delay(), callback);
    if (++i % 4 == 0) {
      sched.cancel(rearmed);
      rearmed = id;
    }
    benchmark::DoNotOptimize(sched.run_one());
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_SchedulerScheduleDispatch);

void BM_IntervalSetOps(benchmark::State& state) {
  for (auto _ : state) {
    IntervalSet set = IntervalSet::single(1, 1000);
    for (Round r = 10; r < 1000; r += 50) {
      set.subtract(r, r + 20);
    }
    benchmark::DoNotOptimize(set.contains(517));
  }
}
BENCHMARK(BM_IntervalSetOps);

}  // namespace

BENCHMARK_MAIN();
