// sftbft::dissem — the dissemination data plane, unit by unit, plus an
// end-to-end digest-mode deployment smoke: batches are content-addressed
// (tampering is detected), the BatchStore's proposable state machine dedups
// commits across forks, the broadcaster's push/pull protocol moves batches
// between replicas over the real transport, the AdmissionFrontend enforces
// dedup / rate limits / backpressure, and a digest-mode run commits real
// transactions with proposal frames a fraction of the inline-mode size.
#include <gtest/gtest.h>

#include "sftbft/core/committer.hpp"
#include "sftbft/core/payloads.hpp"
#include "sftbft/dissem/admission.hpp"
#include "sftbft/dissem/batch.hpp"
#include "sftbft/dissem/batch_store.hpp"
#include "sftbft/dissem/broadcaster.hpp"
#include "sftbft/harness/scenario.hpp"
#include "sftbft/net/sim_transport.hpp"

namespace sftbft::dissem {
namespace {

types::Transaction txn(std::uint64_t id, std::uint32_t size = 100) {
  return {.id = id, .submitted_at = 0, .size_bytes = size};
}

Batch make_batch(ReplicaId creator, std::uint64_t seq,
                 std::initializer_list<std::uint64_t> ids) {
  Batch batch;
  batch.creator = creator;
  batch.seq = seq;
  for (const std::uint64_t id : ids) batch.txns.push_back(txn(id));
  batch.seal();
  return batch;
}

// ------------------------------------------------------------------ Batch

TEST(Batch, DigestBindsContents) {
  const Batch batch = make_batch(1, 0, {1, 2, 3});
  EXPECT_TRUE(batch.digest_is_valid());

  // Same txns, different creator/seq: different content address.
  EXPECT_NE(batch.digest, make_batch(2, 0, {1, 2, 3}).digest);
  EXPECT_NE(batch.digest, make_batch(1, 1, {1, 2, 3}).digest);

  // Tampering with a transaction under the old digest is detectable.
  Batch tampered = batch;
  tampered.txns[0].id = 99;
  EXPECT_FALSE(tampered.digest_is_valid());
}

TEST(Batch, RoundTripsThroughCanonicalCodec) {
  const Batch batch = make_batch(3, 7, {10, 11, 12});
  Encoder enc;
  batch.encode(enc);
  Decoder dec(enc.data());
  const Batch back = Batch::decode(dec);
  EXPECT_EQ(back, batch);
  EXPECT_TRUE(back.digest_is_valid());
  // Bodies are synthetic: the wire form carries them, the decoded form is
  // compact, and re-encoding regenerates identical bytes.
  Encoder again;
  back.encode(again);
  EXPECT_EQ(again.data(), enc.data());
}

// ------------------------------------------------------------- BatchStore

TEST(BatchStore, ProposableStateMachine) {
  BatchStore store(0);
  const Batch a = make_batch(0, 0, {1});
  const Batch b = make_batch(0, 1, {2});
  EXPECT_TRUE(store.add(a));
  EXPECT_FALSE(store.add(a));  // idempotent by digest
  EXPECT_TRUE(store.add(b));
  EXPECT_EQ(store.proposable(), 2u);

  // make_payload drains oldest-first and marks the batches Proposed.
  const types::Payload p = store.make_payload(1, /*now=*/0, seconds(2));
  ASSERT_TRUE(p.is_digests());
  ASSERT_EQ(p.batch_digests.size(), 1u);
  EXPECT_EQ(p.batch_digests[0], a.digest);
  EXPECT_EQ(store.proposable(), 1u);

  // A timed-out proposal requeues its batches...
  store.requeue(p);
  EXPECT_EQ(store.proposable(), 2u);
  // ...and a stale Proposed reference becomes proposable again on its own
  // after repropose_after (the leader that named it evidently failed).
  const types::Payload p2 = store.make_payload(2, /*now=*/0, seconds(2));
  EXPECT_EQ(store.proposable(), 0u);
  const types::Payload p3 =
      store.make_payload(2, /*now=*/seconds(3), seconds(2));
  EXPECT_EQ(p3.batch_digests.size(), 2u);
  (void)p2;
}

TEST(BatchStore, ObserveReferenceParksBatchesProposed) {
  // Seeing another leader's proposal reference a batch must stop this
  // replica from re-proposing it while that proposal is in flight.
  BatchStore store(0);
  const Batch a = make_batch(1, 0, {5});
  store.add(a);
  store.observe_reference(types::Payload::referencing({a.digest}), 0);
  EXPECT_EQ(store.proposable(), 0u);
}

TEST(BatchStore, CommitResolutionDedupsAcrossForks) {
  BatchStore store(0);
  const Batch a = make_batch(0, 0, {1, 2});
  const Batch b = make_batch(1, 0, {3});
  store.add(a);
  store.add(b);

  // Two competing blocks referenced batch `a`; its txns count exactly once.
  std::vector<crypto::Sha256Digest> missing;
  const auto first = store.resolve_committed(
      types::Payload::referencing({a.digest, b.digest}), missing);
  EXPECT_EQ(first.txn_count, 3u);
  // Only the owner's batch is handed back for its mempool.
  ASSERT_EQ(first.own.txns.size(), 2u);
  EXPECT_EQ(first.own.txns[0].id, 1u);
  EXPECT_TRUE(missing.empty());
  const auto second = store.resolve_committed(
      types::Payload::referencing({a.digest}), missing);
  EXPECT_EQ(second.txn_count, 0u);
  EXPECT_EQ(store.committed_batches(), 2u);
}

TEST(BatchStore, LateBatchForCommittedDigestFilesAsCommitted) {
  // Block-sync path: the ordering can commit a digest before the bytes
  // arrive. The resolution reports it missing; when the pull completes, the
  // batch must go straight to Committed (never re-proposed).
  BatchStore store(0);
  const Batch late = make_batch(2, 9, {42});
  std::vector<crypto::Sha256Digest> missing;
  const auto resolved = store.resolve_committed(
      types::Payload::referencing({late.digest}), missing);
  EXPECT_EQ(resolved.txn_count, 0u);
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0], late.digest);

  EXPECT_TRUE(store.add(late));
  EXPECT_EQ(store.proposable(), 0u);
  EXPECT_EQ(store.committed_batches(), 1u);
  // Re-resolving is a no-op (the digest is already counted).
  std::vector<crypto::Sha256Digest> missing2;
  EXPECT_EQ(store
                .resolve_committed(types::Payload::referencing({late.digest}),
                                   missing2)
                .txn_count,
            0u);
  EXPECT_TRUE(missing2.empty());
}

TEST(Committer, OnlyOwnBatchesReachTheMempool) {
  // Replica 1 commits a block naming replica 2's batch and its own. The
  // ledger counts both; the mempool hears only about its own batch.
  constexpr std::uint64_t kOwn = std::uint64_t{1} << 40;
  constexpr std::uint64_t kForeign = std::uint64_t{2} << 40;
  sim::Scheduler sched;
  chain::BlockTree tree;
  chain::Ledger ledger;
  mempool::Mempool pool;
  BatchStore store(1);
  core::Payloads payloads(pool, store, DissemConfig{}, {});
  core::Committer committer(tree, ledger, payloads, sched, nullptr, 1, 1);

  for (std::uint64_t i = 0; i < 3; ++i) pool.submit(txn(kOwn | i));
  Batch own;
  own.creator = 1;
  own.txns = pool.make_batch(3).txns;
  own.seal();
  const Batch foreign = make_batch(2, 0, {kForeign, kForeign | 1});
  store.add(foreign);
  store.add(own);
  ASSERT_EQ(pool.in_flight(), 3u);

  types::Block block;
  block.parent_id = tree.genesis_id();
  block.round = 1;
  block.height = 1;
  block.proposer = 0;
  block.payload = types::Payload::referencing({foreign.digest, own.digest});
  block.seal();
  ASSERT_EQ(tree.insert(block), chain::BlockTree::InsertResult::Inserted);
  committer.commit_chain(block, 1);

  EXPECT_EQ(pool.in_flight(), 0u);
  EXPECT_EQ(ledger.committed_txns(), 5u);
  EXPECT_EQ(ledger.at(1).txn_count, 5u);
  // Own ids are in the committed window; foreign ones never reached it.
  EXPECT_EQ(pool.submit(txn(kOwn)), mempool::Mempool::Admit::kDuplicate);
  EXPECT_EQ(pool.submit(txn(kForeign)), mempool::Mempool::Admit::kAccepted);
}

// --------------------------------------------------------------- Payloads

TEST(Payloads, TimedOutPayloadReturnsWhereItCameFrom) {
  // A timed-out digest payload goes back to the store's Available set; an
  // inline payload goes back to the mempool, even with a store wired.
  mempool::Mempool pool;
  BatchStore store(0);
  core::Payloads payloads(pool, store, DissemConfig{}, {});
  store.add(make_batch(1, 0, {7}));

  const types::Payload digests = payloads.make(1000, /*now=*/0);
  ASSERT_TRUE(digests.is_digests());
  ASSERT_EQ(store.proposable(), 0u);
  payloads.requeue(digests);
  EXPECT_EQ(store.proposable(), 1u);

  for (std::uint64_t i = 0; i < 3; ++i) pool.submit(txn(i));
  const types::Payload inline_payload = pool.make_batch(3);
  ASSERT_EQ(pool.pending(), 0u);
  payloads.requeue(inline_payload);
  EXPECT_EQ(pool.pending(), 3u);
  EXPECT_EQ(pool.in_flight(), 0u);
  EXPECT_EQ(store.proposable(), 1u);
}

TEST(Payloads, InlineCommitCountsAndLeavesNothingInFlight) {
  mempool::Mempool pool;
  core::Payloads payloads(pool);
  for (std::uint64_t i = 0; i < 3; ++i) pool.submit(txn(i));
  const types::Payload payload = payloads.make(5, /*now=*/0);
  ASSERT_EQ(pool.in_flight(), 3u);
  EXPECT_EQ(payloads.commit(payload), payload.txns.size());
  EXPECT_EQ(pool.in_flight(), 0u);
}

TEST(Payloads, DigestCommitOfMissingBatchPullsOnce) {
  // Block-sync path: the ordering commits a digest whose batch never
  // arrived. The commit pulls it exactly once, however many blocks (forks)
  // reference it.
  mempool::Mempool pool;
  BatchStore store(0);
  std::vector<std::vector<crypto::Sha256Digest>> pulls;
  core::Payloads payloads(
      pool, store, DissemConfig{},
      [&pulls](const std::vector<crypto::Sha256Digest>& missing) {
        pulls.push_back(missing);
      });
  const Batch absent = make_batch(2, 0, {5, 6});
  const types::Payload payload = types::Payload::referencing({absent.digest});

  EXPECT_EQ(payloads.commit(payload), 0u);
  ASSERT_EQ(pulls.size(), 1u);
  EXPECT_EQ(pulls[0], std::vector<crypto::Sha256Digest>{absent.digest});
  EXPECT_EQ(payloads.commit(payload), 0u);
  EXPECT_EQ(pulls.size(), 1u);
}

TEST(CheckedPush, VerdictNeverSurvivesCopyOrAssignment) {
  // The shared decode-and-check record belongs to one envelope object: a
  // copy or an assignment starts without it, so a copy whose bytes are
  // then replaced by tampered ones is checked afresh.
  const net::Envelope env = net::Envelope::pack(
      net::WireType::kBatchPush, 0, BatchPush{make_batch(0, 0, {1, 2})});
  Batch forged = make_batch(0, 0, {1, 2});
  forged.txns[0].id = 77;
  const net::Envelope forged_env = net::Envelope::pack(
      net::WireType::kBatchPush, 0, BatchPush{forged});

  const CheckedPush& checked = CheckedPush::of(env);
  EXPECT_TRUE(checked.digest_valid);
  EXPECT_EQ(&CheckedPush::of(env), &checked);  // once per object

  net::Envelope copy = env;
  EXPECT_EQ(copy, env);  // the memo takes no part in equality
  EXPECT_NE(&CheckedPush::of(copy), &checked);
  net::Envelope tampered = env;
  tampered.payload = forged_env.payload;
  EXPECT_FALSE(CheckedPush::of(tampered).digest_valid);

  net::Envelope assigned = forged_env;
  EXPECT_FALSE(CheckedPush::of(assigned).digest_valid);
  assigned = env;
  EXPECT_TRUE(CheckedPush::of(assigned).digest_valid);
}

// -------------------------------------------------------- BatchBroadcaster

struct Plane {
  mempool::Mempool pool;
  BatchStore store{kNoReplica};
  std::unique_ptr<BatchBroadcaster> broadcaster;
  std::uint32_t arrivals = 0;
  /// Per delivered kBatchPush: which checked-push record it resolved to
  /// (its address while alive) and that record's verdict.
  struct SeenPush {
    std::uintptr_t record = 0;
    bool digest_valid = false;
  };
  std::vector<SeenPush> pushes;

  void wire(ReplicaId id, net::SimTransport& transport, DissemConfig config,
            BatchBroadcaster::Options options = {.silent = false,
                                                 .withhold_push = false}) {
    store = BatchStore(id);
    broadcaster = std::make_unique<BatchBroadcaster>(
        id, transport, pool, store, config, [this] { ++arrivals; }, options);
    transport.set_handler(id, [this](const net::Envelope& env, std::size_t) {
      switch (env.type) {
        case net::WireType::kBatchPush: {
          const CheckedPush& push = CheckedPush::of(env);
          pushes.push_back({reinterpret_cast<std::uintptr_t>(&push),
                            push.digest_valid});
          broadcaster->on_push(push);
          break;
        }
        case net::WireType::kBatchRequest:
          broadcaster->on_request(env.unpack<BatchRequest>());
          break;
        case net::WireType::kBatchResponse:
          broadcaster->on_response(env.unpack<BatchResponse>());
          break;
        default:
          FAIL() << "unexpected wire type";
      }
    });
  }
};

TEST(BatchBroadcaster, PacksAndPushesToAllPeers) {
  sim::Scheduler sched;
  net::SimTransport transport(sched, net::Topology::uniform(3, millis(1)),
                              {}, 1);
  DissemConfig config;
  config.batch_max_txns = 4;
  Plane planes[3];
  for (ReplicaId id = 0; id < 3; ++id) planes[id].wire(id, transport, config);

  for (std::uint64_t i = 0; i < 6; ++i) planes[0].pool.submit(txn(i));
  planes[0].broadcaster->start();
  sched.run_for(millis(100));

  // Two batches (4 + 2 txns) packed and replicated to both peers.
  EXPECT_EQ(planes[0].broadcaster->batches_packed(), 2u);
  for (const Plane& plane : planes) EXPECT_EQ(plane.store.size(), 2u);
  EXPECT_EQ(planes[1].arrivals, 2u);
  EXPECT_EQ(transport.stats().for_type("batch_push").count, 4u);
}

TEST(BatchBroadcaster, PullRecoversWithheldBatch) {
  // Replica 0 packs but never pushes (the BatchWithholder posture). A peer
  // that learns the digest pulls it: request goes out, the withholder still
  // serves the pull, the arrival callback fires.
  sim::Scheduler sched;
  net::SimTransport transport(sched, net::Topology::uniform(3, millis(1)),
                              {}, 2);
  DissemConfig config;
  config.pull_fanout = 2;
  config.pull_retry = millis(50);
  Plane planes[3];
  planes[0].wire(0, transport, config,
                 {.silent = false, .withhold_push = true});
  planes[1].wire(1, transport, config);
  planes[2].wire(2, transport, config);

  for (std::uint64_t i = 0; i < 3; ++i) planes[0].pool.submit(txn(i));
  planes[0].broadcaster->start();
  sched.run_for(millis(50));
  ASSERT_EQ(planes[0].store.size(), 1u);
  ASSERT_EQ(planes[1].store.size(), 0u);  // withheld

  const crypto::Sha256Digest digest =
      planes[0].store.make_payload(1, 0, seconds(2)).batch_digests.at(0);
  planes[1].broadcaster->want({digest});
  sched.run_for(millis(500));

  EXPECT_TRUE(planes[1].store.has(digest));
  EXPECT_GE(planes[1].arrivals, 1u);
  EXPECT_EQ(planes[1].broadcaster->missing_count(), 0u);
  EXPECT_GT(transport.stats().for_type("batch_req").count, 0u);
  EXPECT_GT(transport.stats().for_type("batch_resp").count, 0u);
}

TEST(BatchBroadcaster, TamperedBatchIsRejected) {
  // Broadcast to three peers: every clean recipient shares one envelope, so
  // one decode and one digest check serve all of them.
  sim::Scheduler sched;
  net::SimTransport transport(sched, net::Topology::uniform(4, millis(1)),
                              {}, 3);
  DissemConfig config;
  Plane planes[4];
  for (ReplicaId id = 0; id < 4; ++id) planes[id].wire(id, transport, config);

  Batch forged = make_batch(0, 0, {1, 2});
  forged.txns[0].id = 77;  // bytes no longer match the content address
  transport.broadcast(net::Envelope::pack(net::WireType::kBatchPush, 0,
                                          BatchPush{forged}),
                      /*include_self=*/false);
  sched.run_until_idle();
  for (ReplicaId id = 1; id < 4; ++id) {
    ASSERT_EQ(planes[id].pushes.size(), 1u);
    EXPECT_EQ(planes[id].pushes[0].record, planes[1].pushes[0].record);
    EXPECT_FALSE(planes[id].pushes[0].digest_valid);
    EXPECT_EQ(planes[id].store.size(), 0u);
    EXPECT_EQ(planes[id].arrivals, 0u);
  }

  const Batch valid = make_batch(0, 1, {1, 2});
  transport.broadcast(net::Envelope::pack(net::WireType::kBatchPush, 0,
                                          BatchPush{valid}),
                      /*include_self=*/false);
  sched.run_until_idle();
  for (ReplicaId id = 1; id < 4; ++id) {
    ASSERT_EQ(planes[id].pushes.size(), 2u);
    EXPECT_EQ(planes[id].pushes[1].record, planes[1].pushes[1].record);
    EXPECT_TRUE(planes[id].pushes[1].digest_valid);
    EXPECT_TRUE(planes[id].store.has(valid.digest));
    EXPECT_FALSE(planes[id].store.has(forged.digest));
    EXPECT_EQ(planes[id].arrivals, 1u);
  }
}

// -------------------------------------------------------- AdmissionFrontend

TEST(AdmissionFrontend, DedupsRetriesPerClient) {
  mempool::Mempool pool;
  DissemConfig config;
  config.client_dedup_window = 4;
  AdmissionFrontend frontend(pool, config);

  EXPECT_EQ(frontend.submit(1, txn(10), 0), AdmissionFrontend::Outcome::kAdmitted);
  // The client retries (timeout on its side): rejected, not double-queued.
  EXPECT_EQ(frontend.submit(1, txn(10), 0),
            AdmissionFrontend::Outcome::kDuplicate);
  EXPECT_EQ(pool.pending(), 1u);
  EXPECT_EQ(frontend.stats().duplicates, 1u);
}

TEST(AdmissionFrontend, DedupWindowIsARingOfTheLastAdmits) {
  mempool::Mempool pool;
  DissemConfig config;
  config.client_dedup_window = 4;
  AdmissionFrontend frontend(pool, config);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    ASSERT_EQ(frontend.submit(1, txn(id), 0),
              AdmissionFrontend::Outcome::kAdmitted);
  }
  // A fresh pool (as after a restart) leaves only the client window to
  // catch a retry: id 1 fell out of it, id 2 is still in it.
  pool = mempool::Mempool();
  EXPECT_EQ(frontend.submit(1, txn(2), 0),
            AdmissionFrontend::Outcome::kDuplicate);
  EXPECT_EQ(frontend.submit(1, txn(1), 0),
            AdmissionFrontend::Outcome::kAdmitted);
  EXPECT_EQ(frontend.stats().duplicates, 1u);
}

TEST(AdmissionFrontend, ZeroDedupWindowRemembersNothing) {
  mempool::Mempool pool;
  DissemConfig config;
  config.client_dedup_window = 0;
  AdmissionFrontend frontend(pool, config);
  EXPECT_EQ(frontend.submit(1, txn(10), 0),
            AdmissionFrontend::Outcome::kAdmitted);
  pool = mempool::Mempool();
  EXPECT_EQ(frontend.submit(1, txn(10), 0),
            AdmissionFrontend::Outcome::kAdmitted);
  EXPECT_EQ(frontend.stats().duplicates, 0u);
}

TEST(AdmissionFrontend, UnknownClientThrows) {
  mempool::Mempool pool;
  DissemConfig config;
  config.clients = 4;
  AdmissionFrontend frontend(pool, config);
  EXPECT_THROW((void)frontend.submit(4, txn(1), 0), std::out_of_range);
  EXPECT_EQ(frontend.submit(3, txn(1), 0),
            AdmissionFrontend::Outcome::kAdmitted);
  EXPECT_EQ(frontend.stats().admitted, 1u);
  EXPECT_EQ(pool.pending(), 1u);
}

TEST(AdmissionFrontend, RateLimitsPerClientPerSecond) {
  mempool::Mempool pool;
  DissemConfig config;
  config.client_rate_limit = 2;
  AdmissionFrontend frontend(pool, config);

  EXPECT_EQ(frontend.submit(7, txn(1), 0), AdmissionFrontend::Outcome::kAdmitted);
  EXPECT_EQ(frontend.submit(7, txn(2), 0), AdmissionFrontend::Outcome::kAdmitted);
  EXPECT_EQ(frontend.submit(7, txn(3), 0),
            AdmissionFrontend::Outcome::kRateLimited);
  // Another client has its own bucket.
  EXPECT_EQ(frontend.submit(8, txn(4), 0), AdmissionFrontend::Outcome::kAdmitted);
  // The window rolls over after a second.
  EXPECT_EQ(frontend.submit(7, txn(5), seconds(1)),
            AdmissionFrontend::Outcome::kAdmitted);
  EXPECT_EQ(frontend.stats().rate_limited, 1u);
}

TEST(AdmissionFrontend, BackpressuresOnFullMempool) {
  mempool::Mempool pool;
  DissemConfig config;
  config.mempool_capacity = 2;
  AdmissionFrontend frontend(pool, config);
  pool.set_capacity(config.mempool_capacity);

  EXPECT_EQ(frontend.submit(1, txn(1), 0), AdmissionFrontend::Outcome::kAdmitted);
  EXPECT_EQ(frontend.submit(1, txn(2), 0), AdmissionFrontend::Outcome::kAdmitted);
  EXPECT_EQ(frontend.submit(1, txn(3), 0),
            AdmissionFrontend::Outcome::kBackpressure);
  EXPECT_EQ(frontend.stats().backpressured, 1u);
  // Consensus drains the pool; the retry now lands.
  (void)pool.make_batch(2);
  EXPECT_EQ(frontend.submit(1, txn(3), 0), AdmissionFrontend::Outcome::kAdmitted);
}

TEST(ClientSwarm, KeepsBacklogSaturated) {
  sim::Scheduler sched;
  mempool::Mempool pool;
  DissemConfig config;
  config.clients = 8;
  config.batch_interval = millis(10);
  AdmissionFrontend frontend(pool, config);
  ClientSwarm swarm(sched, frontend,
                    {.mean_interarrival = 0, .target_pool_size = 40}, config,
                    Rng(5));
  swarm.set_id_space(3);
  swarm.start();
  sched.run_for(millis(5));
  EXPECT_EQ(pool.pending(), 40u);

  // Consensus keeps draining; the swarm refills on its cadence.
  (void)pool.make_batch(40);
  sched.run_for(millis(50));
  EXPECT_EQ(pool.pending(), 40u);
  EXPECT_EQ(frontend.stats().admitted, swarm.submitted());
  swarm.stop();
}

// ----------------------------------------------------- end-to-end (smoke)

TEST(Dissemination, DigestModeDeploymentCommitsRealTransactions) {
  // One scenario, run inline and digest-mode: both commit, and digest-mode
  // proposal frames are a small fraction of the inline (block-sized) ones
  // while committed txns flow through the BatchStore resolution path.
  harness::Scenario s;
  s.protocol = engine::Protocol::DiemBft;
  s.n = 4;
  s.topo = harness::Scenario::Topo::Uniform;
  s.delta = millis(10);
  s.jitter = millis(2);
  s.jitter_frac = 0;
  s.leader_processing = millis(5);
  s.base_timeout = millis(500);
  s.max_batch = 100;
  s.txn_size_bytes = 450;
  s.duration = seconds(10);
  s.warmup = seconds(1);
  s.tail = seconds(2);
  s.seed = 11;
  // Sustained arrivals: without them the legacy one-shot top-up drains
  // after ~4 blocks and inline proposals degenerate to empty payloads,
  // which would make the size comparison below meaningless.
  s.mean_interarrival = micros(100);

  const harness::ScenarioResult inline_run = run_scenario(s);

  s.dissemination = true;
  s.dissem.batch_max_txns = 100;
  s.dissem.batch_interval = millis(20);
  const harness::ScenarioResult digest_run = run_scenario(s);

  ASSERT_GT(inline_run.summary.committed_txns, 0u);
  ASSERT_GT(digest_run.summary.committed_txns, 0u);

  const auto mean_bytes = [](const net::MessageStats::TypeStats& t) {
    return t.count == 0 ? 0.0
                        : static_cast<double>(t.bytes) /
                              static_cast<double>(t.count);
  };
  const double inline_prop =
      mean_bytes(inline_run.traffic_by_type.at("proposal"));
  const double digest_prop =
      mean_bytes(digest_run.traffic_by_type.at("proposal"));
  EXPECT_LT(digest_prop, inline_prop / 10.0)
      << "digest proposals " << digest_prop << "B vs inline " << inline_prop;

  // The egress accounting (satellite): per-replica totals exist and their
  // max matches the reported bound.
  ASSERT_FALSE(digest_run.egress_by_replica.empty());
  std::uint64_t max = 0;
  for (const std::uint64_t bytes : digest_run.egress_by_replica) {
    max = std::max(max, bytes);
  }
  EXPECT_EQ(max, digest_run.max_egress_bytes);
  EXPECT_GT(max, 0u);
}

}  // namespace
}  // namespace sftbft::dissem
