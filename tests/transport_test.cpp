// SimTransport: delivery timing, jitter bounds, GST semantics, partitions,
// stats, byte-level rejection — the partial-synchrony substrate both
// protocol stacks now share.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "sftbft/net/sim_transport.hpp"

namespace sftbft::net {
namespace {

struct Delivery {
  ReplicaId from;
  ReplicaId at_replica;
  Bytes payload;
  SimTime at;
  std::size_t frame_bytes;
};

Envelope make_envelope(ReplicaId sender, Bytes payload,
                       WireType type = WireType::kVote) {
  return Envelope{type, sender, std::move(payload)};
}

Envelope sized_envelope(ReplicaId sender, std::size_t frame_bytes) {
  // Frame = payload + fixed overhead; build a payload hitting the target.
  EXPECT_GE(frame_bytes, Envelope::kOverhead);
  return make_envelope(sender, Bytes(frame_bytes - Envelope::kOverhead, 0xAB));
}

struct Harness {
  sim::Scheduler sched;
  std::vector<Delivery> deliveries;

  SimTransport make(Topology topo, NetConfig config, std::uint64_t seed = 1) {
    SimTransport transport(sched, std::move(topo), config, seed);
    for (ReplicaId id = 0; id < transport.topology().size(); ++id) {
      transport.set_handler(
          id, [this, id](const Envelope& env, std::size_t frame_bytes) {
            deliveries.push_back(
                {env.sender, id, env.payload, sched.now(), frame_bytes});
          });
    }
    return transport;
  }
};

TEST(SimTransport, DeliversAtBaseDelay) {
  Harness h;
  auto net = h.make(Topology::uniform(3, millis(10)), {});
  net.send(1, make_envelope(0, {1, 2, 3}));
  h.sched.run_until_idle();
  ASSERT_EQ(h.deliveries.size(), 1u);
  EXPECT_EQ(h.deliveries[0].at, millis(10));
  EXPECT_EQ(h.deliveries[0].at_replica, 1u);
  EXPECT_EQ(h.deliveries[0].payload, (Bytes{1, 2, 3}));
}

TEST(SimTransport, ChargesExactEncodedBytes) {
  // The size the receiver sees — and the size the stats charge — is the
  // exact encoded frame: payload + Envelope::kOverhead, not an estimate.
  Harness h;
  auto net = h.make(Topology::uniform(3, millis(10)), {});
  const Envelope env = make_envelope(0, Bytes(120, 7));
  const std::size_t frame = env.encode().size();
  EXPECT_EQ(frame, 120 + Envelope::kOverhead);
  net.send(1, env);
  net.send(2, make_envelope(2, Bytes(50, 1)));  // self-send, immediate
  h.sched.run_until_idle();
  ASSERT_EQ(h.deliveries.size(), 2u);
  EXPECT_EQ(h.deliveries[0].frame_bytes, 50 + Envelope::kOverhead);
  EXPECT_EQ(h.deliveries[1].frame_bytes, frame);
  EXPECT_EQ(net.stats().for_type(WireLabel::kVote).bytes,
            frame + 50 + Envelope::kOverhead);
}

TEST(SimTransport, SelfSendIsImmediate) {
  Harness h;
  auto net = h.make(Topology::uniform(3, millis(10)), {});
  net.send(2, make_envelope(2, {9}));
  // Delivered synchronously, no event needed.
  ASSERT_EQ(h.deliveries.size(), 1u);
  EXPECT_EQ(h.deliveries[0].at, 0);
}

TEST(SimTransport, JitterStaysWithinBound) {
  Harness h;
  auto net = h.make(Topology::uniform(2, millis(10)), {.jitter = millis(5)});
  for (int i = 0; i < 50; ++i) net.send(1, make_envelope(0, {1}));
  h.sched.run_until_idle();
  for (const Delivery& d : h.deliveries) {
    EXPECT_GE(d.at, millis(10));
    EXPECT_LE(d.at, millis(15));
  }
}

TEST(SimTransport, ProportionalJitterScalesWithDistance) {
  Harness h;
  auto net = h.make(Topology::uniform(2, millis(100)),
                    {.jitter = 0, .jitter_frac = 0.5});
  for (int i = 0; i < 50; ++i) net.send(1, make_envelope(0, {1}));
  h.sched.run_until_idle();
  SimTime max_seen = 0;
  for (const Delivery& d : h.deliveries) {
    EXPECT_GE(d.at, millis(100));
    EXPECT_LE(d.at, millis(150));
    max_seen = std::max(max_seen, d.at);
  }
  EXPECT_GT(max_seen, millis(110));  // jitter actually applied
}

TEST(SimTransport, BandwidthAddsTransferTime) {
  Harness h;
  auto net = h.make(Topology::uniform(2, millis(10)),
                    {.bandwidth_bytes_per_sec = 1'000'000});
  net.send(1, sized_envelope(0, 500'000));  // 0.5s at 1 MB/s
  h.sched.run_until_idle();
  ASSERT_EQ(h.deliveries.size(), 1u);
  EXPECT_EQ(h.deliveries[0].at, millis(10) + millis(500));
}

TEST(SimTransport, GstDelaysEarlyMessages) {
  Harness h;
  auto net = h.make(Topology::uniform(2, millis(10)), {.gst = millis(100)});
  net.send(1, make_envelope(0, {1}));  // sent at t=0, before GST
  h.sched.run_until_idle();
  ASSERT_EQ(h.deliveries.size(), 1u);
  // Arrives no earlier than GST + base delay.
  EXPECT_EQ(h.deliveries[0].at, millis(110));
}

TEST(SimTransport, BroadcastReachesAll) {
  Harness h;
  auto net = h.make(Topology::uniform(4, millis(10)), {});
  net.broadcast(make_envelope(1, {1}), /*include_self=*/true);
  h.sched.run_until_idle();
  EXPECT_EQ(h.deliveries.size(), 4u);
  net.broadcast(make_envelope(1, {2}), /*include_self=*/false);
  h.sched.run_until_idle();
  EXPECT_EQ(h.deliveries.size(), 7u);
}

TEST(SimTransport, BroadcastCountsEncodeOnceSavings) {
  Harness h;
  auto net = h.make(Topology::uniform(4, millis(10)), {});
  const Envelope env = make_envelope(0, Bytes(100, 3));
  const std::size_t frame = env.encode().size();
  net.broadcast(env, /*include_self=*/true);
  // 4 recipients share one encoded frame: 3 encodes saved.
  EXPECT_EQ(net.stats().broadcast_saved_bytes(), 3 * frame);
}

TEST(SimTransport, DisconnectDropsInbound) {
  Harness h;
  auto net = h.make(Topology::uniform(3, millis(10)), {});
  net.disconnect(1);
  EXPECT_FALSE(net.connected(1));
  net.broadcast(make_envelope(0, {1}), /*include_self=*/true);
  h.sched.run_until_idle();
  EXPECT_EQ(h.deliveries.size(), 2u);  // replicas 0 and 2 only
}

TEST(SimTransport, LinkFilterDropsSelectively) {
  Harness h;
  auto net = h.make(Topology::uniform(3, millis(10)), {});
  net.set_link_filter([](ReplicaId from, ReplicaId to) {
    return !(from == 0 && to == 2);  // partition one direction
  });
  net.broadcast(make_envelope(0, {1}), /*include_self=*/false);
  net.send(0, make_envelope(2, {2}));  // reverse direction still works
  h.sched.run_until_idle();
  ASSERT_EQ(h.deliveries.size(), 2u);
  EXPECT_EQ(h.deliveries[0].at_replica, 1u);
  EXPECT_EQ(h.deliveries[1].at_replica, 0u);
  EXPECT_EQ(h.deliveries[1].from, 2u);
}

TEST(SimTransport, StatsCountEverything) {
  Harness h;
  auto net = h.make(Topology::uniform(3, millis(10)), {});
  const Envelope prop = make_envelope(0, Bytes(1000, 1), WireType::kProposal);
  const std::size_t frame = prop.encode().size();
  net.broadcast(prop, /*include_self=*/true);
  net.send(0, make_envelope(1, {1}));
  EXPECT_EQ(net.stats().total_count(), 4u);
  EXPECT_EQ(net.stats().for_type(WireLabel::kProposal).count, 3u);
  EXPECT_EQ(net.stats().for_type(WireLabel::kProposal).bytes, 3u * frame);
  EXPECT_EQ(net.stats().for_type(WireLabel::kVote).count, 1u);
  // A label that was never sent reads zero and is not rendered.
  EXPECT_EQ(net.stats().for_type(WireLabel::kTimeout).count, 0u);
  EXPECT_EQ(net.stats().for_type(WireLabel::kTimeout).bytes, 0u);
  std::vector<std::string> rendered;
  for (const auto& [name, stats] : net.stats().by_type()) {
    rendered.push_back(name);
  }
  EXPECT_EQ(rendered, (std::vector<std::string>{"proposal", "vote"}));
}

TEST(SimTransport, LabelOverridesStatsKey) {
  Harness h;
  auto net = h.make(Topology::uniform(3, millis(10)), {});
  net.broadcast(make_envelope(0, {1}), /*include_self=*/false,
                WireLabel::kExtraVote);
  net.send(1, make_envelope(0, {1}), WireLabel::kEcho);
  EXPECT_EQ(net.stats().for_type(WireLabel::kExtraVote).count, 2u);
  EXPECT_EQ(net.stats().for_type(WireLabel::kEcho).count, 1u);
  EXPECT_EQ(net.stats().for_type(WireLabel::kVote).count, 0u);
  EXPECT_EQ(net.stats().by_type().size(), 2u);
}

TEST(WireLabels, EveryWireTypeKeepsItsLedgerName) {
  // The names the artifacts (BENCH_wire.json, traces) are keyed by: each
  // protocol's tag shares the kernel's name.
  const std::map<WireType, std::string> expected = {
      {WireType::kProposal, "proposal"},
      {WireType::kVote, "vote"},
      {WireType::kTimeout, "timeout"},
      {WireType::kSyncRequest, "sync_req"},
      {WireType::kSyncResponse, "sync_resp"},
      {WireType::kSProposal, "proposal"},
      {WireType::kSVote, "vote"},
      {WireType::kSSyncResponse, "sync_resp"},
      {WireType::kBatchPush, "batch_push"},
      {WireType::kBatchRequest, "batch_req"},
      {WireType::kBatchResponse, "batch_resp"},
  };
  for (int tag = 0; tag < 256; ++tag) {
    const auto type = static_cast<WireType>(tag);
    ASSERT_EQ(wire_type_known(static_cast<std::uint8_t>(tag)),
              expected.contains(type))
        << tag;
  }
  for (const auto& [type, name] : expected) {
    EXPECT_EQ(wire_label_name(wire_label(type)), name)
        << static_cast<int>(type);
  }
  // The two labels no wire type maps to: senders name them explicitly.
  EXPECT_STREQ(wire_label_name(WireLabel::kEcho), "echo");
  EXPECT_STREQ(wire_label_name(WireLabel::kExtraVote), "extra_vote");
}

TEST(WireLabels, NamesAreUniqueAndAscending) {
  // Strictly ascending names rule out duplicates and make enum order the
  // std::map order the rendered ledgers (BENCH_wire rows) keep.
  for (std::size_t i = 1; i < kWireLabelCount; ++i) {
    EXPECT_LT(std::string(kWireLabelNames[i - 1]),
              std::string(kWireLabelNames[i]))
        << i;
  }
}

TEST(SimTransport, StragglerDelaysApply) {
  Harness h;
  Topology topo = Topology::uniform(3, millis(10));
  topo.set_extra_delay(1, millis(20));
  auto net = h.make(std::move(topo), {});
  net.send(1, make_envelope(0, {1}));
  net.send(2, make_envelope(0, {2}));
  h.sched.run_until_idle();
  ASSERT_EQ(h.deliveries.size(), 2u);
  EXPECT_EQ(h.deliveries[0].at, millis(10));  // normal first
  EXPECT_EQ(h.deliveries[0].at_replica, 2u);
  EXPECT_EQ(h.deliveries[1].at, millis(30));
}

// -------------------------------------------------------------- corruption

TEST(SimTransport, CorruptionDropsFramesPreGst) {
  Harness h;
  auto net = h.make(Topology::uniform(2, millis(10)), {.gst = seconds(1)});
  net.set_corruption(0, CorruptSpec{.rate = 1.0, .max_flips = 3, .peers = {}});
  for (int i = 0; i < 20; ++i) net.send(1, make_envelope(0, Bytes(200, 5)));
  h.sched.run_until_idle();
  // Every frame was flipped; the CRC rejects them all — dropped, counted,
  // and never delivered (and nothing crashed).
  EXPECT_EQ(net.stats().corrupt_injected(), 20u);
  EXPECT_EQ(net.stats().corrupt_drops(), 20u);
  EXPECT_TRUE(h.deliveries.empty());
  // Send-side stats still charged the wire (the bytes did travel).
  EXPECT_EQ(net.stats().for_type(WireLabel::kVote).count, 20u);
}

TEST(SimTransport, CorruptionStopsAtGst) {
  Harness h;
  auto net = h.make(Topology::uniform(2, millis(10)), {.gst = millis(50)});
  net.set_corruption(0, CorruptSpec{.rate = 1.0, .max_flips = 1, .peers = {}});
  net.send(1, make_envelope(0, {1}));  // t=0 < GST: corrupted
  h.sched.run_until(millis(60));
  net.send(1, make_envelope(0, {2}));  // t=60 >= GST: clean
  h.sched.run_until_idle();
  ASSERT_EQ(h.deliveries.size(), 1u);
  EXPECT_EQ(h.deliveries[0].payload, (Bytes{2}));
  EXPECT_EQ(net.stats().corrupt_drops(), 1u);
}

TEST(SimTransport, CorruptionRespectsPeerSelection) {
  Harness h;
  auto net = h.make(Topology::uniform(3, millis(10)), {.gst = seconds(1)});
  net.set_corruption(0, CorruptSpec{.rate = 1.0, .max_flips = 2,
                                    .peers = {2}});
  net.broadcast(make_envelope(0, Bytes(64, 9)), /*include_self=*/false);
  h.sched.run_until_idle();
  // Only the 0 -> 2 link is bad; replica 1 still gets its copy.
  ASSERT_EQ(h.deliveries.size(), 1u);
  EXPECT_EQ(h.deliveries[0].at_replica, 1u);
  EXPECT_EQ(net.stats().corrupt_drops(), 1u);
}

TEST(SimTransport, PartiallyCorruptedBroadcastMatchesCleanRun) {
  // Two of four links corrupt: only those two see frame bytes (and drop
  // them at the CRC). The clean links deliver on exactly the schedule of a
  // run with no corruption at the same seed, and every size charged is the
  // canonical frame size.
  const Envelope env = make_envelope(0, Bytes(300, 4), WireType::kProposal);
  const std::size_t frame = env.encode().size();
  struct Run {
    std::vector<Delivery> deliveries;
    MessageStats stats;
  };
  const auto run = [&env](bool corrupt) {
    Harness h;
    auto net = h.make(Topology::uniform(5, millis(10)),
                      {.jitter = millis(5),
                       .bandwidth_bytes_per_sec = 100'000,
                       .gst = seconds(1)},
                      11);
    if (corrupt) {
      net.set_corruption(0, CorruptSpec{.rate = 1.0, .peers = {1, 2}});
    }
    net.broadcast(env, /*include_self=*/false);
    h.sched.run_until_idle();
    return Run{h.deliveries, net.stats()};
  };
  const Run clean = run(false);
  const Run corrupted = run(true);

  EXPECT_EQ(corrupted.stats.corrupt_injected(), 2u);
  EXPECT_EQ(corrupted.stats.corrupt_drops(), 2u);
  ASSERT_EQ(clean.deliveries.size(), 4u);
  ASSERT_EQ(corrupted.deliveries.size(), 2u);
  for (const Delivery& got : corrupted.deliveries) {
    ASSERT_TRUE(got.at_replica == 3 || got.at_replica == 4);
    const auto same = std::find_if(
        clean.deliveries.begin(), clean.deliveries.end(),
        [&got](const Delivery& d) { return d.at_replica == got.at_replica; });
    ASSERT_NE(same, clean.deliveries.end());
    EXPECT_EQ(got.at, same->at);
    EXPECT_EQ(got.payload, env.payload);
    EXPECT_EQ(got.frame_bytes, frame);
  }
  for (const Run* r : {&clean, &corrupted}) {
    EXPECT_EQ(r->stats.for_type(WireLabel::kProposal).count, 4u);
    EXPECT_EQ(r->stats.for_type(WireLabel::kProposal).bytes, 4 * frame);
    EXPECT_EQ(r->stats.egress_by_replica().at(0), 4 * frame);
    EXPECT_EQ(r->stats.broadcast_saved_bytes(), 3 * frame);
  }
}

TEST(SimTransport, SelfSendsNeverCorrupted) {
  Harness h;
  auto net = h.make(Topology::uniform(2, millis(10)), {.gst = seconds(1)});
  net.set_corruption(0, CorruptSpec{.rate = 1.0, .max_flips = 8, .peers = {}});
  net.send(0, make_envelope(0, {1, 2}));
  ASSERT_EQ(h.deliveries.size(), 1u);
  EXPECT_EQ(net.stats().corrupt_drops(), 0u);
}

TEST(SimTransport, CorruptionClampsFlipsToTinyFrames) {
  // max_flips far beyond a small frame's bit count must terminate (the
  // distinct-bit sampler clamps) and still corrupt the frame.
  Harness h;
  auto net = h.make(Topology::uniform(2, millis(10)), {.gst = seconds(1)});
  net.set_corruption(0, CorruptSpec{.rate = 1.0, .max_flips = 10'000,
                                    .peers = {}});
  net.send(1, make_envelope(0, {1}));  // frame = kOverhead + 1 bytes
  h.sched.run_until_idle();
  EXPECT_TRUE(h.deliveries.empty());
  EXPECT_EQ(net.stats().corrupt_drops(), 1u);
}

TEST(SimTransport, CorruptionIsSeedDeterministic) {
  const auto run = [](std::uint64_t seed) {
    Harness h;
    auto net = h.make(Topology::uniform(2, millis(10)), {.gst = seconds(1)},
                      seed);
    net.set_corruption(0, CorruptSpec{.rate = 0.5, .max_flips = 2, .peers = {}});
    for (int i = 0; i < 40; ++i) net.send(1, make_envelope(0, Bytes(32, 1)));
    h.sched.run_until_idle();
    return net.stats().corrupt_drops();
  };
  EXPECT_EQ(run(7), run(7));
  // A ~0.5 rate over 40 frames lands strictly inside (0, 40).
  EXPECT_GT(run(7), 0u);
  EXPECT_LT(run(7), 40u);
}

}  // namespace
}  // namespace sftbft::net
