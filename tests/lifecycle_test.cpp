// obs::LifecycleProbe: the one writer of the block-milestone vocabulary.
// A trace built only from probe calls must be read back by
// CriticalPathAnalyzer with every certify-cycle segment attributed and the
// segments summing exactly to the commit latency (the writer and the
// reader agree on names), the probe's own-proposal and metric rules hold,
// and a probe over a null Observer does nothing.
#include <gtest/gtest.h>

#include "sftbft/obs/critical_path.hpp"
#include "sftbft/obs/lifecycle.hpp"
#include "sftbft/obs/observer.hpp"

namespace sftbft::obs {
namespace {

types::Block block_at(Height height, Round round, ReplicaId proposer,
                      SimTime created_at) {
  types::Block block;
  block.height = height;
  block.round = round;
  block.proposer = proposer;
  block.created_at = created_at;
  return block;
}

SimDuration seg(const BlockAttribution& attr, Segment segment) {
  return attr.segments[static_cast<std::size_t>(segment)];
}

TEST(LifecycleProbe, TraceBuiltOnlyFromProbeCallsIsFullyAttributed) {
  Observer observer(ObsConfig{.enabled = true, .trace = true}, 3);
  LifecycleProbe r0(&observer, 0);
  LifecycleProbe r1(&observer, 1);
  LifecycleProbe r2(&observer, 2);

  // Replica 1 proposes (height 1, round 1) at t=1000.
  const types::Block block = block_at(1, 1, 1, 1000);
  r1.round_entered(1, 1000);
  r1.proposed(block, 1000, 5);
  r1.received(block, 1100);  // own loopback: skipped, or transit would be 100
  r0.received(block, 1400);
  r2.received(block, 1450);
  r0.payload_ready(block, 1500);
  r0.voted(block, 1550);
  // Replica 2 collects: f = 1, quorum = 3.
  VoteClock clock;
  clock.note(1, 1, 3, 1700);
  clock.note(2, 1, 3, 1800);
  clock.note(3, 1, 3, 2600);
  r2.votes_gathered(block, clock);
  r2.certified(block, 3000);
  r0.committed(block, 1, 1, 5000);
  r0.committed(block, 2, 1, 6000);  // strong commit: later, not the latency

  const CriticalPathResult result =
      CriticalPathAnalyzer::analyze(observer.trace().events());
  ASSERT_EQ(result.blocks.size(), 1u);
  const BlockAttribution& attr = result.blocks[0];
  EXPECT_EQ(attr.latency(), 4000);
  EXPECT_EQ(seg(attr, Segment::kProposalTransit), 400);
  EXPECT_EQ(seg(attr, Segment::kDissemWait), 100);
  EXPECT_EQ(seg(attr, Segment::kVoteGatherF1), 300);
  EXPECT_EQ(seg(attr, Segment::kStragglerWait), 800);
  EXPECT_EQ(seg(attr, Segment::kQcFormation), 400);
  EXPECT_EQ(seg(attr, Segment::kCommitDelivery), 2000);
  EXPECT_EQ(attr.segment_sum(), attr.latency());

  // Metrics ride along with the events.
  EXPECT_EQ(observer.registry(1).counter(Counter::kProposalsSent), 1u);
  EXPECT_EQ(observer.registry(1).counter(Counter::kRoundsEntered), 1u);
  EXPECT_EQ(observer.registry(1).gauge(Gauge::kRound), 1);
  EXPECT_EQ(observer.registry(0).counter(Counter::kVotesSent), 1u);
  EXPECT_EQ(observer.registry(2).counter(Counter::kBlocksCertified), 1u);
  EXPECT_EQ(observer.registry(2).histogram(Hist::kVoteF1LatencyUs).count(),
            1u);
  EXPECT_EQ(
      observer.registry(2).histogram(Hist::kVoteQuorumLatencyUs).count(), 1u);
  EXPECT_EQ(observer.registry(0).counter(Counter::kCommits), 1u);
  EXPECT_EQ(observer.registry(0).counter(Counter::kStrongCommits), 1u);
}

TEST(LifecycleProbe, NullObserverIsANoOp) {
  LifecycleProbe probe(nullptr, 0);
  EXPECT_FALSE(probe.enabled());
  const types::Block block = block_at(1, 1, 1, 1000);
  VoteClock clock;
  clock.note(1, 0, 1, 1200);
  EXPECT_EQ(clock.f1_at, 1200);
  EXPECT_EQ(clock.quorum_at, 1200);
  // Every method returns at its null test; none may dereference.
  probe.round_entered(1, 1000);
  probe.timed_out(1, 1000);
  probe.proposed(block, 1000, 0);
  probe.received(block, 1100);
  probe.payload_ready(block, 1100);
  probe.voted(block, 1100);
  probe.votes_gathered(block, clock);
  probe.certified(block, 1300);
  probe.committed(block, 1, 0, 1400);
}

}  // namespace
}  // namespace sftbft::obs
