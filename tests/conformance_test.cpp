// Cross-engine conformance: the kernel extraction's acceptance suite. One
// identical Scenario — same topology, workload, fault list, Byzantine
// coalition — must run on ALL THREE engines (DiemBFT, chained HotStuff,
// Streamlet) with: commits and cross-replica agreement, a clean
// SafetyAuditor at strength thresholds >= the coalition size, identical
// validate_faults rejections, and HotStuff traffic decoding with zero
// drops over the real transport.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#include "sftbft/engine/deployment.hpp"
#include "sftbft/harness/auditor.hpp"
#include "sftbft/harness/scenario.hpp"
#include "sftbft/hotstuff/hotstuff.hpp"
#include "sftbft/lightclient/light_client.hpp"

namespace sftbft {
namespace {

using engine::Deployment;
using engine::FaultSpec;
using engine::Protocol;

/// The one scenario every engine must run unmodified.
harness::Scenario base_scenario(Protocol protocol) {
  harness::Scenario s;
  s.name = "conformance";
  s.protocol = protocol;
  s.n = 7;  // f = 2
  s.mode = consensus::CoreMode::SftMarker;
  s.topo = harness::Scenario::Topo::Uniform;
  s.delta = millis(10);
  s.intra = millis(10);
  s.jitter = millis(2);
  s.jitter_frac = 0;
  s.leader_processing = millis(5);
  s.base_timeout = millis(500);
  s.streamlet_delta_bound = millis(30);
  s.max_batch = 10;
  s.txn_size_bytes = 100;
  s.verify_signatures = true;
  s.duration = seconds(10);
  s.warmup = seconds(1);
  s.tail = seconds(2);
  s.seed = 23;
  return s;
}

TEST(Conformance, IdenticalFaultScenarioRunsOnAllThreeEngines) {
  // Crash + silent faults in one list, identical across engines; surviving
  // replicas must agree on the committed prefix within each deployment.
  for (const Protocol protocol : engine::kAllProtocols) {
    harness::Scenario s = base_scenario(protocol);
    s.faults.resize(s.n);
    s.faults[3] = FaultSpec::crash_at_time(seconds(3));
    s.faults[5] = FaultSpec::silent();

    Deployment deployment(s.to_deployment_config());
    deployment.start();
    deployment.run_for(s.duration);

    const auto& ledger0 = deployment.ledger(0);
    ASSERT_GT(ledger0.committed_blocks(), 5u)
        << engine::protocol_name(protocol);
    for (ReplicaId id = 1; id < s.n; ++id) {
      if (id == 3) continue;  // crashed
      const auto& ledger = deployment.ledger(id);
      const Height common =
          std::min(ledger0.tip().value_or(0), ledger.tip().value_or(0));
      ASSERT_GT(common, 0u) << engine::protocol_name(protocol);
      for (Height h = 1; h <= common; ++h) {
        ASSERT_EQ(ledger0.at(h).block_id, ledger.at(h).block_id)
            << engine::protocol_name(protocol) << " height " << h
            << " replica " << id;
      }
    }
  }
}

TEST(Conformance, ByzantineCoalitionStaysAuditedCleanOnAllThreeEngines) {
  // The paper's acceptance bar, engine-generic: with a coalition of size
  // c = 2 running the Appendix-C playbook under the VoteHistory counting
  // rule, the global auditor must stay clean at every threshold x >= c.
  const std::uint32_t c = 2;
  for (const Protocol protocol : engine::kAllProtocols) {
    harness::Scenario s = base_scenario(protocol);
    s.verify_signatures = false;  // attack fidelity, not crypto, is tested
    s.byzantine_count = c;
    s.byzantine.strategies = {adversary::Strategy::EquivocatingLeader,
                              adversary::Strategy::AmnesiaVoter};

    harness::SafetyAuditor auditor({protocol, s.n});
    Deployment deployment(
        s.to_deployment_config(),
        [&auditor](ReplicaId replica, const types::Block& block,
                   std::uint32_t strength, SimTime now) {
          auditor.on_commit(replica, block, strength, now);
        },
        auditor.taps());
    deployment.start();
    deployment.run_for(s.duration);

    ASSERT_NE(deployment.coalition(), nullptr);
    EXPECT_EQ(deployment.coalition()->size(), c);
    EXPECT_GT(auditor.claims(), 0u) << engine::protocol_name(protocol);
    EXPECT_GT(deployment.ledger(0).committed_blocks(), 0u)
        << engine::protocol_name(protocol);
    // Clean at every threshold >= c (clean_at covers all higher levels).
    EXPECT_TRUE(auditor.clean_at(c)) << engine::protocol_name(protocol);
  }
}

TEST(Conformance, ValidateFaultsRejectionsIdenticalAcrossEngines) {
  // One malformed-fault catalogue; every engine must reject every entry at
  // Deployment construction (the single shared validator), and accept the
  // well-formed control.
  using Make = std::function<void(harness::Scenario&)>;
  const std::vector<Make> malformed = {
      [](harness::Scenario& s) {  // restart before crash
        s.faults[1] = FaultSpec::crash_restart(seconds(5), seconds(4));
      },
      [](harness::Scenario& s) {  // Byzantine with no strategies
        s.faults[1] = FaultSpec::byzantine(adversary::ByzantineSpec{});
      },
      [](harness::Scenario& s) {  // WithholdRelease without a delay
        adversary::ByzantineSpec spec;
        spec.strategies = {adversary::Strategy::WithholdRelease};
        s.faults[1] = FaultSpec::byzantine(std::move(spec));
      },
      [](harness::Scenario& s) {  // SelectiveSender suppressing itself
        adversary::ByzantineSpec spec;
        spec.strategies = {adversary::Strategy::SelectiveSender};
        spec.suppress_to = {1};
        s.faults[1] = FaultSpec::byzantine(std::move(spec));
      },
      [](harness::Scenario& s) {  // corrupt rate out of range
        s.gst = seconds(1);
        s.faults[1] =
            FaultSpec::corrupt_links({.rate = 1.5, .max_flips = 1,
                                      .peers = {}});
      },
  };

  for (const Protocol protocol : engine::kAllProtocols) {
    for (std::size_t i = 0; i < malformed.size(); ++i) {
      harness::Scenario s = base_scenario(protocol);
      s.faults.assign(s.n, FaultSpec::honest());
      malformed[i](s);
      EXPECT_THROW(Deployment deployment(s.to_deployment_config()),
                   std::invalid_argument)
          << engine::protocol_name(protocol) << " malformed case " << i;
    }
    // Control: a well-formed mixed list constructs fine on every engine.
    harness::Scenario s = base_scenario(protocol);
    s.faults.assign(s.n, FaultSpec::honest());
    s.faults[2] = FaultSpec::crash_restart(seconds(2), seconds(4));
    s.faults[4] = FaultSpec::silent();
    EXPECT_NO_THROW(Deployment deployment(s.to_deployment_config()))
        << engine::protocol_name(protocol);
  }
}

TEST(Conformance, HotStuffEndToEndWireTrafficAndLightClientProofs) {
  // A full HotStuff run over the real transport: traffic flows under the
  // shared stats labels with zero decode drops, strong commits happen, and
  // the Sec.-5 light-client proof path (kernel machinery) verifies against
  // a HotStuff core exactly as it does on DiemBFT.
  harness::Scenario s = base_scenario(Protocol::HotStuff);
  const auto config = s.to_deployment_config();
  Deployment deployment(config);
  deployment.start();
  deployment.run_for(s.duration);

  const auto& stats = deployment.net_stats();
  EXPECT_GT(stats.for_type(net::WireLabel::kProposal).count, 0u);
  EXPECT_GT(stats.for_type(net::WireLabel::kVote).count, 0u);
  EXPECT_EQ(stats.decode_drops(), 0u);
  ASSERT_GT(deployment.ledger(0).committed_blocks(), 5u);

  // Strong commits above the regular level must have happened (SFT on the
  // HotStuff rules), and at least one must be provable to a light client.
  const auto entries = deployment.ledger(0).snapshot();
  const std::uint32_t f = s.f();
  lightclient::LightClient client(deployment.registry(), s.n);
  bool proved = false;
  for (const auto& entry : entries) {
    if (entry.strength <= f) continue;
    const auto proof = lightclient::build_proof(
        deployment.chained_core(0), entry.block_id, entry.strength);
    if (proof && client.verify(*proof)) {
      proved = true;
      break;
    }
  }
  EXPECT_TRUE(proved) << "no verifiable strong-commit proof on HotStuff";
}

TEST(Conformance, TinyStreamletDeploymentCommitsAtFZero) {
  // n = 3 => f = 0: a certified triple supports only strength 0, which is
  // still a commit (the kernel's triple helper distinguishes "no triple"
  // from "triple at strength 0" — regression guard).
  harness::Scenario s = base_scenario(Protocol::Streamlet);
  s.n = 3;
  s.mode = consensus::CoreMode::Plain;
  s.duration = seconds(6);
  Deployment deployment(s.to_deployment_config());
  deployment.start();
  deployment.run_for(s.duration);
  EXPECT_GT(deployment.ledger(0).committed_blocks(), 0u);
}

TEST(Conformance, ConcurrentScenarioRunsAreDeterministic) {
  // The bench --jobs contract: run_scenario calls are hermetic (each builds
  // its own scheduler/PKI/transport/engines; the only process-global is the
  // thread-safe logger), so concurrent runs of the same scenario must
  // reproduce the serial result bit-for-bit.
  harness::Scenario s = base_scenario(Protocol::HotStuff);
  s.duration = seconds(5);
  const harness::ScenarioResult serial = run_scenario(s);

  harness::ScenarioResult a, b;
  std::thread ta([&] { a = run_scenario(s); });
  std::thread tb([&] { b = run_scenario(s); });
  ta.join();
  tb.join();

  for (const harness::ScenarioResult* result : {&a, &b}) {
    EXPECT_EQ(result->summary.committed_blocks,
              serial.summary.committed_blocks);
    EXPECT_EQ(result->summary.committed_txns, serial.summary.committed_txns);
    EXPECT_EQ(result->total_messages, serial.total_messages);
    EXPECT_EQ(result->total_message_bytes, serial.total_message_bytes);
    EXPECT_EQ(result->window_blocks, serial.window_blocks);
  }
}

TEST(Conformance, PlacementHelperPinsSpread) {
  // Satellite: the shared placement policy, pinned. n = 10, count = 3 over
  // [1, 9] with stride 3 -> ids 1, 4, 7.
  const auto none = [](ReplicaId) { return false; };
  EXPECT_EQ(harness::spread_placements(10, 3, none),
            (std::vector<ReplicaId>{1, 4, 7}));
  // A taken slot probes forward to the next free id.
  EXPECT_EQ(harness::spread_placements(
                10, 3, [](ReplicaId id) { return id == 4; }),
            (std::vector<ReplicaId>{1, 5, 7}));
  // Collisions within one batch probe forward too (count > span/stride).
  EXPECT_EQ(harness::spread_placements(4, 3, none),
            (std::vector<ReplicaId>{1, 2, 3}));
  // id 0 is never placed, and full occupancy stops placement.
  const auto all_taken = [](ReplicaId) { return true; };
  EXPECT_TRUE(harness::spread_placements(10, 3, all_taken).empty());
  for (std::uint32_t count = 1; count < 12; ++count) {
    for (const ReplicaId id : harness::spread_placements(10, count, none)) {
      EXPECT_NE(id, 0u);
    }
  }
  // The three Scenario knobs all route through this helper: byzantine,
  // corrupt, and crash-restart placements land on distinct ids.
  harness::Scenario s;
  s.n = 10;
  s.gst = seconds(1);
  s.byzantine_count = 2;
  s.byzantine.strategies = {adversary::Strategy::AmnesiaVoter};
  s.corrupt_count = 2;
  s.corrupt = {.rate = 0.5, .max_flips = 2, .peers = {}};
  s.crash_restart_count = 2;
  const auto faults = s.effective_faults();
  EXPECT_EQ(faults[0].kind, FaultSpec::Kind::Honest);  // anchor stays
  std::uint32_t byz = 0, corrupt = 0, crash = 0;
  for (const auto& fault : faults) {
    byz += fault.kind == FaultSpec::Kind::Byzantine;
    corrupt += fault.kind == FaultSpec::Kind::Corrupt;
    crash += fault.kind == FaultSpec::Kind::CrashRestart;
  }
  EXPECT_EQ(byz, 2u);
  EXPECT_EQ(corrupt, 2u);
  EXPECT_EQ(crash, 2u);
}

TEST(Conformance, DisseminationModeConformanceOnAllThreeEngines) {
  // The dissemination acceptance pass: the SAME scenario as the fault +
  // coalition tests — crash churn, a silent replica, and an equivocating /
  // amnesiac coalition — but with digest-referencing proposals and the
  // batch data plane on. Every engine must still commit real transactions,
  // the honest replicas must agree on the committed prefix, the auditor
  // must stay clean, and no frame may be dropped at the demux (the 0x4x
  // tags are wired into every engine's envelope switch).
  const std::uint32_t c = 2;
  for (const Protocol protocol : engine::kAllProtocols) {
    harness::Scenario s = base_scenario(protocol);
    s.verify_signatures = false;
    s.dissemination = true;
    s.dissem.batch_max_txns = 50;
    s.byzantine_count = c;
    s.byzantine.strategies = {adversary::Strategy::EquivocatingLeader,
                              adversary::Strategy::AmnesiaVoter};
    s.faults.resize(s.n);
    s.faults[3] = FaultSpec::crash_at_time(seconds(5));
    s.faults[5] = FaultSpec::silent();

    harness::SafetyAuditor auditor({protocol, s.n});
    Deployment deployment(
        s.to_deployment_config(),
        [&auditor](ReplicaId replica, const types::Block& block,
                   std::uint32_t strength, SimTime now) {
          auditor.on_commit(replica, block, strength, now);
        },
        auditor.taps());
    deployment.start();
    deployment.run_for(s.duration);

    const auto& ledger0 = deployment.ledger(0);
    ASSERT_GT(ledger0.committed_blocks(), 0u)
        << engine::protocol_name(protocol);
    ASSERT_GT(ledger0.committed_txns(), 0u)
        << engine::protocol_name(protocol)
        << ": digest proposals committed no transactions";
    EXPECT_EQ(deployment.net_stats().decode_drops(), 0u)
        << engine::protocol_name(protocol);
    // Data plane actually ran: batches moved between replicas.
    EXPECT_GT(
        deployment.net_stats().for_type(net::WireLabel::kBatchPush).count, 0u)
        << engine::protocol_name(protocol);

    // Honest replicas agree on the committed prefix.
    for (ReplicaId id = 1; id < s.n; ++id) {
      const auto& fault = deployment.engine(id).fault();
      if (fault.kind != engine::FaultSpec::Kind::Honest) continue;
      const auto& ledger = deployment.ledger(id);
      const Height common =
          std::min(ledger0.tip().value_or(0), ledger.tip().value_or(0));
      for (Height h = 1; h <= common; ++h) {
        ASSERT_EQ(ledger0.at(h).block_id, ledger.at(h).block_id)
            << engine::protocol_name(protocol) << " height " << h
            << " replica " << id;
      }
    }
    EXPECT_TRUE(auditor.clean_at(c)) << engine::protocol_name(protocol);
  }
}

TEST(Conformance, BatchWithholdingLivenessViaPull) {
  // A coalition that packs batches and proposes their digests but never
  // pushes the bytes (Strategy::BatchWithholder). Honest replicas must not
  // stall on those proposals: the vote-availability gate parks the vote,
  // the pull protocol fetches the withheld batches (the withholder still
  // serves BatchRequest — refusing would just exclude its blocks), and
  // commits keep flowing on every engine.
  for (const Protocol protocol : engine::kAllProtocols) {
    harness::Scenario s = base_scenario(protocol);
    s.verify_signatures = false;
    s.dissemination = true;
    s.dissem.batch_max_txns = 50;
    // Ask every peer in the first pull window so a withheld batch is
    // recovered within one round-trip even in lock-step Streamlet rounds.
    s.dissem.pull_fanout = s.n - 1;
    s.dissem.pull_retry = millis(50);
    s.byzantine_count = 2;
    s.byzantine.strategies = {adversary::Strategy::BatchWithholder};

    Deployment deployment(s.to_deployment_config());
    deployment.start();
    deployment.run_for(s.duration);

    const auto& stats = deployment.net_stats();
    ASSERT_GT(deployment.ledger(0).committed_blocks(), 0u)
        << engine::protocol_name(protocol);
    EXPECT_GT(deployment.ledger(0).committed_txns(), 0u)
        << engine::protocol_name(protocol);
    // The pull path fired: withheld digests were requested and served.
    EXPECT_GT(stats.for_type(net::WireLabel::kBatchReq).count, 0u)
        << engine::protocol_name(protocol);
    EXPECT_GT(stats.for_type(net::WireLabel::kBatchResp).count, 0u)
        << engine::protocol_name(protocol);
  }
}

}  // namespace
}  // namespace sftbft
