// The adversary subsystem end-to-end: programmable Byzantine coalitions
// running through the real engines (both protocols), the central FaultSpec
// validator, and the SafetyAuditor's verdicts — the live companion to the
// scripted Appendix-C regression in naive_counter_test.cpp.
#include <gtest/gtest.h>

#include "sftbft/adversary/strategy.hpp"
#include "sftbft/engine/deployment.hpp"
#include "sftbft/harness/auditor.hpp"
#include "sftbft/harness/scenario.hpp"

namespace sftbft {
namespace {

using adversary::ByzantineSpec;
using adversary::Strategy;
using engine::Deployment;
using engine::FaultSpec;
using engine::Protocol;

// ---------------------------------------------------------------------------
// Central FaultSpec validation (one shared validator for both engines).

TEST(FaultValidationTest, AcceptsWellFormedSpecs) {
  std::vector<FaultSpec> faults{
      FaultSpec::honest(), FaultSpec::crash_at_time(seconds(1)),
      FaultSpec::silent(), FaultSpec::crash_restart(seconds(1), seconds(2)),
      FaultSpec::byzantine({Strategy::EquivocatingLeader,
                            Strategy::AmnesiaVoter})};
  EXPECT_NO_THROW(engine::validate_faults(faults, 5));
}

TEST(FaultValidationTest, RejectsOversizedFaultList) {
  std::vector<FaultSpec> faults(5, FaultSpec::honest());
  EXPECT_THROW(engine::validate_faults(faults, 4), std::invalid_argument);
}

TEST(FaultValidationTest, RejectsRestartBeforeCrash) {
  std::vector<FaultSpec> faults{FaultSpec::crash_restart(seconds(2),
                                                         seconds(2))};
  EXPECT_THROW(engine::validate_faults(faults, 4), std::invalid_argument);
}

TEST(FaultValidationTest, RejectsByzantineWithoutStrategies) {
  std::vector<FaultSpec> faults{FaultSpec::byzantine(ByzantineSpec{})};
  EXPECT_THROW(engine::validate_faults(faults, 4), std::invalid_argument);
}

TEST(FaultValidationTest, RejectsDuplicateStrategies) {
  std::vector<FaultSpec> faults{FaultSpec::byzantine(
      {Strategy::AmnesiaVoter, Strategy::AmnesiaVoter})};
  EXPECT_THROW(engine::validate_faults(faults, 4), std::invalid_argument);
}

TEST(FaultValidationTest, RejectsWithholdWithoutDelay) {
  std::vector<FaultSpec> faults{
      FaultSpec::byzantine({Strategy::WithholdRelease})};
  EXPECT_THROW(engine::validate_faults(faults, 4), std::invalid_argument);
}

TEST(FaultValidationTest, RejectsMalformedSuppressionSets) {
  ByzantineSpec empty_set;
  empty_set.strategies = {Strategy::SelectiveSender};
  EXPECT_THROW(engine::validate_faults({FaultSpec::byzantine(empty_set)}, 4),
               std::invalid_argument);

  ByzantineSpec out_of_range;
  out_of_range.strategies = {Strategy::SelectiveSender};
  out_of_range.suppress_to = {9};
  EXPECT_THROW(
      engine::validate_faults({FaultSpec::byzantine(out_of_range)}, 4),
      std::invalid_argument);

  ByzantineSpec self_suppress;
  self_suppress.strategies = {Strategy::SelectiveSender};
  self_suppress.suppress_to = {0};  // replica 0 suppressing itself
  EXPECT_THROW(
      engine::validate_faults({FaultSpec::byzantine(self_suppress)}, 4),
      std::invalid_argument);

  ByzantineSpec stray_list;  // suppress_to without the strategy
  stray_list.strategies = {Strategy::AmnesiaVoter};
  stray_list.suppress_to = {1};
  EXPECT_THROW(engine::validate_faults({FaultSpec::byzantine(stray_list)}, 4),
               std::invalid_argument);
}

TEST(FaultValidationTest, DeploymentRunsTheSharedValidator) {
  engine::DeploymentConfig config;
  config.n = 4;
  config.topology = net::Topology::uniform(4, millis(1));
  config.faults = {FaultSpec::byzantine(ByzantineSpec{})};
  EXPECT_THROW(Deployment deployment(std::move(config)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Coalition scenarios through the engines, audited globally.

struct AuditedRun {
  std::unique_ptr<harness::SafetyAuditor> auditor;
  std::unique_ptr<Deployment> deployment;
};

AuditedRun run_coalition(Protocol protocol, consensus::CountingRule counting,
                         std::uint32_t n, std::uint32_t c,
                         ByzantineSpec spec, SimDuration duration) {
  harness::Scenario s;
  s.protocol = protocol;
  s.n = n;
  s.mode = consensus::CoreMode::SftMarker;
  s.counting = counting;
  s.topo = harness::Scenario::Topo::Uniform;
  s.delta = millis(20);
  s.jitter = millis(5);
  s.jitter_frac = 0;
  s.leader_processing = millis(10);
  s.streamlet_delta_bound = millis(50);
  s.streamlet_echo = true;  // fork-side replicas recover within the round
  s.verify_signatures = false;
  s.max_batch = 10;
  s.txn_size_bytes = 450;
  s.seed = 7;
  s.byzantine_count = c;
  s.byzantine = std::move(spec);

  AuditedRun run;
  run.auditor = std::make_unique<harness::SafetyAuditor>(
      harness::SafetyAuditor::Config{protocol, n});
  harness::SafetyAuditor& auditor = *run.auditor;
  engine::AuditTaps taps = auditor.taps();
  run.deployment = std::make_unique<Deployment>(
      s.to_deployment_config(),
      [&auditor](ReplicaId replica, const types::Block& block,
                 std::uint32_t strength, SimTime now) {
        auditor.on_commit(replica, block, strength, now);
      },
      std::move(taps));
  run.deployment->start();
  run.deployment->run_for(duration);
  return run;
}

ByzantineSpec fig9_playbook() {
  ByzantineSpec spec;
  spec.strategies = {Strategy::EquivocatingLeader, Strategy::AmnesiaVoter};
  return spec;
}

class CoalitionTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(CoalitionTest, VoteHistoryRuleStaysCleanUnderFig9Coalition) {
  constexpr std::uint32_t kN = 7, kF = 2, kC = 2;
  AuditedRun run = run_coalition(GetParam(), consensus::CountingRule::Sft, kN,
                                 kC, fig9_playbook(), seconds(10));

  const adversary::Coalition* coalition = run.deployment->coalition();
  ASSERT_NE(coalition, nullptr);
  EXPECT_EQ(coalition->size(), kC);
  EXPECT_GT(coalition->stats().equivocations, 0u);
  EXPECT_GT(coalition->stats().forged_votes, 0u);
  EXPECT_FALSE(coalition->forks().empty());

  // The attack ran, strong commits happened, and the paper's promise held:
  // no conflicting or unsound x-strong commit at any threshold x >= c.
  EXPECT_GT(run.auditor->claims(), 0u);
  EXPECT_EQ(run.auditor->max_claimed(), 2 * kF) << "strong commits expected";
  EXPECT_TRUE(run.auditor->clean_at(kC));
  EXPECT_TRUE(run.auditor->violations().empty());

  // Honest ledgers agree on the common prefix despite the forks.
  const auto& ledger0 = run.deployment->ledger(0);
  for (ReplicaId id = 1; id < kN; ++id) {
    const auto& ledger = run.deployment->ledger(id);
    const Height common =
        std::min(ledger0.tip().value_or(0), ledger.tip().value_or(0));
    for (Height h = 1; h <= common; ++h) {
      ASSERT_EQ(ledger0.at(h).block_id, ledger.at(h).block_id)
          << "conflicting commit at height " << h << " on replica " << id;
    }
  }
}

TEST_P(CoalitionTest, NaiveCountingIsCaughtByTheAuditor) {
  constexpr std::uint32_t kN = 7, kF = 2, kC = 2;
  AuditedRun run =
      run_coalition(GetParam(), consensus::CountingRule::NaiveAllIndirect, kN,
                    kC, fig9_playbook(), seconds(10));

  // The Appendix-C strawman claims strengths the truthful markers deny;
  // the auditor must detect at least one unsound claim above f.
  EXPECT_GT(run.auditor->violations_at(kF + 1), 0u);
  bool found_unsound = false;
  for (const auto& violation : run.auditor->violations()) {
    if (violation.kind ==
        harness::SafetyAuditor::Violation::Kind::UnsoundClaim) {
      found_unsound = true;
      EXPECT_GT(violation.claimed, violation.supported);
    }
  }
  EXPECT_TRUE(found_unsound);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, CoalitionTest,
                         ::testing::Values(Protocol::DiemBft,
                                           Protocol::Streamlet),
                         [](const auto& info) {
                           return std::string(
                               engine::protocol_name(info.param));
                         });

TEST(AdversaryTest, WithholdReleaseDelaysButDoesNotKillTheCluster) {
  ByzantineSpec spec;
  spec.strategies = {Strategy::WithholdRelease};
  spec.withhold_delay = millis(400);
  AuditedRun run = run_coalition(Protocol::DiemBft,
                                 consensus::CountingRule::Sft, 7, 1,
                                 std::move(spec), seconds(8));
  ASSERT_NE(run.deployment->coalition(), nullptr);
  EXPECT_GT(run.deployment->coalition()->stats().withheld, 0u);
  EXPECT_GT(run.deployment->ledger(0).tip().value_or(0), 0u);
  EXPECT_TRUE(run.auditor->violations().empty());
}

TEST(AdversaryTest, SelectiveSenderSuppressesWithoutBreakingSafety) {
  ByzantineSpec spec;
  spec.strategies = {Strategy::SelectiveSender};
  spec.suppress_to = {2, 3};
  AuditedRun run = run_coalition(Protocol::DiemBft,
                                 consensus::CountingRule::Sft, 7, 1,
                                 std::move(spec), seconds(8));
  ASSERT_NE(run.deployment->coalition(), nullptr);
  EXPECT_GT(run.deployment->coalition()->stats().suppressed, 0u);
  EXPECT_GT(run.deployment->ledger(0).tip().value_or(0), 0u);
  EXPECT_TRUE(run.auditor->violations().empty());
}

TEST(AdversaryTest, HonestCoreEscapeHatchesRefuseByzantineSlots) {
  engine::DeploymentConfig config;
  config.n = 4;
  config.topology = net::Topology::uniform(4, millis(1));
  config.faults = {FaultSpec::honest(),
                   FaultSpec::byzantine({Strategy::AmnesiaVoter})};
  Deployment deployment(std::move(config));
  EXPECT_NO_THROW(deployment.chained_core(0));
  EXPECT_THROW(deployment.chained_core(1), std::logic_error);
  EXPECT_THROW(deployment.engine(1).restart(), std::logic_error);
  EXPECT_EQ(deployment.honest_count(), 3u);
}

TEST(AdversaryTest, ScenarioPlacementKeepsTheMetricsAnchorHonest) {
  harness::Scenario s;
  s.n = 7;
  s.byzantine_count = 2;
  s.byzantine = fig9_playbook();
  const auto faults = s.effective_faults();
  ASSERT_EQ(faults.size(), 7u);
  EXPECT_EQ(faults[0].kind, FaultSpec::Kind::Honest);
  std::uint32_t byzantine = 0;
  for (const auto& fault : faults) {
    if (fault.kind == FaultSpec::Kind::Byzantine) ++byzantine;
  }
  EXPECT_EQ(byzantine, 2u);
}

}  // namespace
}  // namespace sftbft
