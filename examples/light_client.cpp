// Sec. 5: proving strong commits to a light client (e.g. a wallet app that
// does not follow the chain).
//
// Flow: run a small cluster; a wallet asks a full node (replica 0) to PROVE
// that the block holding its transaction is 2f-strong committed. The full
// node assembles a StrongCommitProof from the certified commit Log; the
// wallet verifies it knowing only the PKI — no chain state. We also show
// that doctored proofs are rejected.
#include <cstdio>
#include <optional>

#include "sftbft/lightclient/light_client.hpp"
#include "sftbft/engine/deployment.hpp"

using namespace sftbft;

int main() {
  engine::DeploymentConfig config;
  config.n = 7;
  config.chained.mode = consensus::CoreMode::SftMarker;
  config.chained.base_timeout = millis(500);
  config.chained.leader_processing = millis(5);
  config.chained.max_batch = 20;
  config.topology = net::Topology::uniform(7, millis(10));
  config.net.jitter = millis(2);
  config.seed = 3;

  engine::Deployment cluster(config);
  cluster.start();
  cluster.run_for(seconds(8));

  const auto& core = cluster.chained_core(0);
  const auto& ledger = core.ledger();
  std::printf("full node: %llu blocks committed\n",
              static_cast<unsigned long long>(ledger.committed_blocks()));

  // Pick an old block that reached 2f-strong (f = 2 -> x = 4).
  const std::uint32_t want = 2 * core.config().f();
  // A copy: snapshot() returns a temporary, gone after the loop.
  std::optional<chain::Ledger::Entry> target;
  for (const auto& entry : ledger.snapshot()) {
    if (entry.strength >= want) {
      target = entry;
      break;
    }
  }
  if (!target) {
    std::printf("no 2f-strong block yet — run longer\n");
    return 1;
  }
  std::printf("wallet asks: prove block at height %llu (%s...) is %u-strong\n",
              static_cast<unsigned long long>(target->height),
              target->block_id.short_hex().c_str(), want);

  auto proof = lightclient::build_proof(core, target->block_id, want);
  if (!proof) {
    std::printf("full node could not assemble a proof\n");
    return 1;
  }
  std::printf("full node: proof assembled — carrier block round %llu, "
              "log entry strength %u, ancestry path %zu blocks, "
              "%zu certifying votes\n",
              static_cast<unsigned long long>(proof->carrier.block.round),
              proof->entry.strength, proof->path.size(),
              proof->carrier_qc.votes.size());

  // The wallet: only the PKI and n. (Sec. 5: with <= 2f faults, at least
  // one of the 2f+1 voters behind the carrier QC is honest and checked the
  // Log before voting.)
  lightclient::LightClient wallet(cluster.registry(), config.n);
  std::printf("wallet verifies the proof: %s\n",
              wallet.verify(*proof) ? "ACCEPTED" : "rejected");

  // Tampering attempts must fail.
  auto forged = *proof;
  forged.entry.strength = want + 1;  // claim more than the log says
  std::printf("wallet on proof with inflated claim:   %s\n",
              wallet.verify(forged) ? "ACCEPTED (BUG!)" : "rejected");

  auto wrong_target = *proof;
  wrong_target.target.bytes[0] ^= 0xff;  // different block, same evidence
  std::printf("wallet on proof for a different block: %s\n",
              wallet.verify(wrong_target) ? "ACCEPTED (BUG!)" : "rejected");

  auto thin_qc = *proof;
  thin_qc.carrier_qc.votes.resize(3);  // below quorum
  std::printf("wallet on proof with a thin QC:        %s\n",
              wallet.verify(thin_qc) ? "ACCEPTED (BUG!)" : "rejected");
  return 0;
}
