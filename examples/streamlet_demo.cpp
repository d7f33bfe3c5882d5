// Appendix D: SFT-Streamlet in action — the same strengthened-fault-
// tolerance idea on the textbook-simple Streamlet protocol, plus its extra
// long-range-attack resistance.
//
// Streamlet runs in lock-step rounds of 2Δ and votes by *longest certified
// chain* (height-based) rather than rounds. Strong-votes carry a HEIGHT
// marker; the strong commit rule needs x + f + 1 k-endorsers on all three
// blocks of a consecutive-round triple.
#include <cstdio>

#include "sftbft/engine/deployment.hpp"

using namespace sftbft;
using namespace sftbft::engine;

int main() {
  DeploymentConfig config;
  config.protocol = Protocol::Streamlet;
  config.n = 7;
  config.streamlet.delta_bound = millis(50);  // rounds tick every 100 ms
  config.streamlet.sft = true;
  config.streamlet.echo = true;
  config.streamlet.max_batch = 20;
  config.topology = net::Topology::uniform(7, millis(15));
  config.net.jitter = millis(5);
  config.seed = 21;

  std::printf("SFT-Streamlet, n=7 (f=2), lock-step rounds of 2*50ms\n\n");

  Deployment cluster(
      config, [](ReplicaId replica, const types::Block& block,
                 std::uint32_t strength, SimTime now) {
        if (replica != 0 || block.height > 6) return;
        std::printf("  t=%-8s height %-2llu round %-3llu -> strength x=%u%s\n",
                    format_time(now).c_str(),
                    static_cast<unsigned long long>(block.height),
                    static_cast<unsigned long long>(block.round), strength,
                    strength == 4 ? "  (2f: tolerates a 4/7 corruption!)"
                                  : "");
      });
  cluster.start();
  cluster.run_for(seconds(5));

  const auto& ledger = cluster.ledger(0);
  std::printf("\ncommitted %llu blocks in 5s of simulated time "
              "(lock-step pacing, ~1 block per 100ms round)\n",
              static_cast<unsigned long long>(ledger.committed_blocks()));

  const auto& stats = cluster.net_stats();
  const auto count = [&stats](net::WireLabel label) {
    return static_cast<unsigned long long>(stats.for_type(label).count);
  };
  std::printf("messages: %llu total — proposals %llu, votes %llu, echoes "
              "%llu (the echo is Streamlet's O(n^3) simplicity tax)\n",
              static_cast<unsigned long long>(stats.total_count()),
              count(net::WireLabel::kProposal), count(net::WireLabel::kVote),
              count(net::WireLabel::kEcho));

  std::printf(
      "\nLong-range note (D.4): honest Streamlet replicas vote only for the\n"
      "longest certified chain, so reverting a strong commit buried h blocks\n"
      "deep needs > x corrupted replicas for ~h rounds, not 1 round as in\n"
      "round-locked DiemBFT. Deep history is sticky.\n");
  return 0;
}
