// Commit critical-path attribution: walk the causal graph recorded in a
// trace backwards from each commit and decompose the block's commit latency
// into named, non-overlapping segments.
//
// The trace's block-lifecycle spans all start at the block's creation time
// (see trace.hpp), so the cluster-wide milestones of one certify cycle are
// directly readable. Their writer and the names compared here live in one
// place, obs::LifecycleProbe (lifecycle.hpp):
//
//   created ──▶ received ──▶ payload_ready ──▶ vote_f1 ──▶ vote_quorum ──▶ certified
//              (transit)     (dissem wait)     (gather)    (stragglers)    (QC form)
//
// A chained commit additionally needs the *successor* blocks' certify
// cycles (the 3-chain / 2-chain rule), and Streamlet needs three
// consecutive certified rounds. Those follow-on cycles are folded into the
// SAME named segments — a straggler link slows every cycle, and the
// attribution should say "straggler wait" no matter which cycle paid for
// it. The gap between one cycle's certification and the next block's
// creation is pacemaker idle; whatever remains up to the observed commit
// instant (QC transit to the committing replica + local processing) is
// commit delivery.
//
// The walk telescopes with a running-max clamp: each milestone advances a
// cursor monotonically, each segment is charged `max(cursor, milestone) -
// cursor`, and the final segment absorbs the residual up to the commit
// timestamp. By construction the per-block segments sum EXACTLY to the
// measured commit latency — the attribution is a partition, not an
// estimate.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sftbft/common/types.hpp"
#include "sftbft/obs/trace.hpp"

namespace sftbft::obs {

/// One leg of the commit critical path. Order matters: it is the causal
/// order milestones are consumed in during the telescoping walk.
enum class Segment : std::uint8_t {
  kProposalTransit = 0,  ///< creation -> first non-proposer delivery
  kDissemWait,           ///< delivery -> payload batches locally available
  kVoteGatherF1,         ///< payload ready -> f+1-th vote arrives (fast half)
  kStragglerWait,        ///< f+1-th -> 2f+1-th vote (the slow-voter tail)
  kQcFormation,          ///< quorum reached -> certificate observed
  kPacemakerIdle,        ///< cert(cycle k) -> creation(cycle k+1) gaps
  kCommitDelivery,       ///< last cert -> commit observed on the replica
  kCount_,               ///< sentinel
};

inline constexpr std::size_t kSegmentCount =
    static_cast<std::size_t>(Segment::kCount_);

/// Stable snake_case identifier (table/JSON key), e.g. "straggler_wait".
[[nodiscard]] const char* segment_name(Segment segment);

/// Attribution for one committed block, observed on one replica.
struct BlockAttribution {
  std::uint64_t height = 0;
  std::uint64_t round = 0;
  SimTime created_at = 0;
  SimTime committed_at = 0;
  std::array<SimDuration, kSegmentCount> segments{};

  [[nodiscard]] SimDuration latency() const { return committed_at - created_at; }
  [[nodiscard]] SimDuration segment_sum() const;
};

/// Aggregate over every committed block in one trace.
struct CriticalPathResult {
  std::vector<BlockAttribution> blocks;
  std::array<SimDuration, kSegmentCount> totals{};
  SimDuration total_latency = 0;  ///< sum of per-block commit latencies

  [[nodiscard]] SimDuration total(Segment segment) const {
    return totals[static_cast<std::size_t>(segment)];
  }
  /// Fraction of all commit latency attributed to `segment` (0 when empty).
  [[nodiscard]] double share(Segment segment) const;
  /// Mean microseconds per committed block (0 when empty).
  [[nodiscard]] double mean_us(Segment segment) const;
  /// The segment with the largest total (kCommitDelivery when empty).
  [[nodiscard]] Segment dominant() const;
  /// Worst per-block fraction left to the residual (commit-delivery)
  /// segment — a well-instrumented trace keeps this small.
  [[nodiscard]] double max_residual_frac() const;
};

/// Reconstructs commit critical paths from a trace. Stateless; feed it the
/// full event journal (Observer::trace().events()).
class CriticalPathAnalyzer {
 public:
  /// Commits are read from replica `observer`'s "committed"/"strong_commit"
  /// spans (the harness convention is replica 0); milestones are
  /// cluster-wide. Blocks whose creation time never appeared in the trace
  /// (e.g. committed via state sync) are skipped.
  [[nodiscard]] static CriticalPathResult analyze(
      const std::vector<TraceEvent>& events, ReplicaId observer = 0);
};

}  // namespace sftbft::obs
