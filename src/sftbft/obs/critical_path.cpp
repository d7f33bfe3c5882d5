#include "sftbft/obs/critical_path.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <utility>

#include "sftbft/obs/lifecycle.hpp"

namespace sftbft::obs {

namespace {

namespace lc = lifecycle;

constexpr SimTime kUnset = std::numeric_limits<SimTime>::max();

/// (height, round) — the trace-wide block identity. Lifecycle spans carry
/// the height as the lane; instants carry both as args.
using BlockKey = std::pair<std::uint64_t, std::uint64_t>;

/// Cluster-wide milestone times for one block's certify cycle.
struct Milestones {
  SimTime created = kUnset;        ///< block.created_at (span start times)
  SimTime received = kUnset;       ///< min non-proposer delivery
  SimTime payload_ready = kUnset;  ///< min availability-gate pass
  SimTime f1 = kUnset;             ///< earliest f+1-th-vote crossing
  SimTime quorum = kUnset;         ///< earliest 2f+1-th-vote crossing
  SimTime certified = kUnset;      ///< earliest certificate observation
};

[[nodiscard]] bool find_arg(const TraceEvent& event, const char* key,
                            std::uint64_t& out) {
  for (const TraceEvent::Arg& arg : event.args) {
    if (arg.key != nullptr && std::strcmp(arg.key, key) == 0) {
      out = arg.value;
      return true;
    }
  }
  return false;
}

void keep_min(SimTime& slot, SimTime candidate) {
  slot = std::min(slot, candidate);
}

}  // namespace

const char* segment_name(Segment segment) {
  switch (segment) {
    case Segment::kProposalTransit: return "proposal_transit";
    case Segment::kDissemWait: return "dissem_wait";
    case Segment::kVoteGatherF1: return "vote_gather_f1";
    case Segment::kStragglerWait: return "straggler_wait";
    case Segment::kQcFormation: return "qc_formation";
    case Segment::kPacemakerIdle: return "pacemaker_idle";
    case Segment::kCommitDelivery: return "commit_delivery";
    case Segment::kCount_: break;
  }
  return "?";
}

SimDuration BlockAttribution::segment_sum() const {
  SimDuration sum = 0;
  for (const SimDuration d : segments) sum += d;
  return sum;
}

double CriticalPathResult::share(Segment segment) const {
  if (total_latency == 0) return 0.0;
  return static_cast<double>(total(segment)) /
         static_cast<double>(total_latency);
}

double CriticalPathResult::mean_us(Segment segment) const {
  if (blocks.empty()) return 0.0;
  return static_cast<double>(total(segment)) /
         static_cast<double>(blocks.size());
}

Segment CriticalPathResult::dominant() const {
  std::size_t best = static_cast<std::size_t>(Segment::kCommitDelivery);
  for (std::size_t i = 0; i < kSegmentCount; ++i) {
    if (totals[i] > totals[best]) best = i;
  }
  return static_cast<Segment>(best);
}

double CriticalPathResult::max_residual_frac() const {
  double worst = 0.0;
  for (const BlockAttribution& block : blocks) {
    if (block.latency() == 0) continue;
    const double frac =
        static_cast<double>(
            block.segments[static_cast<std::size_t>(Segment::kCommitDelivery)]) /
        static_cast<double>(block.latency());
    worst = std::max(worst, frac);
  }
  return worst;
}

CriticalPathResult CriticalPathAnalyzer::analyze(
    const std::vector<TraceEvent>& events, ReplicaId observer) {
  // ---- pass 1: index milestones by (height, round) -----------------------
  std::map<BlockKey, Milestones> blocks;
  // Earliest commit observation per block on the observer replica.
  std::map<BlockKey, SimTime> commits;
  // height -> keys seen at that height (successor lookup).
  std::map<std::uint64_t, std::vector<BlockKey>> by_height;

  auto milestones_for = [&](BlockKey key) -> Milestones& {
    auto [it, inserted] = blocks.try_emplace(key);
    if (inserted) by_height[key.first].push_back(key);
    return it->second;
  };

  for (const TraceEvent& event : events) {
    if (event.phase == 'X' && std::strcmp(event.category, lc::kBlock) == 0) {
      std::uint64_t round = 0;
      if (!find_arg(event, lc::kRound, round)) continue;
      const BlockKey key{event.lane, round};
      Milestones& m = milestones_for(key);
      // Every lifecycle span starts at block.created_at.
      keep_min(m.created, event.ts);
      const SimTime end = event.ts + event.dur;
      const char* name = event.name;
      if (std::strcmp(name, lc::kReceived) == 0) {
        keep_min(m.received, end);
      } else if (std::strcmp(name, lc::kCertified) == 0) {
        keep_min(m.certified, end);
      } else if (event.replica == observer &&
                 (std::strcmp(name, lc::kCommitted) == 0 ||
                  std::strcmp(name, lc::kStrongCommit) == 0)) {
        auto [it, inserted] = commits.try_emplace(key, end);
        if (!inserted) it->second = std::min(it->second, end);
      }
    } else if (event.phase == 'i') {
      std::uint64_t round = 0;
      std::uint64_t height = 0;
      if (!find_arg(event, lc::kRound, round) ||
          !find_arg(event, lc::kHeight, height)) {
        continue;
      }
      const BlockKey key{height, round};
      const char* name = event.name;
      if (std::strcmp(event.category, lc::kDissem) == 0 &&
          std::strcmp(name, lc::kPayloadReady) == 0) {
        keep_min(milestones_for(key).payload_ready, event.ts);
      } else if (std::strcmp(event.category, lc::kBlock) == 0) {
        if (std::strcmp(name, lc::kVoteF1) == 0) {
          keep_min(milestones_for(key).f1, event.ts);
        } else if (std::strcmp(name, lc::kVoteQuorum) == 0) {
          keep_min(milestones_for(key).quorum, event.ts);
        }
      }
    }
  }

  // ---- pass 2: telescoping walk per committed block ----------------------
  CriticalPathResult result;
  result.blocks.reserve(commits.size());

  for (const auto& [key, committed_at] : commits) {
    const auto block_it = blocks.find(key);
    if (block_it == blocks.end() || block_it->second.created == kUnset) {
      continue;  // no creation milestone (synced in): cannot attribute
    }
    const Milestones& own = block_it->second;
    if (committed_at <= own.created) continue;  // degenerate/clock-less

    BlockAttribution attr;
    attr.height = key.first;
    attr.round = key.second;
    attr.created_at = own.created;
    attr.committed_at = committed_at;

    // The cursor only moves forward and never past the commit instant, so
    // out-of-order milestones (possible across replicas) charge zero
    // instead of going negative: the partition property is unconditional.
    SimTime cursor = own.created;
    auto advance = [&](Segment segment, SimTime milestone) {
      if (milestone == kUnset) return;
      const SimTime eff =
          std::min(std::max(cursor, milestone), committed_at);
      attr.segments[static_cast<std::size_t>(segment)] += eff - cursor;
      cursor = eff;
    };
    auto apply_cycle = [&](const Milestones& m) {
      advance(Segment::kProposalTransit, m.received);
      advance(Segment::kDissemWait, m.payload_ready);
      advance(Segment::kVoteGatherF1, m.f1);
      advance(Segment::kStragglerWait, m.quorum);
      advance(Segment::kQcFormation, m.certified);
    };

    apply_cycle(own);

    // Fold in the successor certify cycles the commit rule waited for
    // (3-chain / consecutive-rounds): at each next height pick the block
    // that certified first within the commit window.
    std::uint64_t height = key.first + 1;
    while (true) {
      const auto level = by_height.find(height);
      if (level == by_height.end()) break;
      const Milestones* next = nullptr;
      for (const BlockKey& candidate : level->second) {
        const Milestones& m = blocks.at(candidate);
        if (m.certified == kUnset || m.certified > committed_at) continue;
        if (next == nullptr || m.certified < next->certified) next = &m;
      }
      if (next == nullptr) break;
      advance(Segment::kPacemakerIdle, next->created);
      apply_cycle(*next);
      ++height;
    }

    // Residual: certificate/commit-message transit to the observer replica
    // plus its local processing.
    attr.segments[static_cast<std::size_t>(Segment::kCommitDelivery)] +=
        committed_at - cursor;

    for (std::size_t i = 0; i < kSegmentCount; ++i) {
      result.totals[i] += attr.segments[i];
    }
    result.total_latency += attr.latency();
    result.blocks.push_back(attr);
  }

  return result;
}

}  // namespace sftbft::obs
