// Block-lifecycle probe: the single writer of the block-milestone trace
// vocabulary that obs::CriticalPathAnalyzer reads back.
//
// Every consensus core (the chained kernel, Streamlet), its Pacemaker and
// its Committer report a block's milestones — proposed, received,
// payload_ready, voted, vote_f1, vote_quorum, certified, committed /
// strong_commit — and the pacemaker's round entries and timeouts through
// one LifecycleProbe per replica. Each method emits the metrics, spans,
// instants and counter tracks of its milestone; the category and event
// names below are the only spelling of that vocabulary, so the writer and
// the analyzer cannot drift apart. A probe over a null Observer is the
// disabled path: every method is one pointer test.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sftbft/common/types.hpp"
#include "sftbft/obs/observer.hpp"
#include "sftbft/types/block.hpp"

namespace sftbft::obs {

namespace lifecycle {
// Categories.
inline constexpr const char* kBlock = "block";
inline constexpr const char* kDissem = "dissem";
inline constexpr const char* kPacemaker = "pacemaker";
inline constexpr const char* kMempool = "mempool";
// Block-lifecycle spans (all start at block.created_at, lane = height).
inline constexpr const char* kProposed = "proposed";
inline constexpr const char* kReceived = "received";
inline constexpr const char* kVoted = "voted";
inline constexpr const char* kCertified = "certified";
inline constexpr const char* kCommitted = "committed";
inline constexpr const char* kStrongCommit = "strong_commit";
// Instants and counter tracks.
inline constexpr const char* kPayloadReady = "payload_ready";
inline constexpr const char* kVoteF1 = "vote_f1";
inline constexpr const char* kVoteQuorum = "vote_quorum";
inline constexpr const char* kRoundEnter = "round_enter";
inline constexpr const char* kTimeout = "timeout";
inline constexpr const char* kRoundTrack = "round";
inline constexpr const char* kMempoolDepth = "mempool_depth";
// Argument keys.
inline constexpr const char* kRound = "round";
inline constexpr const char* kHeight = "height";
}  // namespace lifecycle

/// Vote-arrival ordinals (the paper's strength clock): sim time when the
/// (f+1)-th / (2f+1)-th distinct vote for a block landed; 0 = not yet.
struct VoteClock {
  SimTime f1_at = 0;
  SimTime quorum_at = 0;

  void note(std::size_t distinct, std::uint32_t f, std::uint32_t quorum,
            SimTime now) {
    if (distinct == f + 1) f1_at = now;
    if (distinct == quorum) quorum_at = now;
  }
};

class LifecycleProbe {
 public:
  /// `observer` may be null (obs off); it must outlive the probe.
  LifecycleProbe(Observer* observer, ReplicaId id) : obs_(observer), id_(id) {}

  [[nodiscard]] bool enabled() const { return obs_ != nullptr; }

  void round_entered(Round round, SimTime now) {
    if (obs_ == nullptr) return;
    obs_->count(id_, Counter::kRoundsEntered);
    obs_->gauge(id_, Gauge::kRound, static_cast<std::int64_t>(round));
    if (obs_->recording()) {
      obs_->emit(instant_event(lifecycle::kPacemaker, lifecycle::kRoundEnter,
                               id_, now, {lifecycle::kRound, round}));
    }
    if (obs_->tracing()) {
      // Counter track: the round as a per-replica time series (lagging
      // replicas show up as a visibly lower staircase in Perfetto).
      obs_->emit_trace_only(counter_event(lifecycle::kPacemaker,
                                          lifecycle::kRoundTrack, id_, now,
                                          {lifecycle::kRound, round}));
    }
  }

  void timed_out(Round round, SimTime now) {
    if (obs_ == nullptr) return;
    obs_->count(id_, Counter::kTimeoutsLocal);
    if (obs_->recording()) {
      obs_->emit(instant_event(lifecycle::kPacemaker, lifecycle::kTimeout, id_,
                               now, {lifecycle::kRound, round}));
    }
  }

  /// Leader side; `mempool_pending` is the pool depth right after draining
  /// this block's batch (backpressure counter track).
  void proposed(const types::Block& block, SimTime now,
                std::size_t mempool_pending) {
    if (obs_ == nullptr) return;
    obs_->count(id_, Counter::kProposalsSent);
    span(lifecycle::kProposed, block, now, {lifecycle::kHeight, block.height});
    if (obs_->tracing()) {
      obs_->emit_trace_only(counter_event(
          lifecycle::kMempool, lifecycle::kMempoolDepth, id_, now,
          {"pending", static_cast<std::uint64_t>(mempool_pending)}));
    }
  }

  /// Proposal arrival (critical-path "proposal transit"). The proposer's
  /// own loopback delivery is skipped: it would zero the transit segment.
  void received(const types::Block& block, SimTime now) {
    if (obs_ == nullptr || block.proposer == id_) return;
    span(lifecycle::kReceived, block, now);
  }

  /// The batches `block` references are local (critical-path "dissem wait"
  /// ends here).
  void payload_ready(const types::Block& block, SimTime now) {
    if (obs_ == nullptr) return;
    instant(lifecycle::kDissem, lifecycle::kPayloadReady, block, now);
  }

  void voted(const types::Block& block, SimTime now) {
    if (obs_ == nullptr) return;
    obs_->count(id_, Counter::kVotesSent);
    span(lifecycle::kVoted, block, now);
  }

  void certified(const types::Block& block, SimTime now) {
    if (obs_ == nullptr) return;
    obs_->count(id_, Counter::kBlocksCertified);
    obs_->observe(id_, Hist::kCertifyLatencyUs, now - block.created_at);
    span(lifecycle::kCertified, block, now);
  }

  /// The vote-arrival ordinals `clock` recorded for `block`, as latency
  /// histograms and instants stamped at the crossing times.
  void votes_gathered(const types::Block& block, const VoteClock& clock) {
    if (obs_ == nullptr) return;
    if (clock.f1_at > 0) {
      obs_->observe(id_, Hist::kVoteF1LatencyUs,
                    clock.f1_at - block.created_at);
      instant(lifecycle::kBlock, lifecycle::kVoteF1, block, clock.f1_at);
    }
    if (clock.quorum_at > 0) {
      obs_->observe(id_, Hist::kVoteQuorumLatencyUs,
                    clock.quorum_at - block.created_at);
      instant(lifecycle::kBlock, lifecycle::kVoteQuorum, block,
              clock.quorum_at);
    }
  }

  /// Strengths up to `f` are regular commits, higher ones strong commits.
  void committed(const types::Block& block, std::uint32_t strength,
                 std::uint32_t f, SimTime now) {
    if (obs_ == nullptr) return;
    const bool strong = strength > f;
    const SimDuration latency = now - block.created_at;
    obs_->count(id_, strong ? Counter::kStrongCommits : Counter::kCommits);
    obs_->observe(
        id_, strong ? Hist::kStrongCommitLatencyUs : Hist::kCommitLatencyUs,
        latency);
    span(strong ? lifecycle::kStrongCommit : lifecycle::kCommitted, block, now,
         {"strength", strength});
  }

 private:
  /// Lifecycle span of `block` from its creation to `now` (lane = height).
  void span(const char* name, const types::Block& block, SimTime now,
            TraceEvent::Arg extra = {}) {
    if (!obs_->recording()) return;
    obs_->emit(span_event(lifecycle::kBlock, name, id_, block.height,
                          block.created_at, now,
                          {lifecycle::kRound, block.round}, extra));
  }

  /// Point milestone of `block` at `at`, keyed by (round, height).
  void instant(const char* category, const char* name,
               const types::Block& block, SimTime at) {
    if (!obs_->recording()) return;
    obs_->emit(instant_event(category, name, id_, at,
                             {lifecycle::kRound, block.round},
                             {lifecycle::kHeight, block.height}));
  }

  Observer* obs_;
  ReplicaId id_;
};

}  // namespace sftbft::obs
