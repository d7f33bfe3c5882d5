// Pacemaker: round synchronization (paper Fig. 2, "Synchronization rule" and
// "Timeout").
//
// The replica advances to round r after seeing the QC of a round-(r−1) block
// or 2f + 1 timeout messages of round r−1 (the core observes those and calls
// advance_to). On entering a round the pacemaker arms a timer; on expiry the
// core stops voting in the round and multicasts ⟨timeout, r, qc_high⟩.
// Every round's timer runs for the same "predefined duration",
// base_timeout, as in the paper's experiments.
#pragma once

#include <functional>

#include "sftbft/common/types.hpp"
#include "sftbft/obs/lifecycle.hpp"
#include "sftbft/sim/scheduler.hpp"

namespace sftbft::consensus {

struct PacemakerConfig {
  SimDuration base_timeout = millis(3000);
  /// Observability (round entries / timeouts, attributed to `id`); null =
  /// off. The Observer outlives the core that owns this pacemaker.
  obs::Observer* observer = nullptr;
  ReplicaId id = 0;
};

class Pacemaker {
 public:
  struct Callbacks {
    /// New round entered (propose here if leader; timer is already armed).
    std::function<void(Round)> on_round_entered;
    /// The round timer expired (multicast a timeout message).
    std::function<void(Round)> on_local_timeout;
  };

  Pacemaker(sim::Scheduler& sched, PacemakerConfig config, Callbacks callbacks);

  /// Enters round 1.
  void start();

  /// Stops all timers (crash / end of experiment).
  void stop();

  /// Crash recovery: re-enters service at `round` (>= 1) after a stop(),
  /// re-arming the timer. Unlike advance_to this may move the round
  /// "backward" — the recovered round watermark comes from durable state,
  /// and the cluster's true round is re-learned via sync (voting safety is
  /// guarded separately by SafetyRules' restored r_vote).
  void resume(Round round);

  [[nodiscard]] Round current_round() const { return round_; }

  /// Round-sync rule: called with r = qc.round + 1 or tc.round + 1.
  /// Advances (and re-arms the timer) only forward. Returns true on advance.
  bool advance_to(Round round);

  /// Whether the current round's timer already fired (replica stops voting).
  [[nodiscard]] bool timed_out() const { return timed_out_; }

 private:
  void enter(Round round);
  void arm_timer();

  sim::Scheduler& sched_;
  PacemakerConfig config_;
  Callbacks callbacks_;
  obs::LifecycleProbe probe_;
  Round round_ = 0;
  bool timed_out_ = false;
  sim::TimerId timer_ = sim::kInvalidTimer;
  bool stopped_ = false;
};

}  // namespace sftbft::consensus
