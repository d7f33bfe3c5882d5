// DiemBFT as a rule set over the chained-BFT SFT kernel
// (sftbft::core::ChainedCore).
//
// DiemBFT is the kernel's reference protocol: its Fig. 2 voting rule
// (vote for a round-r block iff r > r_vote and parent.round >= r_lock),
// 2-chain locking rule, and consecutive-round 3-chain commit rule are the
// kernel defaults, so diembft_rules() is the empty rule set. Compare
// hotstuff::rules(), which swaps in the original HotStuff liveness rule —
// everything else (message flow, SFT strong-votes, Sec.-5 logs, storage,
// sync) is shared kernel machinery, which is the paper's genericity claim
// (Secs. 3.2-3.4) made structural.
//
// This header also re-exports the kernel vocabulary under the historical
// consensus:: names so protocol-agnostic call sites keep reading naturally.
#pragma once

#include "sftbft/core/chained_core.hpp"

namespace sftbft::consensus {

using core::CoreConfig;
using core::CoreMode;
using core::CountingRule;
using core::SafetyRules;
using core::StrengthUpdate;
using core::VoteHistory;

/// DiemBFT's rule set: the kernel defaults (null slots select the Fig. 2
/// rules implemented in core::ChainedCore).
[[nodiscard]] core::ChainedRules diembft_rules();

}  // namespace sftbft::consensus
