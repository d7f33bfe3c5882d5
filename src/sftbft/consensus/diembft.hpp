// DiemBFT over the chained-BFT SFT kernel (sftbft::core::ChainedCore).
//
// DiemBFT is the kernel's reference protocol: its Fig. 2 voting rule
// (vote for a round-r block iff r > r_vote and parent.round >= r_lock),
// 2-chain locking rule, and consecutive-round 3-chain commit rule are the
// kernel defaults (core::diembft_safe_to_vote is CoreConfig::safe_to_vote's
// default). Compare hotstuff::safe_to_vote, which swaps in the original
// HotStuff liveness rule — everything else (message flow, SFT
// strong-votes, Sec.-5 logs, storage, sync) is shared kernel machinery,
// which is the paper's genericity claim (Secs. 3.2-3.4) made structural.
//
// This header re-exports the kernel's mode and counting-rule enums under
// the historical consensus:: names used by scenario and bench code.
#pragma once

#include "sftbft/core/chained_core.hpp"

namespace sftbft::consensus {

using core::CoreMode;
using core::CountingRule;

}  // namespace sftbft::consensus
