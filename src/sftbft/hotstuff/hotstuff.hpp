// Chained HotStuff as one voting predicate over the chained-BFT SFT kernel
// (sftbft::core::ChainedCore) — the paper's genericity claim made
// executable: "the same technique applies to other chained BFT protocols
// such as HotStuff" (Secs. 3.2-3.4; the quote in
// consensus/leader_election.hpp names HotStuff, DiemBFT and Streamlet as
// the instances). This module is written *only* against the kernel: it
// supplies the one predicate where chained HotStuff's safety rules differ
// from DiemBFT's and inherits everything else — strong-votes against the
// shared VoteHistory, StrengthTracker accounting, Sec.-5 commit-Log
// sealing, block sync, storage, audit taps.
//
// Where the protocols differ (and where they do not):
//
//  * Voting rule — DiemBFT (Fig. 2): vote iff parent.round >= r_lock.
//    Chained HotStuff (HotStuff paper, Algorithm 4's safeNode as laid out
//    along the chain): vote iff the block *extends the locked block*
//    (safety branch) OR the block's embedded QC ranks higher than the lock
//    (liveness branch). The two rules admit the same honest executions in
//    steady state but disagree under forks: HotStuff may vote for a block
//    whose parent round is below the lock as long as it extends the locked
//    branch.
//  * Locking — both lock on the 2-chain (the parent of the newly certified
//    block); kernel machinery.
//  * Commit — chained HotStuff's three phases are laid out along the chain:
//    a block is decided exactly when it heads a 3-chain with consecutive
//    rounds, which is the kernel's commit rule verbatim.
//  * Pacemaker — round synchronization by higher QC/TC, as in the kernel
//    (LibraBFT-style) with a fixed round timer; the original's exponential
//    new-view backoff is not modelled (the paper's experiments use a
//    predefined timeout).
//
// The SFT strong-vote extension applies unchanged: HotStuff strong-votes
// carry the same round markers / interval sets, and the strong 3-chain rule
// commits at strengths x in [f, 2f] exactly as on DiemBFT.
//
// The messages are the kernel's, so HotStuff frames travel under the same
// Envelope tags as DiemBFT's. A HotStuff replica is a core::ChainedCore
// whose CoreConfig::safe_to_vote is hotstuff::safe_to_vote.
#pragma once

#include "sftbft/core/chained_core.hpp"

namespace sftbft::hotstuff {

/// Chained HotStuff's safeNode predicate, phrased on the chain: accept a
/// proposal iff its parent extends (or is) the locked block, or its
/// embedded QC ranks strictly higher than the lock. Plugs into
/// core::CoreConfig::safe_to_vote.
[[nodiscard]] bool safe_to_vote(const types::Block& block,
                                const core::SafetyRules& safety,
                                const chain::BlockTree& tree);

}  // namespace sftbft::hotstuff
