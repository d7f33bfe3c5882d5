// Message crafting for Byzantine replicas (paper Appendix C / Fig. 9 and
// Appendix D.4's Streamlet adversary).
//
// A Byzantine replica runs a real consensus core — that keeps it synced and
// lets it win its leadership rounds — and lies only on the way out. The
// lies are built here, one function per Strategy and protocol family:
//
//  * EquivocatingLeader — twin_of(): a conflicting twin of the core's
//    proposal;
//  * AmnesiaVoter — deny_history() rewrites the core's truthful strong-vote
//    to claim an empty history, and amnesia_vote() votes for any proposal
//    the replica sees, staged forks included: the exact "vote on both forks
//    and lie about the markers" schedule of Fig. 9.
//
// Delivery (SelectiveSender, WithholdRelease, the twin fan-out) is the
// OutboundFunnel's job (funnel.hpp); engine::ReplicaHost routes a
// Byzantine replica's traffic through both.
#pragma once

#include "sftbft/core/chained_core.hpp"
#include "sftbft/crypto/signature.hpp"
#include "sftbft/streamlet/streamlet.hpp"
#include "sftbft/types/block.hpp"
#include "sftbft/types/vote.hpp"

namespace sftbft::adversary {

/// EquivocatingLeader: the twin of `proposal` (a types::Proposal or a
/// streamlet::SProposal). Identical parent, round, height and payload; a
/// distinct id, because the creation stamp is part of the sealed header.
/// Honest receivers cannot structurally tell it from the original.
template <typename P>
[[nodiscard]] P twin_of(const P& proposal, const crypto::Signer& signer) {
  P twin = proposal;
  twin.block.created_at += 1;
  twin.block.seal();
  twin.sig = signer.sign(twin.signing_bytes());
  return twin;
}

/// AmnesiaVoter, chained family: a signed vote by `voter` for `block` that
/// claims no conflicting history (marker 0, or one interval endorsing every
/// round), whatever the voting and safety rules say.
[[nodiscard]] types::Vote amnesia_vote(const types::Block& block,
                                       ReplicaId voter, core::CoreMode mode,
                                       const crypto::Signer& signer);
/// AmnesiaVoter, Streamlet: the same lie as a height-marked vote.
[[nodiscard]] streamlet::SVote amnesia_vote(const types::Block& block,
                                            ReplicaId voter,
                                            const crypto::Signer& signer);

/// AmnesiaVoter: rewrites a core-built vote to deny its own history and
/// re-signs it. Returns false, leaving the vote untouched, when it already
/// looks historyless.
bool deny_history(types::Vote& vote, const crypto::Signer& signer);
bool deny_history(streamlet::SVote& vote, const crypto::Signer& signer);

}  // namespace sftbft::adversary
