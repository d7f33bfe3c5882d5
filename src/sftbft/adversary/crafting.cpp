#include "sftbft/adversary/crafting.hpp"

namespace sftbft::adversary {

using types::Vote;
using types::VoteMode;

Vote amnesia_vote(const types::Block& block, ReplicaId voter,
                  core::CoreMode mode, const crypto::Signer& signer) {
  Vote vote;
  vote.block_id = block.id;
  vote.round = block.round;
  vote.voter = voter;
  switch (mode) {
    case core::CoreMode::Plain:
      vote.mode = VoteMode::Plain;
      break;
    case core::CoreMode::SftMarker:
      vote.mode = VoteMode::Marker;
      vote.marker = 0;  // "I never voted a conflicting fork" — a lie
      break;
    case core::CoreMode::SftIntervals:
      vote.mode = VoteMode::Intervals;
      vote.endorsed = IntervalSet::single(1, block.round);  // endorse all
      break;
  }
  vote.sig = signer.sign(vote.signing_bytes());
  return vote;
}

streamlet::SVote amnesia_vote(const types::Block& block, ReplicaId voter,
                              const crypto::Signer& signer) {
  streamlet::SVote vote;
  vote.block_id = block.id;
  vote.round = block.round;
  vote.height = block.height;
  vote.voter = voter;
  vote.marker = 0;
  vote.sig = signer.sign(vote.signing_bytes());
  return vote;
}

bool deny_history(Vote& vote, const crypto::Signer& signer) {
  switch (vote.mode) {
    case VoteMode::Plain:
      return false;
    case VoteMode::Marker:
      if (vote.marker == 0) return false;  // already looks historyless
      vote.marker = 0;
      break;
    case VoteMode::Intervals:
      vote.endorsed = IntervalSet::single(1, vote.round);
      break;
  }
  vote.sig = signer.sign(vote.signing_bytes());
  return true;
}

bool deny_history(streamlet::SVote& vote, const crypto::Signer& signer) {
  if (vote.marker == 0) return false;
  vote.marker = 0;  // "I never voted a conflicting fork" — a lie
  vote.sig = signer.sign(vote.signing_bytes());
  return true;
}

}  // namespace sftbft::adversary
