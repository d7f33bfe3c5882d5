#include "sftbft/hotstuff/hotstuff.hpp"

namespace sftbft::hotstuff {

// After a crash-restore the locked *block id* is not durable (only the
// locked round is), so the safety branch cannot be evaluated; keep only
// the liveness branch (strictly outranking QC), which is a strict subset of
// what any live replica would accept — a recovered replica may only be
// more conservative, never less.
bool safe_to_vote(const types::Block& block, const core::SafetyRules& safety,
                  const chain::BlockTree& tree) {
  const types::BlockId& locked = safety.locked_block();
  if (locked == types::BlockId{}) {
    // Never locked (round 0: everything is acceptable), or the lock was
    // restored from durable state without its block id.
    return safety.locked_round() == 0 ||
           block.qc.round > safety.locked_round();
  }
  // Safety branch: the proposal extends the locked branch (the parent is
  // the locked block or a descendant of it).
  if (tree.extends(block.parent_id, locked)) return true;
  // Liveness branch: the embedded QC outranks the lock.
  return block.qc.round > safety.locked_round();
}

}  // namespace sftbft::hotstuff
