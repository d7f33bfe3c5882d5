// ReplicaStore: one replica's durable state — the safety envelope in a WAL,
// the committed ledger in periodic snapshots.
//
// What must survive a crash for a restarted replica to be *safe* (never
// equivocate, never vote twice in a round) is small — the paper's voting
// rule state plus the strong-vote bookkeeping the SFT layer adds:
//
//   * the last voted round (Fig. 2 voting rule: r > r_vote),
//   * the locking-rule watermark (max parent round over observed QCs),
//   * the VoteHistory frontier — (block, round, height) of the highest voted
//     block per fork (Fig. 4 / Sec. 3.4; drives markers and intervals),
//   * the highest QC and TC seen (locking + round sync).
//
// Those are appended to the WAL as they change (one record per vote / QC /
// TC). Periodically — every `snapshot_interval_blocks` commits — the store
// writes a snapshot: the full envelope, the committed ledger entries, and
// the ledger-tip *block* (the restored BlockTree re-roots at it), then
// truncates the WAL. recover() merges snapshot + WAL with max/union
// semantics, so a crash between the two writes is harmless, and repairs any
// torn WAL tail in place.
//
// Liveness state (uncommitted block tree, pending votes, mempool) is
// deliberately NOT persisted: a recovered replica re-syncs missed blocks
// from its peers (see core::ChainedCore::request_sync and its StreamletCore
// counterpart).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sftbft/chain/ledger.hpp"
#include "sftbft/storage/backend.hpp"
#include "sftbft/storage/wal.hpp"
#include "sftbft/types/block.hpp"
#include "sftbft/types/timeout.hpp"

namespace sftbft::obs {
class Observer;
}  // namespace sftbft::obs
namespace sftbft::sim {
class Scheduler;
}  // namespace sftbft::sim

namespace sftbft::storage {

struct StoreConfig {
  /// Snapshot + WAL truncation cadence, in committed blocks. 0 = never
  /// snapshot (the WAL grows for the whole run).
  std::uint64_t snapshot_interval_blocks = 64;
  /// Records per WAL sync for *watermark* records (QCs, TCs, commits).
  /// Larger values batch syncs at the cost of a wider torn-tail window.
  /// Vote records always sync immediately regardless — the WAL-before-wire
  /// equivocation fence is non-negotiable.
  std::uint32_t wal_sync_every = 1;
  /// Observability (WAL append / snapshot metrics, attributed to the store's
  /// replica id); null = off. `sched` supplies sim-time trace timestamps and
  /// must be set whenever `observer` is.
  obs::Observer* observer = nullptr;
  const sim::Scheduler* sched = nullptr;
};

/// One vote's durable trace: enough to restore the voted-round watermark and
/// the voting-history frontier. A zero block id records a round the replica
/// abandoned via timeout (no frontier entry, but the watermark still moves).
struct VoteRecord {
  types::BlockId block_id{};
  Round round = 0;
  Height height = 0;

  friend bool operator==(const VoteRecord&, const VoteRecord&) = default;
};

/// The safety envelope a snapshot persists alongside the ledger: every
/// durable watermark the consensus core needs to restart without
/// equivocating or re-entering a round it already acted in.
struct Envelope {
  Round voted_round = 0;
  /// Fig. 2 locking rule state: max parent_round over every QC observed.
  /// Tracked separately from high_qc — a timeout-borne high QC can carry a
  /// *lower* parent round than an earlier chain QC, so restoring the lock
  /// from high_qc alone could regress it.
  Round locked_round = 0;
  types::QuorumCert high_qc;  ///< genesis-stub (round 0) when none recorded
  std::optional<types::TimeoutCert> high_tc;
  std::vector<VoteRecord> frontier;
};

/// Everything recover() can reconstruct. `found` is false when the store
/// holds no durable state at all (crash before the first sync).
struct RecoveredState {
  bool found = false;
  Round voted_round = 0;
  Round locked_round = 0;
  /// Frontier candidates: the snapshot's frontier plus every later vote
  /// record. May include blocks the restored tree does not contain yet —
  /// consumers must treat those conservatively (see VoteHistory docs).
  std::vector<VoteRecord> frontier;
  types::QuorumCert high_qc;  ///< genesis-stub (round 0) when none recorded
  std::optional<types::TimeoutCert> high_tc;
  /// The snapshot's ledger tip block — the restored BlockTree's root. Absent
  /// when no snapshot was ever written (restore from genesis instead).
  std::optional<types::Block> tip;
  std::vector<chain::Ledger::Entry> ledger;
  // --- recovery diagnostics ---
  bool wal_torn_tail = false;
  bool wal_corrupt = false;
  bool snapshot_corrupt = false;
  std::size_t wal_records = 0;
};

class ReplicaStore {
 public:
  /// `backend` must outlive the store. Objects are namespaced per replica
  /// ("r<id>/wal", "r<id>/snapshot") so one backend can serve a deployment.
  ReplicaStore(StorageBackend& backend, ReplicaId id, StoreConfig config = {});

  // --- write path (called by the consensus cores as state changes) ---
  void record_vote(const VoteRecord& record);
  void record_high_qc(const types::QuorumCert& qc);
  void record_high_tc(const types::TimeoutCert& tc);
  /// Commits and strength raises between snapshots. Without these, a
  /// strength ratcheted after the last snapshot would be forgotten across a
  /// restart — and blocks at or below the snapshot tip sit below the
  /// restored tree's root, where the endorsement tracker can never
  /// re-derive them.
  void record_commit(const chain::Ledger::Entry& entry);

  /// Writes a snapshot (envelope + ledger + tip block) and truncates the
  /// WAL. Durable on return regardless of wal_sync_every.
  void write_snapshot(const types::Block& tip,
                      const std::vector<chain::Ledger::Entry>& ledger,
                      const Envelope& envelope);

  /// True when `committed_blocks` crossed the snapshot cadence since the
  /// last snapshot (callers invoke write_snapshot in response).
  [[nodiscard]] bool snapshot_due(std::uint64_t committed_blocks) const;

  // --- read path ---
  /// Merges snapshot + WAL (idempotent under replays: voted rounds take the
  /// max, QCs/TCs the highest round, frontier records union). Repairs a
  /// torn WAL tail so the next append starts at a clean frame boundary.
  [[nodiscard]] RecoveredState recover();

  /// Crash-fault injection passthrough (MemBackend drops unsynced bytes,
  /// possibly leaving a torn tail). Resets write batching.
  void simulate_crash();

  [[nodiscard]] const StoreConfig& config() const { return config_; }
  [[nodiscard]] StorageBackend& backend() { return *backend_; }

 private:
  void append_record(const Bytes& payload);
  void flush();

  StorageBackend* backend_;
  ReplicaId id_;
  StoreConfig config_;
  Wal wal_;
  std::string snapshot_name_;
  std::uint32_t unsynced_records_ = 0;
  std::uint64_t last_snapshot_blocks_ = 0;
};

}  // namespace sftbft::storage
