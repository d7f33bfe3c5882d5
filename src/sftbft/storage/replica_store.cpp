#include "sftbft/storage/replica_store.hpp"

#include <algorithm>

#include "sftbft/common/codec.hpp"
#include "sftbft/common/crc32.hpp"
#include "sftbft/obs/observer.hpp"
#include "sftbft/sim/scheduler.hpp"

namespace sftbft::storage {

namespace {

// WAL record tags. The payload after the tag is type-specific.
enum class Tag : std::uint8_t {
  kVote = 1,    // VoteRecord
  kHighQc = 2,  // QuorumCert
  kHighTc = 3,  // TimeoutCert
  kCommit = 4,  // chain::Ledger::Entry (new commit or strength raise)
};

constexpr std::uint32_t kSnapshotMagic = 0x53465453;  // "SFTS"
constexpr std::uint32_t kSnapshotVersion = 1;

void encode_vote_record(Encoder& enc, const VoteRecord& record) {
  enc.raw(record.block_id.bytes);
  enc.u64(record.round);
  enc.u64(record.height);
}

VoteRecord decode_vote_record(Decoder& dec) {
  VoteRecord record;
  const Bytes raw = dec.raw(32);
  std::copy(raw.begin(), raw.end(), record.block_id.bytes.begin());
  record.round = dec.u64();
  record.height = dec.u64();
  return record;
}

void merge_vote(RecoveredState& state, const VoteRecord& record) {
  state.voted_round = std::max(state.voted_round, record.round);
  const bool has_block =
      record.block_id != types::BlockId{};  // timeout records carry no block
  if (!has_block) return;
  for (const VoteRecord& existing : state.frontier) {
    if (existing.block_id == record.block_id) return;  // replayed record
  }
  state.frontier.push_back(record);
}

void merge_high_qc(RecoveredState& state, const types::QuorumCert& qc) {
  if (qc.round >= state.high_qc.round) state.high_qc = qc;
  // The locking rule tracks the max parent round over *all* observed QCs,
  // not just the one that ends up highest (see Envelope::locked_round).
  state.locked_round = std::max(state.locked_round, qc.parent_round);
}

void merge_high_tc(RecoveredState& state, const types::TimeoutCert& tc) {
  if (!state.high_tc || tc.round >= state.high_tc->round) state.high_tc = tc;
}

void merge_commit(RecoveredState& state, const chain::Ledger::Entry& entry) {
  for (chain::Ledger::Entry& existing : state.ledger) {
    if (existing.height != entry.height) continue;
    if (entry.strength > existing.strength) existing = entry;
    return;
  }
  state.ledger.push_back(entry);
}

}  // namespace

ReplicaStore::ReplicaStore(StorageBackend& backend, ReplicaId id,
                           StoreConfig config)
    : backend_(&backend),
      id_(id),
      config_(config),
      wal_(backend, "r" + std::to_string(id) + "/wal"),
      snapshot_name_("r" + std::to_string(id) + "/snapshot") {}

void ReplicaStore::append_record(const Bytes& payload) {
  wal_.append(payload);
  // Counter only — WAL appends are too frequent to trace individually.
  if (obs::Observer* obs = config_.observer) {
    obs->count(id_, obs::Counter::kWalAppends);
  }
  if (++unsynced_records_ >= std::max(1u, config_.wal_sync_every)) {
    flush();
  }
}

void ReplicaStore::flush() {
  wal_.sync();
  unsynced_records_ = 0;
}

void ReplicaStore::record_vote(const VoteRecord& record) {
  Encoder enc;
  enc.u8(static_cast<std::uint8_t>(Tag::kVote));
  encode_vote_record(enc, record);
  append_record(enc.data());
  // WAL-before-wire: the cores send the vote right after this call, so it
  // must be durable *now* — wal_sync_every batching only covers watermark
  // records whose loss cannot cause equivocation.
  flush();
}

void ReplicaStore::record_high_qc(const types::QuorumCert& qc) {
  Encoder enc;
  enc.u8(static_cast<std::uint8_t>(Tag::kHighQc));
  qc.encode(enc);
  append_record(enc.data());
}

void ReplicaStore::record_high_tc(const types::TimeoutCert& tc) {
  Encoder enc;
  enc.u8(static_cast<std::uint8_t>(Tag::kHighTc));
  tc.encode(enc);
  append_record(enc.data());
}

void ReplicaStore::record_commit(const chain::Ledger::Entry& entry) {
  Encoder enc;
  enc.u8(static_cast<std::uint8_t>(Tag::kCommit));
  entry.encode(enc);
  append_record(enc.data());
}

void ReplicaStore::write_snapshot(
    const types::Block& tip, const std::vector<chain::Ledger::Entry>& ledger,
    const Envelope& envelope) {
  Encoder body;
  body.u64(envelope.voted_round);
  body.u64(envelope.locked_round);
  envelope.high_qc.encode(body);
  body.boolean(envelope.high_tc.has_value());
  if (envelope.high_tc) envelope.high_tc->encode(body);
  body.u32(static_cast<std::uint32_t>(envelope.frontier.size()));
  for (const VoteRecord& record : envelope.frontier) {
    encode_vote_record(body, record);
  }
  tip.encode(body);
  body.u32(static_cast<std::uint32_t>(ledger.size()));
  for (const chain::Ledger::Entry& entry : ledger) entry.encode(body);

  Encoder enc;
  enc.u32(kSnapshotMagic);
  enc.u32(kSnapshotVersion);
  enc.u32(crc32(body.data()));
  enc.bytes(body.data());

  // Order matters: the snapshot must be durable before the WAL truncation.
  // A crash in between leaves snapshot(new) + WAL(old), which recover()
  // merges idempotently.
  backend_->write_atomic(snapshot_name_, enc.data());
  backend_->sync(snapshot_name_);
  wal_.reset();
  unsynced_records_ = 0;
  last_snapshot_blocks_ = ledger.size();
  if (obs::Observer* obs = config_.observer) {
    obs->count(id_, obs::Counter::kSnapshots);
    if (obs->recording() && config_.sched != nullptr) {
      obs->emit(obs::instant_event("storage", "snapshot", id_,
                                   config_.sched->now(),
                                   {"blocks", ledger.size()},
                                   {"tip_height", tip.height}));
    }
  }
}

bool ReplicaStore::snapshot_due(std::uint64_t committed_blocks) const {
  return config_.snapshot_interval_blocks > 0 &&
         committed_blocks >=
             last_snapshot_blocks_ + config_.snapshot_interval_blocks;
}

RecoveredState ReplicaStore::recover() {
  RecoveredState state;

  // 1. Snapshot (if any): the base image.
  const Bytes snap = backend_->read(snapshot_name_);
  if (!snap.empty()) {
    try {
      Decoder dec(snap);
      if (dec.u32() != kSnapshotMagic) throw CodecError("bad snapshot magic");
      if (dec.u32() != kSnapshotVersion) {
        throw CodecError("unsupported snapshot version");
      }
      const std::uint32_t expected_crc = dec.u32();
      const Bytes body = dec.bytes();
      if (crc32(body) != expected_crc) throw CodecError("snapshot crc");
      Decoder bdec(body);
      state.voted_round = bdec.u64();
      state.locked_round = bdec.u64();
      state.high_qc = types::QuorumCert::decode(bdec);
      if (bdec.boolean()) state.high_tc = types::TimeoutCert::decode(bdec);
      const std::uint32_t frontier_count = bdec.u32();
      for (std::uint32_t i = 0; i < frontier_count; ++i) {
        state.frontier.push_back(decode_vote_record(bdec));
      }
      state.tip = types::Block::decode(bdec);
      const std::uint32_t ledger_count = bdec.u32();
      state.ledger.reserve(ledger_count);
      for (std::uint32_t i = 0; i < ledger_count; ++i) {
        state.ledger.push_back(chain::Ledger::Entry::decode(bdec));
      }
      state.found = true;
    } catch (const CodecError&) {
      // A damaged snapshot is treated as absent (write_atomic makes this
      // reachable only through media faults); the WAL below still applies.
      state = RecoveredState{};
      state.snapshot_corrupt = true;
    }
  }

  // 2. WAL: replay records on top with max/union merge semantics.
  const Wal::ReplayResult replayed = wal_.replay();
  state.wal_torn_tail = replayed.torn_tail;
  state.wal_corrupt = state.wal_corrupt || replayed.corrupt;
  state.wal_records = replayed.records.size();
  for (const Bytes& record : replayed.records) {
    try {
      Decoder dec(record);
      switch (static_cast<Tag>(dec.u8())) {
        case Tag::kVote:
          merge_vote(state, decode_vote_record(dec));
          state.found = true;
          break;
        case Tag::kHighQc:
          merge_high_qc(state, types::QuorumCert::decode(dec));
          state.found = true;
          break;
        case Tag::kHighTc:
          merge_high_tc(state, types::TimeoutCert::decode(dec));
          state.found = true;
          break;
        case Tag::kCommit:
          merge_commit(state, chain::Ledger::Entry::decode(dec));
          state.found = true;
          break;
        default:
          throw CodecError("unknown WAL record tag");
      }
    } catch (const CodecError&) {
      state.wal_corrupt = true;  // CRC passed but payload malformed
    }
  }

  // 3. Repair the tail so post-recovery appends start on a frame boundary
  // (the documented double-recovery state: recover, append, crash, recover
  // again always yields every synced record plus any surviving torn-tail
  // completions, never garbage).
  if (replayed.torn_tail || replayed.corrupt) wal_.repair_tail(replayed);
  unsynced_records_ = 0;
  last_snapshot_blocks_ = state.ledger.size();
  return state;
}

void ReplicaStore::simulate_crash() {
  backend_->simulate_crash();
  unsynced_records_ = 0;
}

}  // namespace sftbft::storage
