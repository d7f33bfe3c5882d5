#include "sftbft/types/block.hpp"

namespace sftbft::types {

crypto::Sha256Digest Block::compute_id() const {
  Encoder enc;
  enc.str("sftbft/block");
  enc.raw(parent_id.bytes);
  enc.u64(round);
  enc.u64(height);
  enc.u32(proposer);
  enc.raw(qc.digest().bytes);
  // Payload is bound through its *record* encoding's digest (memoized in
  // the payload): the synthetic bodies are a pure function of the records,
  // so this binds the full wire bytes while header hashing stays O(txns),
  // not O(block bytes) — and only runs once per payload object.
  enc.raw(payload.records_digest().bytes);
  enc.raw(log_digest.bytes);
  enc.i64(created_at);
  return crypto::Sha256::hash(enc.data());
}

void Block::seal() { id = compute_id(); }

bool Block::id_is_valid() const {
  // Verifier side: never trust the payload memo — an in-process tamper of
  // the batch must be caught. The honest receive path pays this once per
  // broadcast: the receivers of one envelope share its checked view
  // (core::CheckedProposal, streamlet::CheckedSProposal), which keeps the
  // verdict; later memo reads and the proposer-side seal reuse the
  // now-fresh memo.
  payload.refresh_records_digest();
  return id == compute_id();
}

Block Block::genesis() {
  Block genesis_block;
  genesis_block.round = 0;
  genesis_block.height = 0;
  genesis_block.proposer = kNoReplica;
  genesis_block.qc = QuorumCert{};  // round-0 QC with no votes
  genesis_block.seal();
  return genesis_block;
}

void Block::encode(Encoder& enc) const {
  enc.raw(id.bytes);
  enc.raw(parent_id.bytes);
  enc.u64(round);
  enc.u64(height);
  enc.u32(proposer);
  qc.encode(enc);
  payload.encode(enc);
  enc.raw(log_digest.bytes);
  enc.i64(created_at);
}

Block Block::decode(Decoder& dec) {
  Block block;
  Bytes raw = dec.raw(32);
  std::copy(raw.begin(), raw.end(), block.id.bytes.begin());
  raw = dec.raw(32);
  std::copy(raw.begin(), raw.end(), block.parent_id.bytes.begin());
  block.round = dec.u64();
  block.height = dec.u64();
  block.proposer = dec.u32();
  block.qc = QuorumCert::decode(dec);
  block.payload = Payload::decode(dec);
  raw = dec.raw(32);
  std::copy(raw.begin(), raw.end(), block.log_digest.bytes.begin());
  block.created_at = dec.i64();
  return block;
}

}  // namespace sftbft::types
