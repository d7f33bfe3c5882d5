#include "sftbft/types/proposal.hpp"

#include "sftbft/crypto/sha256.hpp"

namespace sftbft::types {

crypto::Sha256Digest commit_log_digest(
    const std::vector<CommitLogEntry>& log) {
  if (log.empty()) return {};  // log-less blocks keep a zero digest
  Encoder enc;
  enc.str("sftbft/commit-log");
  enc.u32(static_cast<std::uint32_t>(log.size()));
  for (const CommitLogEntry& entry : log) entry.encode(enc);
  return crypto::Sha256::hash(enc.data());
}

void CommitLogEntry::encode(Encoder& enc) const {
  enc.raw(block_id.bytes);
  enc.u64(round);
  enc.u32(strength);
}

CommitLogEntry CommitLogEntry::decode(Decoder& dec) {
  CommitLogEntry entry;
  const Bytes raw = dec.raw(32);
  std::copy(raw.begin(), raw.end(), entry.block_id.bytes.begin());
  entry.round = dec.u64();
  entry.strength = dec.u32();
  return entry;
}

Bytes Proposal::signing_bytes() const {
  Encoder enc;
  enc.str("sftbft/proposal");
  enc.raw(block.id.bytes);
  enc.u64(block.round);
  // The commit log is covered by the signature so a light client can trust
  // a certified proposal's log entries (Sec. 5).
  enc.u32(static_cast<std::uint32_t>(commit_log.size()));
  for (const CommitLogEntry& entry : commit_log) entry.encode(enc);
  return enc.take();
}

void Proposal::encode(Encoder& enc) const {
  block.encode(enc);
  enc.boolean(tc.has_value());
  if (tc) tc->encode(enc);
  enc.u32(static_cast<std::uint32_t>(commit_log.size()));
  for (const CommitLogEntry& entry : commit_log) entry.encode(enc);
  sig.encode(enc);
}

Proposal Proposal::decode(Decoder& dec) {
  Proposal proposal;
  proposal.block = Block::decode(dec);
  if (dec.boolean()) proposal.tc = TimeoutCert::decode(dec);
  const std::uint32_t count = dec.count(CommitLogEntry::kEncodedBytes);
  proposal.commit_log.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    proposal.commit_log.push_back(CommitLogEntry::decode(dec));
  }
  proposal.sig = crypto::Signature::decode(dec);
  return proposal;
}

void SyncRequest::encode(Encoder& enc) const {
  enc.u32(requester);
  enc.u64(from_height);
}

SyncRequest SyncRequest::decode(Decoder& dec) {
  SyncRequest req;
  req.requester = dec.u32();
  req.from_height = dec.u64();
  return req;
}

void SyncResponse::encode(Encoder& enc) const {
  enc.u32(static_cast<std::uint32_t>(blocks.size()));
  for (const Block& block : blocks) block.encode(enc);
  high_qc.encode(enc);
}

SyncResponse SyncResponse::decode(Decoder& dec) {
  SyncResponse resp;
  const std::uint32_t count = dec.count(Block::kMinEncodedBytes);
  resp.blocks.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    resp.blocks.push_back(Block::decode(dec));
  }
  resp.high_qc = QuorumCert::decode(dec);
  return resp;
}

}  // namespace sftbft::types
