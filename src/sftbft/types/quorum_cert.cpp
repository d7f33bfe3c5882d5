#include "sftbft/types/quorum_cert.hpp"

#include <algorithm>

#include "sftbft/crypto/signature.hpp"
#include "sftbft/crypto/verify_cache.hpp"

namespace sftbft::types {

bool QuorumCert::add_vote(const Vote& vote) {
  if (!agg.fold(vote.sig)) return false;
  votes.push_back({vote.voter, vote.meta()});
  digest_memo_.reset();
  return true;
}

void QuorumCert::canonicalize() {
  std::sort(votes.begin(), votes.end(),
            [](const QcVote& a, const QcVote& b) { return a.voter < b.voter; });
  digest_memo_.reset();  // content may have changed; recompute lazily
}

bool QuorumCert::verify(const crypto::KeyRegistry& registry,
                        std::size_t quorum,
                        crypto::VerifyCache* cache) const {
  CertWork work;
  return verify(registry, quorum, cache, work);
}

bool QuorumCert::verify(const crypto::KeyRegistry& registry,
                        std::size_t quorum, crypto::VerifyCache* cache,
                        CertWork& work) const {
  if (is_genesis()) return votes.empty() && agg.empty();
  if (votes.size() < quorum) return false;
  // Metas must align 1:1 with the signer bitmap, ascending — this is free
  // for decoded QCs (the wire layout forces it) and catches an in-memory
  // duplicate or unsorted assembly.
  const std::vector<ReplicaId> signers = agg.signers.ids();
  if (signers.size() != votes.size()) return false;
  for (std::size_t i = 0; i < votes.size(); ++i) {
    if (votes[i].voter != signers[i]) return false;
  }
  work.bind(registry);
  if (cache != nullptr) {
    if (!work.memo_key) {
      // Key the cert memo by the FULL canonical encoding (not digest(),
      // which deliberately omits interval sets): any tampered field must
      // miss.
      Encoder enc;
      enc.str("sftbft/qc-verified");
      encode(enc);
      work.memo_key = crypto::Sha256::hash(enc.data());
    }
    if (cache->seen_cert(*work.memo_key)) return true;
  }
  if (!work.aggregate_ok) {
    work.aggregate_ok = registry.verify_aggregate(
        agg,
        [this](ReplicaId voter) {
          const auto it = std::lower_bound(
              votes.begin(), votes.end(), voter,
              [](const QcVote& v, ReplicaId id) { return v.voter < id; });
          return Vote::signing_bytes_for(block_id, round, voter, it->meta);
        });
  }
  if (*work.aggregate_ok && cache != nullptr) cache->note_cert(*work.memo_key);
  return *work.aggregate_ok;
}

crypto::Sha256Digest QuorumCert::digest() const {
  if (digest_memo_) return *digest_memo_;
  // Identity digest: binds the certified block, the parent linkage, and the
  // voter set with per-vote markers. The votes' full contents (interval
  // sets, the aggregate tag) are attested by the signatures that verify()
  // refolds, so they do not need to be re-hashed here — this keeps the
  // digest O(votes) cheap (it is computed on every QC observation).
  Encoder enc;
  enc.str("sftbft/qc");
  enc.raw(block_id.bytes);
  enc.u64(round);
  enc.raw(parent_id.bytes);
  enc.u64(parent_round);
  enc.u32(static_cast<std::uint32_t>(votes.size()));
  for (const QcVote& vote : votes) {
    enc.u32(vote.voter);
    enc.u8(static_cast<std::uint8_t>(vote.meta.mode));
    enc.u64(vote.meta.marker);
  }
  digest_memo_ =
      std::make_shared<const crypto::Sha256Digest>(
          crypto::Sha256::hash(enc.data()));
  return *digest_memo_;
}

void QuorumCert::encode(Encoder& enc) const {
  enc.raw(block_id.bytes);
  enc.u64(round);
  enc.raw(parent_id.bytes);
  enc.u64(parent_round);
  // Metas ride in bitmap-bit order; voter ids are implicit in the bitmap.
  enc.u32(static_cast<std::uint32_t>(votes.size()));
  for (const QcVote& vote : votes) vote.meta.encode(enc);
  agg.encode(enc);
}

QuorumCert QuorumCert::decode(Decoder& dec) {
  QuorumCert qc;
  Bytes raw = dec.raw(32);
  std::copy(raw.begin(), raw.end(), qc.block_id.bytes.begin());
  qc.round = dec.u64();
  raw = dec.raw(32);
  std::copy(raw.begin(), raw.end(), qc.parent_id.bytes.begin());
  qc.parent_round = dec.u64();
  const std::uint32_t count = dec.count(VoteMeta::kMinEncodedBytes);
  std::vector<VoteMeta> metas;
  metas.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    metas.push_back(VoteMeta::decode(dec));
  }
  qc.agg = crypto::AggregateSignature::decode(dec);
  const std::vector<ReplicaId> signers = qc.agg.signers.ids();
  if (signers.size() != metas.size()) {
    throw CodecError("QuorumCert: meta count does not match signer bitmap");
  }
  qc.votes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    qc.votes.push_back({signers[i], std::move(metas[i])});
  }
  return qc;
}

bool ranks_higher(const QuorumCert& a, const QuorumCert& b) {
  return a.round > b.round;
}

}  // namespace sftbft::types
