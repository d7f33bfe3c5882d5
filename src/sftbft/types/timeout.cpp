#include "sftbft/types/timeout.hpp"

#include <algorithm>

#include "sftbft/crypto/signature.hpp"
#include "sftbft/crypto/verify_cache.hpp"

namespace sftbft::types {

Bytes TimeoutMsg::signing_bytes() const {
  return signing_bytes_for(round, sender, high_qc.round);
}

Bytes TimeoutMsg::signing_bytes_for(Round round, ReplicaId sender,
                                    Round high_qc_round) {
  Encoder enc;
  enc.str("sftbft/timeout");
  enc.u64(round);
  enc.u32(sender);
  enc.u64(high_qc_round);
  return enc.take();
}

void TimeoutMsg::encode(Encoder& enc) const {
  enc.u64(round);
  enc.u32(sender);
  high_qc.encode(enc);
  sig.encode(enc);
}

TimeoutMsg TimeoutMsg::decode(Decoder& dec) {
  TimeoutMsg msg;
  msg.round = dec.u64();
  msg.sender = dec.u32();
  msg.high_qc = QuorumCert::decode(dec);
  msg.sig = crypto::Signature::decode(dec);
  return msg;
}

bool TimeoutCert::add_timeout(const TimeoutMsg& msg) {
  if (!agg.fold(msg.sig)) return false;
  hqc_rounds.push_back(msg.high_qc.round);
  if (hqc_rounds.size() == 1 ||
      ranks_higher(msg.high_qc, high_qc)) {
    high_qc = msg.high_qc;
  }
  return true;
}

bool TimeoutCert::verify(const crypto::KeyRegistry& registry,
                         std::size_t quorum,
                         crypto::VerifyCache* cache) const {
  Work work;
  return verify(registry, quorum, cache, work);
}

bool TimeoutCert::verify(const crypto::KeyRegistry& registry,
                         std::size_t quorum, crypto::VerifyCache* cache,
                         Work& work) const {
  if (hqc_rounds.size() < quorum) return false;
  const std::vector<ReplicaId> senders = agg.signers.ids();
  if (senders.size() != hqc_rounds.size()) return false;
  // The representative QC must be exactly the members' max: a lower one
  // would let a Byzantine leader hide the quorum's progress.
  const Round max_round =
      *std::max_element(hqc_rounds.begin(), hqc_rounds.end());
  if (high_qc.round != max_round) return false;
  CertWork& own = work.cert;
  own.bind(registry);
  if (cache != nullptr) {
    if (!own.memo_key) {
      Encoder enc;
      enc.str("sftbft/tc-verified");
      encode(enc);
      own.memo_key = crypto::Sha256::hash(enc.data());
    }
    if (cache->seen_cert(*own.memo_key)) return true;
  }
  if (!own.aggregate_ok) {
    own.aggregate_ok = registry.verify_aggregate(
        agg, [this, &senders](ReplicaId sender) {
          const std::size_t i = static_cast<std::size_t>(
              std::lower_bound(senders.begin(), senders.end(), sender) -
              senders.begin());
          return TimeoutMsg::signing_bytes_for(round, sender, hqc_rounds[i]);
        });
  }
  const bool ok = *own.aggregate_ok &&
                  high_qc.verify(registry, quorum, cache, work.high_qc);
  if (ok && cache != nullptr) cache->note_cert(*own.memo_key);
  return ok;
}

void TimeoutCert::encode(Encoder& enc) const {
  enc.u64(round);
  high_qc.encode(enc);
  enc.u32(static_cast<std::uint32_t>(hqc_rounds.size()));
  for (const Round r : hqc_rounds) enc.u64(r);
  agg.encode(enc);
}

TimeoutCert TimeoutCert::decode(Decoder& dec) {
  TimeoutCert tc;
  tc.round = dec.u64();
  tc.high_qc = QuorumCert::decode(dec);
  const std::uint32_t count = dec.count(8);
  tc.hqc_rounds.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    tc.hqc_rounds.push_back(dec.u64());
  }
  tc.agg = crypto::AggregateSignature::decode(dec);
  if (tc.agg.signers.popcount() != tc.hqc_rounds.size()) {
    throw CodecError("TimeoutCert: round count does not match signer bitmap");
  }
  return tc;
}

}  // namespace sftbft::types
