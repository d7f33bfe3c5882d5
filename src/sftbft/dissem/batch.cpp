#include "sftbft/dissem/batch.hpp"

#include <algorithm>

namespace sftbft::dissem {

namespace {

/// The digest input: a domain separator plus the canonical records (no
/// bodies — they are a pure function of the records, so binding the records
/// binds the full wire bytes, exactly as Payload::records_digest does for
/// inline blocks).
crypto::Sha256Digest content_digest(const Batch& batch) {
  Encoder enc;
  enc.reserve(16 + 4 + 8 + 4 +
              batch.txns.size() * types::Transaction::kRecordBytes);
  enc.str("sftbft/batch");
  enc.u32(batch.creator);
  enc.u64(batch.seq);
  enc.u32(static_cast<std::uint32_t>(batch.txns.size()));
  for (const types::Transaction& txn : batch.txns) txn.encode(enc);
  return crypto::Sha256::hash(enc.data());
}

}  // namespace

void Batch::seal() { digest = content_digest(*this); }

bool Batch::digest_is_valid() const { return digest == content_digest(*this); }

void Batch::encode(Encoder& enc) const {
  enc.reserve(kMinEncodedBytes +
              txns.size() * types::Transaction::kRecordBytes);
  enc.raw(digest.bytes);
  enc.u32(creator);
  enc.u64(seq);
  enc.u32(static_cast<std::uint32_t>(txns.size()));
  for (const types::Transaction& txn : txns) {
    txn.encode(enc);
    enc.synthetic(txn.id, txn.size_bytes);
  }
}

Batch Batch::decode(Decoder& dec) {
  Batch batch;
  const Bytes raw = dec.raw(32);
  std::copy(raw.begin(), raw.end(), batch.digest.bytes.begin());
  batch.creator = dec.u32();
  batch.seq = dec.u64();
  const std::uint32_t count = dec.count(types::Transaction::kRecordBytes);
  batch.txns.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    types::Transaction txn = types::Transaction::decode(dec);
    // Bodies are derived from the record (Envelope CRC guards the raw
    // bytes): skip instead of materializing.
    dec.skip(txn.size_bytes);
    batch.txns.push_back(txn);
  }
  return batch;
}

void BatchPush::encode(Encoder& enc) const { batch.encode(enc); }

BatchPush BatchPush::decode(Decoder& dec) {
  return BatchPush{Batch::decode(dec)};
}

const CheckedPush& CheckedPush::of(const net::Envelope& env) {
  return env.derived<CheckedPush>([](const net::Envelope& e) {
    auto batch =
        std::make_shared<const Batch>(e.unpack<BatchPush>().batch);
    const bool valid = batch->digest_is_valid();
    return CheckedPush{std::move(batch), valid};
  });
}

void BatchRequest::encode(Encoder& enc) const {
  enc.reserve(4 + 4 + digests.size() * 32);
  enc.u32(requester);
  enc.u32(static_cast<std::uint32_t>(digests.size()));
  for (const crypto::Sha256Digest& digest : digests) enc.raw(digest.bytes);
}

BatchRequest BatchRequest::decode(Decoder& dec) {
  BatchRequest req;
  req.requester = dec.u32();
  const std::uint32_t count = dec.count(32);
  req.digests.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    crypto::Sha256Digest digest;
    const Bytes raw = dec.raw(32);
    std::copy(raw.begin(), raw.end(), digest.bytes.begin());
    req.digests.push_back(digest);
  }
  return req;
}

void BatchResponse::encode(Encoder& enc) const {
  enc.u32(static_cast<std::uint32_t>(batches.size()));
  for (const Batch& batch : batches) batch.encode(enc);
}

BatchResponse BatchResponse::decode(Decoder& dec) {
  BatchResponse resp;
  const std::uint32_t count = dec.count(Batch::kMinEncodedBytes);
  resp.batches.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    resp.batches.push_back(Batch::decode(dec));
  }
  return resp;
}

}  // namespace sftbft::dissem
