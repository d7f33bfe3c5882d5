#include "sftbft/types/transaction.hpp"

#include <algorithm>

namespace sftbft::types {

void Transaction::encode(Encoder& enc) const {
  enc.u64(id);
  enc.i64(submitted_at);
  enc.u32(size_bytes);
}

Transaction Transaction::decode(Decoder& dec) {
  Transaction txn;
  txn.id = dec.u64();
  txn.submitted_at = dec.i64();
  txn.size_bytes = dec.u32();
  return txn;
}

Payload Payload::referencing(std::vector<crypto::Sha256Digest> digests) {
  Payload payload;
  payload.mode = Mode::kDigests;
  payload.batch_digests = std::move(digests);
  return payload;
}

void Payload::encode(Encoder& enc) const {
  if (mode == Mode::kDigests) {
    enc.reserve(1 + 4 + batch_digests.size() * 32);
    enc.u8(static_cast<std::uint8_t>(mode));
    enc.u32(static_cast<std::uint32_t>(batch_digests.size()));
    for (const crypto::Sha256Digest& digest : batch_digests) {
      enc.raw(digest.bytes);
    }
    return;
  }
  enc.reserve(1 + 4 + txns.size() * Transaction::kRecordBytes);
  enc.u8(static_cast<std::uint8_t>(mode));
  enc.u32(static_cast<std::uint32_t>(txns.size()));
  for (const Transaction& txn : txns) {
    txn.encode(enc);
    enc.synthetic(txn.id, txn.size_bytes);
  }
}

Payload Payload::decode(Decoder& dec) {
  Payload payload;
  const std::uint8_t mode = dec.u8();
  if (mode > static_cast<std::uint8_t>(Mode::kDigests)) {
    throw CodecError("Payload: unknown mode tag");
  }
  payload.mode = static_cast<Mode>(mode);
  if (payload.mode == Mode::kDigests) {
    const std::uint32_t count = dec.count(32);
    payload.batch_digests.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      crypto::Sha256Digest digest;
      const Bytes raw = dec.raw(32);
      std::copy(raw.begin(), raw.end(), digest.bytes.begin());
      payload.batch_digests.push_back(digest);
    }
    return payload;
  }
  const std::uint32_t count = dec.count(Transaction::kRecordBytes);
  payload.txns.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Transaction txn = Transaction::decode(dec);
    // The body is derived from the record; integrity of the raw bytes is
    // the Envelope CRC's job, so skip instead of materializing ~450 KB.
    dec.skip(txn.size_bytes);
    payload.txns.push_back(txn);
  }
  return payload;
}

void Payload::encode_records(Encoder& enc) const {
  enc.u8(static_cast<std::uint8_t>(mode));
  if (mode == Mode::kDigests) {
    enc.u32(static_cast<std::uint32_t>(batch_digests.size()));
    for (const crypto::Sha256Digest& digest : batch_digests) {
      enc.raw(digest.bytes);
    }
    return;
  }
  enc.u32(static_cast<std::uint32_t>(txns.size()));
  for (const Transaction& txn : txns) txn.encode(enc);
}

crypto::Sha256Digest Payload::records_digest() const {
  if (records_memo_) return *records_memo_;
  refresh_records_digest();
  return *records_memo_;
}

void Payload::refresh_records_digest() const {
  Encoder enc;
  enc.reserve(1 + 4 + txns.size() * Transaction::kRecordBytes +
              batch_digests.size() * 32);
  encode_records(enc);
  records_memo_ = std::make_shared<const crypto::Sha256Digest>(
      crypto::Sha256::hash(enc.data()));
}

}  // namespace sftbft::types
