// Client transactions and block payloads.
//
// The paper's workload batches ~100 transactions (~450 KB) per block. The
// simulator tracks per-transaction identity and submission time (for
// throughput / latency accounting) and keeps bodies *synthetic*: on the
// wire each transaction is its record followed by `size_bytes` of body
// bytes derived deterministically from the id, so encoded frames really
// are block-sized — the transport charges exactly what it encodes — while
// decoded blocks stay compact in memory. Encoders hold bodies as runs
// (Encoder::synthetic), expanded only into frames and other full-byte
// consumers (Encoder::data); decoders skip them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sftbft/common/codec.hpp"
#include "sftbft/common/types.hpp"
#include "sftbft/crypto/sha256.hpp"

namespace sftbft::types {

struct Transaction {
  std::uint64_t id = 0;
  SimTime submitted_at = 0;
  /// Body size in bytes; the wire encoding carries this many synthetic
  /// body bytes (derived from `id`, see Encoder::synthetic) after the
  /// record.
  std::uint32_t size_bytes = 0;

  /// Record bytes per transaction on the wire (id + submitted_at +
  /// size_bytes), before the body.
  static constexpr std::size_t kRecordBytes = 8 + 8 + 4;

  /// Record only (no body) — the digest-input form.
  void encode(Encoder& enc) const;
  static Transaction decode(Decoder& dec);

  friend bool operator==(const Transaction&, const Transaction&) = default;
};

/// The ordered batch of transactions inside one block — either carried
/// inline (the classic mode: full transaction records + synthetic bodies on
/// the wire) or referenced by content digest (dissemination mode: the block
/// names batches already pushed through sftbft::dissem, so proposals shrink
/// from ~450 KB to a handful of 32-byte digests).
struct Payload {
  enum class Mode : std::uint8_t { kInline = 0, kDigests = 1 };

  Mode mode = Mode::kInline;
  /// Inline mode: the transactions themselves.
  std::vector<Transaction> txns;
  /// Digest mode: content addresses of dissem::Batch objects, in order.
  std::vector<crypto::Sha256Digest> batch_digests;

  [[nodiscard]] bool is_digests() const { return mode == Mode::kDigests; }

  /// Builds a digest-mode payload referencing `digests`, in order.
  static Payload referencing(std::vector<crypto::Sha256Digest> digests);

  /// Canonical wire encoding: a one-byte mode tag, then either the inline
  /// form (count, then per transaction the record followed by its
  /// synthetic body, as an Encoder run) or the digest form (count + 32-byte
  /// batch digests). decode() skips inline bodies (they are a pure function
  /// of the record) and re-encoding a decoded payload is byte-identical.
  void encode(Encoder& enc) const;
  static Payload decode(Decoder& dec);

  /// Digest input form (no bodies): mode tag + per-txn records in inline
  /// mode, mode tag + batch digests in digest mode. Bodies are derived from
  /// the records, so binding the records binds the full wire bytes while
  /// keeping header hashing O(txns) instead of O(block bytes); in digest
  /// mode the batch digests themselves are content addresses, so binding
  /// them binds every referenced transaction.
  void encode_records(Encoder& enc) const;

  /// Digest of the record encoding — the quantity Block::compute_id binds.
  /// Memoized per object and preserved across copies. Producers (sealing a
  /// block whose payload they built) trust the memo — re-sealing an edited
  /// header, or an equivocation twin sharing the payload, skips the
  /// re-encode; verifiers (Block::id_is_valid) always refresh first so a
  /// tampered batch can never hide behind a stale digest.
  [[nodiscard]] crypto::Sha256Digest records_digest() const;

  /// Recomputes the memo unconditionally (the seal-time refresh point).
  void refresh_records_digest() const;

  /// Semantic equality (the digest memo is identity-irrelevant).
  friend bool operator==(const Payload& a, const Payload& b) {
    return a.mode == b.mode && a.txns == b.txns &&
           a.batch_digests == b.batch_digests;
  }

 private:
  mutable std::shared_ptr<const crypto::Sha256Digest> records_memo_;
};

}  // namespace sftbft::types
