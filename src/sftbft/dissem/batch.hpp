// Content-addressed transaction batches — the dissemination data plane's
// unit of transfer (the Narwhal/Tusk decoupling, scaled to this simulator).
//
// Every replica continuously packs its own mempool into batches and pushes
// them to peers OFF the consensus critical path. Consensus then orders
// 32-byte batch digests instead of ~450 KB of transaction bodies: the
// leader's proposal shrinks to a digest list, and leader egress stops being
// O(n · block). A batch's digest is the SHA-256 of its canonical records
// (creator, sequence number, transaction records), so a digest in a
// committed block binds the exact transactions regardless of which peer the
// bytes were fetched from.
//
// Three messages make up the 0x4x wire registry (net::WireType):
//   BatchPush     -- creator -> all: proactive dissemination
//   BatchRequest  -- puller -> peer: digests the puller is missing
//   BatchResponse -- peer -> puller: the batches it can serve
// Like every other message in the repo they have canonical Encoder/Decoder
// codecs and travel inside net::Envelope — encoded_size() IS the wire cost.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sftbft/common/codec.hpp"
#include "sftbft/common/types.hpp"
#include "sftbft/crypto/sha256.hpp"
#include "sftbft/net/envelope.hpp"
#include "sftbft/types/transaction.hpp"

namespace sftbft::dissem {

struct Batch {
  crypto::Sha256Digest digest{};  ///< derived: content address (see seal)
  ReplicaId creator = kNoReplica;
  /// Creator-local sequence number (creator + seq is unique per batch even
  /// when two batches happen to carry identical transaction lists).
  std::uint64_t seq = 0;
  std::vector<types::Transaction> txns;

  /// Recomputes `digest` from creator, seq, and the transaction records.
  void seal();

  /// True iff `digest` matches the current contents — receivers validate
  /// every batch before storing it, so a peer cannot serve tampered bytes
  /// under an honest digest.
  [[nodiscard]] bool digest_is_valid() const;

  /// Canonical wire encoding: digest, creator, seq, count, then per
  /// transaction the record followed by its synthetic body (an Encoder
  /// run, skipped on decode, as in types::Payload).
  void encode(Encoder& enc) const;
  static Batch decode(Decoder& dec);

  /// Minimum encoded size (empty batch): bounds untrusted batch counts
  /// while decoding BatchResponse.
  static constexpr std::size_t kMinEncodedBytes = 32 + 4 + 8 + 4;

  friend bool operator==(const Batch& a, const Batch& b) {
    return a.digest == b.digest && a.creator == b.creator && a.seq == b.seq &&
           a.txns == b.txns;
  }
};

/// Proactive dissemination: the creator broadcasts each freshly packed
/// batch to all peers.
struct BatchPush {
  Batch batch;

  void encode(Encoder& enc) const;
  static BatchPush decode(Decoder& dec);

  friend bool operator==(const BatchPush&, const BatchPush&) = default;
};

/// A BatchPush decoded from one envelope, with its digest verdict. Built
/// once per envelope object and immutable after: the clean recipients of a
/// broadcast push share one envelope, so they share one decode, one digest
/// check and one stored Batch (BatchStore keeps the pointer). The verdict
/// lives here, never on Batch (whose digest_is_valid() always recomputes),
/// so it can only describe the bytes it was computed from.
struct CheckedPush {
  std::shared_ptr<const Batch> batch;
  bool digest_valid = false;

  /// The checked push of `env` (a kBatchPush envelope), decoded and hashed
  /// on first use (net::Envelope::derived). Throws CodecError on a
  /// malformed payload.
  static const CheckedPush& of(const net::Envelope& env);
};

/// Pull: digests the requester saw referenced (in a proposal or a committed
/// block) but never received the bytes for.
struct BatchRequest {
  ReplicaId requester = kNoReplica;
  std::vector<crypto::Sha256Digest> digests;

  void encode(Encoder& enc) const;
  static BatchRequest decode(Decoder& dec);

  friend bool operator==(const BatchRequest&, const BatchRequest&) = default;
};

/// Pull response: whichever requested batches the responder holds (missing
/// ones are simply absent — the puller's rotating-window retry asks someone
/// else).
struct BatchResponse {
  std::vector<Batch> batches;

  void encode(Encoder& enc) const;
  static BatchResponse decode(Decoder& dec);

  friend bool operator==(const BatchResponse&, const BatchResponse&) = default;
};

}  // namespace sftbft::dissem
