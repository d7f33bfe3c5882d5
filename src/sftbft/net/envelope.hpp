// The one wire frame every protocol message travels in.
//
// Every engine serializes each message to canonical bytes via the shared
// Encoder/Decoder and ships it inside an Envelope:
//
//     u8  type      -- WireType tag (registry below)
//     u32 sender    -- sending replica (unauthenticated; signatures inside
//                      the payload are what receivers trust)
//     u32 length    -- payload byte count
//     ..  payload   -- the message's canonical encoding
//     u32 crc32     -- over everything above (IEEE 802.3, shared with the
//                      storage WAL's framing)
//
// `encoded_size()` is the message's exact wire size: every byte a link is
// charged, every stats line and every bandwidth delay takes it, and it is
// pinned equal to `encode().size()` for every tag (wire_test). There is no
// second, hand-estimated notion of wire size anywhere. The frame bytes
// themselves are built only where someone reads them: on a link a
// CorruptSpec corrupts, whose receiver must reject the flipped bits at the
// CRC (CodecError), and in a future socket backend that streams frames
// verbatim. A clean simulated link delivers the sender's Envelope as is.
//
// A packed Envelope holds its payload in the codec's compact form: the
// literal bytes plus the runs of its synthetic transaction bodies
// (BodyRun), which make up nearly all of a ~1.1 MB BatchPush. The runs
// count in encoded_size(), are read by unpack() as bodies to skip, and are
// expanded into bytes only by encode(), i.e. only into an actual frame.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <utility>

#include "sftbft/common/bytes.hpp"
#include "sftbft/common/codec.hpp"
#include "sftbft/common/types.hpp"

namespace sftbft::net {

/// The wire-protocol type registry: one tag per payload codec. Tags are
/// part of the on-wire format — never renumber, only append; a retired tag
/// is never reused. 0x0x = the chained kernel's messages, spoken by both
/// chained protocols (DiemBFT and HotStuff differ in one voting predicate,
/// not in any message), 0x1x = Streamlet's own codecs, 0x4x = the
/// dissemination data plane (sftbft::dissem), protocol-agnostic: every
/// engine speaks the same batch tags because payload distribution is
/// independent of the consensus rules ordering the digests. Retired:
/// 0x13 (Streamlet's sync request, now kSyncRequest) and 0x21-0x25 (a
/// HotStuff copy of the 0x0x tags).
enum class WireType : std::uint8_t {
  kProposal = 0x01,      ///< types::Proposal
  kVote = 0x02,          ///< types::Vote (regular and FBFT extra votes)
  kTimeout = 0x03,       ///< types::TimeoutMsg
  kSyncRequest = 0x04,   ///< types::SyncRequest (all engines)
  kSyncResponse = 0x05,  ///< types::SyncResponse
  kSProposal = 0x11,     ///< streamlet::SProposal
  kSVote = 0x12,         ///< streamlet::SVote
  kSSyncResponse = 0x14, ///< streamlet::SSyncResponse
  kBatchPush = 0x41,     ///< dissem::BatchPush (all engines)
  kBatchRequest = 0x42,  ///< dissem::BatchRequest (all engines)
  kBatchResponse = 0x43, ///< dissem::BatchResponse (all engines)
};

/// True iff `tag` names a registered wire type.
[[nodiscard]] bool wire_type_known(std::uint8_t tag);

/// The closed vocabulary a frame is counted under in MessageStats and the
/// Observer's wire delays: every stack's tags share the kernel's labels, so
/// cross-protocol sweeps compare; FBFT extra votes and Streamlet echoes
/// name their own. Declared in ascending order of name, so enum order is
/// the order std::map<std::string> renders them in.
enum class WireLabel : std::uint8_t {
  kBatchPush, kBatchReq, kBatchResp, kEcho, kExtraVote,
  kProposal, kSyncReq, kSyncResp, kTimeout, kVote
};
inline constexpr std::size_t kWireLabelCount = 10;

/// Each label's name, rendered only into artifacts and trace events.
inline constexpr std::array<const char*, kWireLabelCount> kWireLabelNames = {
    "batch_push", "batch_req", "batch_resp", "echo",    "extra_vote",
    "proposal",   "sync_req",  "sync_resp",  "timeout", "vote"};

[[nodiscard]] constexpr const char* wire_label_name(WireLabel label) {
  return kWireLabelNames[static_cast<std::size_t>(label)];
}

/// The label a frame of `type` is counted under unless its sender names one.
[[nodiscard]] WireLabel wire_label(WireType type);

struct Envelope {
  WireType type{};
  ReplicaId sender = kNoReplica;
  /// The payload's literal bytes: all of it, unless `bodies` holds runs.
  Bytes payload;
  /// Synthetic bodies of the payload, offsets relative to its start.
  BodyRuns bodies;

  Envelope() = default;
  Envelope(WireType type, ReplicaId sender, Bytes payload,
           BodyRuns bodies = {})
      : type(type),
        sender(sender),
        payload(std::move(payload)),
        bodies(std::move(bodies)) {}

  /// Frame overhead around a payload of any size (type + sender + length +
  /// crc): the exact constant, not an estimate.
  static constexpr std::size_t kOverhead = 1 + 4 + 4 + 4;

  /// The message's wire size, without building the frame: always equal to
  /// `encode().size()`.
  [[nodiscard]] std::size_t encoded_size() const;

  /// Canonical frame bytes (framing plus a CRC over the whole frame).
  [[nodiscard]] Bytes encode() const;

  /// Parses and validates a frame: known tag, intact length, matching CRC,
  /// no trailing bytes. Throws CodecError otherwise — the transport counts
  /// such frames as corrupt drops and never delivers them. The decoded
  /// payload is all literal bytes.
  static Envelope decode(BytesView frame);

  /// Wraps a message's canonical encoding, in compact form. M must expose
  /// `void encode(Encoder&) const`.
  template <typename M>
  static Envelope pack(WireType type, ReplicaId sender, const M& msg) {
    Encoder enc;
    msg.encode(enc);
    CompactBytes compact = enc.take_compact();
    return Envelope{type, sender, std::move(compact.literal),
                    std::move(compact.runs)};
  }

  /// Decodes the payload as message type M (which must expose
  /// `static M decode(Decoder&)`). Throws CodecError on malformed payloads
  /// or trailing bytes; callers on the receive path catch and drop.
  template <typename M>
  [[nodiscard]] M unpack() const {
    Decoder dec{BytesView(payload.data(), payload.size()), bodies};
    M msg = M::decode(dec);
    if (!dec.exhausted()) {
      throw CodecError("Envelope: trailing bytes after payload");
    }
    return msg;
  }

  /// Returns `derive(*this)`, computed at most once per Envelope object.
  /// The transport hands every clean recipient of a broadcast the same
  /// immutable Envelope, so a view derived from its payload (a decoded and
  /// checked message) is shared instead of recomputed per receiver: the
  /// views are dissem::CheckedPush, core::CheckedProposal,
  /// core::CheckedTimeout, streamlet::CheckedSProposal and
  /// streamlet::CheckedSVote. A view may memoize only what follows from the
  /// bytes (and the deployment-wide KeyRegistry), never a receiver's state. A
  /// derive that throws caches nothing. The memo holds one view type at a
  /// time and starts empty in every copy, move or assignment, so it only
  /// ever describes the bytes it was computed from; the payload must not
  /// change after the first call. Not synchronized: an envelope object
  /// belongs to one simulation thread.
  template <typename T, typename Derive>
  [[nodiscard]] const T& derived(Derive&& derive) const {
    if (memo_.key != &kMemoKey<T>) {
      memo_.value = std::make_shared<const T>(derive(*this));
      memo_.key = &kMemoKey<T>;
    }
    return *static_cast<const T*>(memo_.value.get());
  }

  /// Equal wire bytes: a packed envelope equals its decoded frame. The
  /// memo takes no part in equality.
  friend bool operator==(const Envelope& a, const Envelope& b);

 private:
  template <typename T>
  static constexpr char kMemoKey = 0;

  struct Memo {
    Memo() = default;
    Memo(const Memo&) noexcept {}
    Memo& operator=(const Memo&) noexcept {
      key = nullptr;
      value.reset();
      return *this;
    }

    const char* key = nullptr;
    std::shared_ptr<const void> value;
  };
  mutable Memo memo_;
};

}  // namespace sftbft::net
