#include "sftbft/net/envelope.hpp"

#include <limits>

#include "sftbft/common/crc32.hpp"

namespace sftbft::net {

bool wire_type_known(std::uint8_t tag) {
  switch (static_cast<WireType>(tag)) {
    case WireType::kProposal:
    case WireType::kVote:
    case WireType::kTimeout:
    case WireType::kSyncRequest:
    case WireType::kSyncResponse:
    case WireType::kSProposal:
    case WireType::kSVote:
    case WireType::kSSyncResponse:
    case WireType::kBatchPush:
    case WireType::kBatchRequest:
    case WireType::kBatchResponse:
      return true;
  }
  return false;
}

WireLabel wire_label(WireType type) {
  switch (type) {
    case WireType::kProposal:
    case WireType::kSProposal:
      return WireLabel::kProposal;
    case WireType::kVote:
    case WireType::kSVote:
      return WireLabel::kVote;
    case WireType::kTimeout:
      return WireLabel::kTimeout;
    case WireType::kSyncRequest:
      return WireLabel::kSyncReq;
    case WireType::kSyncResponse:
    case WireType::kSSyncResponse:
      return WireLabel::kSyncResp;
    case WireType::kBatchPush:
      return WireLabel::kBatchPush;
    case WireType::kBatchRequest:
      return WireLabel::kBatchReq;
    case WireType::kBatchResponse:
      return WireLabel::kBatchResp;
  }
  throw CodecError("Envelope: unknown wire type tag");
}

namespace {

/// Appends the payload's literal bytes with its bodies as runs, in wire
/// order.
void append_payload(Encoder& enc, const Envelope& env) {
  std::size_t literal = 0;
  std::uint64_t body_bytes = 0;
  for (const BodyRun& run : env.bodies) {
    if (run.offset < body_bytes + literal ||
        run.offset - body_bytes > env.payload.size()) {
      throw CodecError("Envelope: body run out of order");
    }
    const std::size_t upto = run.offset - body_bytes;
    enc.raw(BytesView(env.payload).subspan(literal, upto - literal));
    enc.synthetic(run.id, run.size);
    literal = upto;
    body_bytes += run.size;
  }
  enc.raw(BytesView(env.payload).subspan(literal));
}

/// The payload's wire bytes, bodies expanded.
Bytes wire_payload(const Envelope& env) {
  Encoder enc;
  enc.reserve(env.payload.size());
  append_payload(enc, env);
  return enc.take();
}

}  // namespace

std::size_t Envelope::encoded_size() const {
  std::size_t size = kOverhead + payload.size();
  for (const BodyRun& run : bodies) size += run.size;
  return size;
}

Bytes Envelope::encode() const {
  const std::size_t size = encoded_size() - kOverhead;
  if (size > std::numeric_limits<std::uint32_t>::max()) {
    throw CodecError("Envelope: payload too large");
  }
  Encoder enc;
  enc.reserve(kOverhead + payload.size());
  enc.u8(static_cast<std::uint8_t>(type));
  enc.u32(sender);
  enc.u32(static_cast<std::uint32_t>(size));
  append_payload(enc, *this);
  enc.u32(crc32(BytesView(enc.data())));
  return enc.take();
}

bool operator==(const Envelope& a, const Envelope& b) {
  if (a.type != b.type || a.sender != b.sender) return false;
  // Identical runs sit at identical offsets, so the literal bytes decide.
  if (a.bodies == b.bodies) return a.payload == b.payload;
  return wire_payload(a) == wire_payload(b);
}

Envelope Envelope::decode(BytesView frame) {
  if (frame.size() < kOverhead) {
    throw CodecError("Envelope: truncated frame");
  }
  Decoder dec(frame);
  Envelope env;
  const std::uint8_t tag = dec.u8();
  if (!wire_type_known(tag)) {
    throw CodecError("Envelope: unknown wire type tag");
  }
  env.type = static_cast<WireType>(tag);
  env.sender = dec.u32();
  env.payload = dec.bytes();
  const std::uint32_t expected = dec.u32();
  if (!dec.exhausted()) {
    throw CodecError("Envelope: trailing bytes after frame");
  }
  if (crc32(frame.subspan(0, frame.size() - 4)) != expected) {
    throw CodecError("Envelope: CRC mismatch");
  }
  return env;
}

}  // namespace sftbft::net
