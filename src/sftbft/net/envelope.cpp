#include "sftbft/net/envelope.hpp"

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
    case WireType::kSSyncRequest:
    case WireType::kSSyncResponse:
    case WireType::kHProposal:
    case WireType::kHVote:
    case WireType::kHTimeout:
    case WireType::kHSyncRequest:
    case WireType::kHSyncResponse:
    case WireType::kBatchPush:
    case WireType::kBatchRequest:
    case WireType::kBatchResponse:
      return true;
  }
  return false;
}

const char* wire_type_name(WireType type) {
  switch (type) {
    case WireType::kProposal:
    case WireType::kSProposal:
    case WireType::kHProposal:
      return "proposal";
    case WireType::kVote:
    case WireType::kSVote:
    case WireType::kHVote:
      return "vote";
    case WireType::kTimeout:
    case WireType::kHTimeout:
      return "timeout";
    case WireType::kSyncRequest:
    case WireType::kSSyncRequest:
    case WireType::kHSyncRequest:
      return "sync_req";
    case WireType::kSyncResponse:
    case WireType::kSSyncResponse:
    case WireType::kHSyncResponse:
      return "sync_resp";
    case WireType::kBatchPush:
      return "batch_push";
    case WireType::kBatchRequest:
      return "batch_req";
    case WireType::kBatchResponse:
      return "batch_resp";
  }
  return "unknown";
}

Bytes Envelope::encode() const {
  Encoder enc;
  enc.reserve(encoded_size());
  enc.u8(static_cast<std::uint8_t>(type));
  enc.u32(sender);
  enc.bytes(BytesView(payload));
  enc.u32(crc32(BytesView(enc.data())));
  return enc.take();
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
