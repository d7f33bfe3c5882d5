#include "sftbft/storage/wal.hpp"

#include "sftbft/common/codec.hpp"
#include "sftbft/common/crc32.hpp"

namespace sftbft::storage {

namespace {

constexpr std::size_t kHeaderBytes = 8;  // u32 length + u32 crc

}  // namespace

Bytes Wal::frame(BytesView record) {
  Encoder enc;
  enc.u32(static_cast<std::uint32_t>(record.size()));
  enc.u32(crc32(record));
  enc.raw(record);
  return enc.take();
}

void Wal::append(BytesView record) {
  backend_->append(name_, frame(record));
}

void Wal::sync() { backend_->sync(name_); }

Wal::ReplayResult Wal::replay() const {
  ReplayResult result;
  const Bytes log = backend_->read(name_);
  std::size_t pos = 0;
  while (pos < log.size()) {
    if (log.size() - pos < kHeaderBytes) {
      result.torn_tail = true;  // header itself is torn
      break;
    }
    Decoder dec(BytesView(log.data() + pos, kHeaderBytes));
    const std::uint32_t length = dec.u32();
    const std::uint32_t expected_crc = dec.u32();
    if (log.size() - pos - kHeaderBytes < length) {
      result.torn_tail = true;  // payload is torn
      break;
    }
    const BytesView payload(log.data() + pos + kHeaderBytes, length);
    if (crc32(payload) != expected_crc) {
      // A bad CRC on a *complete* frame is corruption, not a tear. Nothing
      // after it can be trusted (framing may be desynchronized) — stop.
      result.corrupt = true;
      break;
    }
    result.records.emplace_back(payload.begin(), payload.end());
    pos += kHeaderBytes + length;
    result.valid_bytes = pos;
  }
  return result;
}

void Wal::repair_tail(const ReplayResult& result) {
  backend_->truncate(name_, result.valid_bytes);
  backend_->sync(name_);
}

void Wal::reset(const std::vector<Bytes>& records) {
  Bytes image;
  for (const Bytes& record : records) {
    const Bytes framed = frame(record);
    image.insert(image.end(), framed.begin(), framed.end());
  }
  backend_->write_atomic(name_, image);
  backend_->sync(name_);
}

}  // namespace sftbft::storage
