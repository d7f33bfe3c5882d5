#include "sftbft/common/codec.hpp"

#include <cstring>
#include <limits>

namespace sftbft {

namespace {

/// Writes the body of run `id` (its little-endian bytes repeated) into
/// `out[0, size)` by doubling memcpys: every copy source is 8-aligned in
/// the pattern, so no staging buffer is needed.
void write_body(std::uint8_t* out, std::uint64_t id, std::size_t size) {
  std::uint8_t pattern[8];
  for (int i = 0; i < 8; ++i) {
    pattern[i] = static_cast<std::uint8_t>(id >> (8 * i));
  }
  const std::size_t head = std::min<std::size_t>(8, size);
  std::memcpy(out, pattern, head);
  std::size_t filled = head;
  while (filled < size) {
    const std::size_t chunk = std::min(filled, size - filled);
    std::memcpy(out + filled, out, chunk);
    filled += chunk;
  }
}

}  // namespace

void Encoder::put_le(std::uint64_t v, int width) {
  std::uint8_t le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  buf_.insert(buf_.end(), le, le + width);
}

void Encoder::bytes(BytesView data) {
  if (data.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw CodecError("Encoder::bytes: buffer too large");
  }
  u32(static_cast<std::uint32_t>(data.size()));
  raw(data);
}

void Encoder::str(const std::string& s) {
  bytes(BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

void Encoder::raw(BytesView data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void Encoder::synthetic(std::uint64_t id, std::uint32_t size) {
  if (size == 0) return;
  runs_.push_back({.offset = this->size(), .id = id, .size = size});
  run_bytes_ += size;
}

void Encoder::expand() {
  if (runs_.empty()) return;
  // The caller's reservation covered the literal bytes; the bodies add
  // their own size on top.
  Bytes out;
  out.reserve(buf_.capacity() + run_bytes_);
  std::size_t literal = 0;  // next buf_ byte to copy
  for (const BodyRun& run : runs_) {
    const std::size_t upto = literal + (run.offset - out.size());
    out.insert(out.end(), buf_.begin() + static_cast<std::ptrdiff_t>(literal),
               buf_.begin() + static_cast<std::ptrdiff_t>(upto));
    literal = upto;
    out.resize(out.size() + run.size);
    write_body(out.data() + (out.size() - run.size), run.id, run.size);
  }
  out.insert(out.end(), buf_.begin() + static_cast<std::ptrdiff_t>(literal),
             buf_.end());
  buf_ = std::move(out);
  runs_.clear();
  run_bytes_ = 0;
}

Decoder::Decoder(BytesView data, std::span<const BodyRun> runs)
    : data_(data), runs_(runs) {
  for (const BodyRun& run : runs_) run_bytes_left_ += run.size;
  next_limit();
}

void Decoder::next_limit() {
  limit_ = data_.size();
  if (next_run_ == runs_.size()) return;
  // A run's literal position is its offset less the bodies before it.
  const std::uint64_t offset = runs_[next_run_].offset;
  limit_ = offset < run_bytes_done_
               ? 0
               : std::min<std::uint64_t>(limit_, offset - run_bytes_done_);
}

void Decoder::need(std::size_t count) const {
  if (pos_ + count > limit_) {
    throw CodecError(limit_ < data_.size()
                         ? "Decoder: read into a synthetic body"
                         : "Decoder: truncated input");
  }
}

std::uint64_t Decoder::get_le(int width) {
  need(static_cast<std::size_t>(width));
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += static_cast<std::size_t>(width);
  return v;
}

std::uint8_t Decoder::u8() { return static_cast<std::uint8_t>(get_le(1)); }
std::uint16_t Decoder::u16() { return static_cast<std::uint16_t>(get_le(2)); }
std::uint32_t Decoder::u32() { return static_cast<std::uint32_t>(get_le(4)); }
std::uint64_t Decoder::u64() { return get_le(8); }
std::int64_t Decoder::i64() { return static_cast<std::int64_t>(get_le(8)); }

bool Decoder::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) throw CodecError("Decoder::boolean: invalid value");
  return v == 1;
}

Bytes Decoder::bytes() {
  const std::uint32_t len = u32();
  return raw(len);
}

std::string Decoder::str() {
  const Bytes b = bytes();
  return {b.begin(), b.end()};
}

Bytes Decoder::raw(std::size_t size) {
  need(size);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + size));
  pos_ += size;
  return out;
}

void Decoder::skip(std::size_t size) {
  if (size == 0) return;
  if (next_run_ < runs_.size() &&
      pos_ + run_bytes_done_ == runs_[next_run_].offset) {
    const BodyRun& run = runs_[next_run_];
    if (run.size != size) {
      throw CodecError("Decoder: skip does not match the synthetic body");
    }
    run_bytes_done_ += size;
    run_bytes_left_ -= size;
    ++next_run_;
    next_limit();
    return;
  }
  need(size);
  pos_ += size;
}

std::uint32_t Decoder::count(std::size_t min_element_bytes) {
  const std::uint32_t c = u32();
  if (min_element_bytes > 0 &&
      static_cast<std::uint64_t>(c) * min_element_bytes > remaining()) {
    throw CodecError("Decoder: element count exceeds remaining input");
  }
  return c;
}

}  // namespace sftbft
