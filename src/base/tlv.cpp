#include "base/tlv.h"

#include <cstring>

#include "base/hash.h"

namespace viator {
namespace {

void StoreLe(std::byte* at, std::uint64_t value, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    at[i] = static_cast<std::byte>((value >> (8 * i)) & 0xff);
  }
}

std::uint64_t ReadLe(std::span<const std::byte> in, std::size_t at, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(in[at + i]) << (8 * i);
  }
  return v;
}

}  // namespace

void AppendTlvHeader(std::vector<std::byte>& out, TlvTag tag,
                     std::uint32_t length) {
  const std::size_t at = out.size();
  out.resize(at + kTlvHeaderSize);
  StoreLe(out.data() + at, tag, 2);
  StoreLe(out.data() + at + 2, length, 4);
}

void AppendTlvWord(std::vector<std::byte>& out, TlvTag tag,
                   std::uint64_t value, std::size_t width) {
  const std::size_t at = out.size();
  out.resize(at + kTlvHeaderSize + width);
  StoreLe(out.data() + at, tag, 2);
  StoreLe(out.data() + at + 2, width, 4);
  StoreLe(out.data() + at + kTlvHeaderSize, value, width);
}

void TlvWriter::PutHeader(TlvTag tag, std::uint32_t length) {
  AppendTlvHeader(buffer_, tag, length);
}

void TlvWriter::PutBytes(TlvTag tag, std::span<const std::byte> bytes) {
  PutHeader(tag, static_cast<std::uint32_t>(bytes.size()));
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void TlvWriter::PutString(TlvTag tag, std::string_view text) {
  PutBytes(tag, std::as_bytes(std::span(text.data(), text.size())));
}

void TlvWriter::PutU64(TlvTag tag, std::uint64_t value) {
  AppendTlvWord(buffer_, tag, value, 8);
}

void TlvWriter::PutU32(TlvTag tag, std::uint32_t value) {
  AppendTlvWord(buffer_, tag, value, 4);
}

void TlvWriter::PutDouble(TlvTag tag, double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  PutU64(tag, bits);
}

void TlvWriter::PutNested(TlvTag tag, std::span<const std::byte> stream) {
  PutBytes(tag, stream);
}

std::vector<std::byte> TlvWriter::Finish() {
  AppendTlvWord(buffer_, kTlvChecksumTag, HashBytes(buffer_), 8);
  std::vector<std::byte> out;
  out.swap(buffer_);
  return out;
}

std::uint64_t TlvRecord::AsU64() const {
  if (payload.size() != 8) return 0;
  return ReadLe(payload, 0, 8);
}

std::uint32_t TlvRecord::AsU32() const {
  if (payload.size() != 4) return 0;
  return static_cast<std::uint32_t>(ReadLe(payload, 0, 4));
}

double TlvRecord::AsDouble() const {
  const std::uint64_t bits = AsU64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string TlvRecord::AsString() const {
  return std::string(reinterpret_cast<const char*>(payload.data()),
                     payload.size());
}

Status TlvReader::Verify() const {
  std::size_t at = 0;
  while (at + kTlvHeaderSize <= stream_.size()) {
    const TlvTag tag = static_cast<TlvTag>(ReadLe(stream_, at, 2));
    const std::uint64_t len = ReadLe(stream_, at + 2, 4);
    if (at + kTlvHeaderSize + len > stream_.size()) {
      return InvalidArgument("truncated TLV record");
    }
    if (tag == kTlvChecksumTag) {
      if (len != 8) return InvalidArgument("malformed checksum trailer");
      const Digest stored = ReadLe(stream_, at + kTlvHeaderSize, 8);
      const Digest actual = HashBytes(stream_.subspan(0, at));
      if (stored != actual) return InvalidArgument("TLV checksum mismatch");
      if (at + kTlvHeaderSize + 8 != stream_.size()) {
        return InvalidArgument("bytes after checksum trailer");
      }
      return OkStatus();
    }
    at += kTlvHeaderSize + len;
  }
  return InvalidArgument("missing checksum trailer");
}

bool TlvReader::HasNext() const {
  if (cursor_ + kTlvHeaderSize > stream_.size()) return false;
  const TlvTag tag = static_cast<TlvTag>(ReadLe(stream_, cursor_, 2));
  return tag != kTlvChecksumTag;
}

Result<TlvRecord> TlvReader::Next() {
  if (cursor_ + kTlvHeaderSize > stream_.size()) {
    return Status(InvalidArgument("read past end of TLV stream"));
  }
  const TlvTag tag = static_cast<TlvTag>(ReadLe(stream_, cursor_, 2));
  const std::uint64_t len = ReadLe(stream_, cursor_ + 2, 4);
  if (cursor_ + kTlvHeaderSize + len > stream_.size()) {
    return Status(InvalidArgument("truncated TLV record"));
  }
  TlvRecord rec;
  rec.tag = tag;
  rec.payload = stream_.subspan(cursor_ + kTlvHeaderSize, len);
  cursor_ += kTlvHeaderSize + len;
  return rec;
}

}  // namespace viator
