#include "base/archive.h"

namespace viator {
namespace {

constexpr std::size_t kHeaderSize = 2 + 4;  // tag + length

std::uint64_t ReadLe(std::span<const std::byte> in, std::size_t at,
                     std::size_t bytes) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    value |= static_cast<std::uint64_t>(in[at + i]) << (8 * i);
  }
  return value;
}

void AppendLe(std::vector<std::byte>& out, std::uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<std::byte>((value >> (8 * i)) & 0xff));
  }
}

}  // namespace

// ---- TlvEncoder -------------------------------------------------------------

void TlvEncoder::PutHeader(TlvTag tag, std::uint32_t length) {
  AppendLe(out_, tag, 2);
  AppendLe(out_, length, 4);
}

void TlvEncoder::PutWord(TlvTag tag, std::uint64_t value, int bytes) {
  PutHeader(tag, static_cast<std::uint32_t>(bytes));
  AppendLe(out_, value, bytes);
}

void TlvEncoder::PutBytes(TlvTag tag, std::span<const std::byte> bytes) {
  PutHeader(tag, static_cast<std::uint32_t>(bytes.size()));
  out_.insert(out_.end(), bytes.begin(), bytes.end());
}

std::size_t TlvEncoder::Open(TlvTag tag) {
  PutHeader(tag, 0);
  return out_.size();
}

void TlvEncoder::Close(std::size_t body) {
  const Digest checksum =
      HashBytes(std::span(out_).subspan(body, out_.size() - body));
  PutWord(kTlvChecksumTag, checksum, 8);
  const auto length = static_cast<std::uint32_t>(out_.size() - body);
  for (int i = 0; i < 4; ++i) {
    out_[body - 4 + i] = static_cast<std::byte>((length >> (8 * i)) & 0xff);
  }
}

std::vector<std::byte> TlvEncoder::Finish() {
  PutWord(kTlvChecksumTag, HashBytes(out_), 8);
  return std::move(out_);
}

// ---- TlvDecoder -------------------------------------------------------------

TlvDecoder::TlvDecoder(std::span<const std::byte> stream) : stream_(stream) {
  status_ = TlvReader(stream).Verify();
  if (!status_.ok()) return;
  // Verify() accepted the framing, so the records run up to the trailer.
  while (TagAt(end_) != kTlvChecksumTag) {
    end_ += kHeaderSize + PayloadAt(end_).size();
  }
}

void TlvDecoder::Fail(const char* what) {
  Fail(InvalidArgument(std::string("malformed payload: ") + what));
}

void TlvDecoder::Str(TlvTag tag, std::string& text) {
  if (!ok()) return;
  if (const auto payload = Take(tag)) {
    text.assign(reinterpret_cast<const char*>(payload->data()),
                payload->size());
  }
}

TlvTag TlvDecoder::TagAt(std::size_t at) const {
  return static_cast<TlvTag>(ReadLe(stream_, at, 2));
}

std::span<const std::byte> TlvDecoder::PayloadAt(std::size_t at) const {
  return stream_.subspan(at + kHeaderSize, ReadLe(stream_, at + 2, 4));
}

std::optional<std::span<const std::byte>> TlvDecoder::Take(TlvTag tag) {
  for (const auto& [from, to] :
       {std::pair{cursor_, end_}, std::pair{std::size_t{0}, cursor_}}) {
    for (std::size_t at = from; at < to;) {
      const std::span<const std::byte> payload = PayloadAt(at);
      const std::size_t next = at + kHeaderSize + payload.size();
      if (TagAt(at) == tag) {
        cursor_ = next;
        return payload;
      }
      at = next;
    }
  }
  return std::nullopt;
}

std::optional<std::uint64_t> TlvDecoder::Scalar(TlvTag tag,
                                                std::size_t width) {
  if (!ok()) return std::nullopt;
  const auto payload = Take(tag);
  if (!payload) return std::nullopt;
  return AsWord(*payload, width);
}

std::optional<std::uint64_t> TlvDecoder::AsWord(
    std::span<const std::byte> payload, std::size_t width) {
  if (payload.size() != width) {
    Fail("field record of the wrong width");
    return std::nullopt;
  }
  return ReadLe(payload, 0, width);
}

}  // namespace viator
