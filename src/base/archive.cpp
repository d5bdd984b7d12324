#include "base/archive.h"

namespace viator {
namespace {

std::uint64_t ReadLe(std::span<const std::byte> in, std::size_t at,
                     std::size_t bytes) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    value |= static_cast<std::uint64_t>(in[at + i]) << (8 * i);
  }
  return value;
}

}  // namespace

// ---- TlvEncoder -------------------------------------------------------------

void TlvEncoder::PutWord(TlvTag tag, std::uint64_t value, std::size_t bytes) {
  AppendTlvWord(out_, tag, value, bytes);
}

void TlvEncoder::PutBytes(TlvTag tag, std::span<const std::byte> bytes) {
  AppendTlvHeader(out_, tag, static_cast<std::uint32_t>(bytes.size()));
  out_.insert(out_.end(), bytes.begin(), bytes.end());
}

std::size_t TlvEncoder::Open(TlvTag tag) {
  AppendTlvHeader(out_, tag, 0);
  records_.push_back(Record{out_.size(), 0});
  return records_.size() - 1;
}

void TlvEncoder::Close(std::size_t index) {
  Record& record = records_[index];
  record.trailer = out_.size();
  PutWord(kTlvChecksumTag, 0, 8);
  const auto length = static_cast<std::uint32_t>(out_.size() - record.body);
  for (int i = 0; i < 4; ++i) {
    out_[record.body - 4 + i] =
        static_cast<std::byte>((length >> (8 * i)) & 0xff);
  }
}

std::vector<std::byte> TlvEncoder::Finish(Digest* digest) {
  // One forward pass keeps an FNV-1a chain per open record, chain 0 being
  // the stream's own. Every byte extends every open chain. A record's chain
  // is complete where its trailer starts, so its checksum is written there,
  // before the enclosing chains read the trailer.
  const std::size_t end = out_.size();
  std::vector<Digest> chains = {kFnvOffsetBasis};
  std::vector<std::size_t> open;  // records_ index per chain after the first
  std::size_t at = 0;
  for (std::size_t next = 0;;) {
    const std::size_t close_at =
        open.empty() ? end : records_[open.back()].trailer;
    const bool opening =
        next < records_.size() && records_[next].body <= close_at;
    const std::size_t to = opening ? records_[next].body : close_at;
    HashCombineEach(chains, std::span(out_).subspan(at, to - at));
    at = to;
    if (opening) {
      chains.push_back(kFnvOffsetBasis);
      open.push_back(next++);
      continue;
    }
    if (open.empty()) break;
    for (int i = 0; i < 8; ++i) {
      out_[close_at + kTlvHeaderSize + i] =
          static_cast<std::byte>((chains.back() >> (8 * i)) & 0xff);
    }
    chains.pop_back();
    open.pop_back();
  }
  PutWord(kTlvChecksumTag, chains[0], 8);
  if (digest != nullptr) {
    *digest = HashCombine(chains[0], std::span(out_).subspan(end));
  }
  records_.clear();
  return std::move(out_);
}

// ---- TlvDecoder -------------------------------------------------------------

TlvDecoder::TlvDecoder(std::span<const std::byte> stream) : stream_(stream) {
  status_ = TlvReader(stream).Verify();
  if (!status_.ok()) return;
  // Verify() accepted the framing, so the records run up to the trailer.
  while (TagAt(end_) != kTlvChecksumTag) {
    end_ += kTlvHeaderSize + PayloadAt(end_).size();
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
  return stream_.subspan(at + kTlvHeaderSize, ReadLe(stream_, at + 2, 4));
}

std::optional<std::span<const std::byte>> TlvDecoder::Take(TlvTag tag) {
  for (const auto& [from, to] :
       {std::pair{cursor_, end_}, std::pair{std::size_t{0}, cursor_}}) {
    for (std::size_t at = from; at < to;) {
      const std::span<const std::byte> payload = PayloadAt(at);
      const std::size_t next = at + kTlvHeaderSize + payload.size();
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
