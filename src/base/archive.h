// Field archives: one field list per stateful component, three walks.
//
// A component lists the fields of its decision state once, in wire order:
//
//   template <class A>
//   void Visit(A& a) {
//     a.U64(0x01, count_);                      // one TLV record per field
//     a.Each(0x02, items_, [](auto& r, auto& item) {
//       r.F64(0x01, item.weight);               // one nested record per item
//     });
//   }
//
// and three archives run over that list:
//
//  * TlvEncoder writes every field as a TLV record (base/tlv.h framing).
//    A nested record carries its own checksum trailer, exactly like a
//    finished TlvWriter stream, so the bytes equal a hand-written TlvWriter
//    codec's. The trailers are filled in by Finish, in one pass over the
//    stream for every nesting level at once.
//  * TlvDecoder reads them back strictly: every stream's checksum trailer
//    is verified, a record of the wrong width, an enum out of range or a
//    check the component makes (Fail) is an error, and the first error
//    wins and turns every later read into a no-op. A field absent from the
//    payload keeps its value (payloads from before the field existed) and
//    unknown tags are skipped.
//  * StateHasher mixes the same fields into a Hasher and allocates nothing.
//    A collection mixes its size first; an Unordered collection (a hash
//    table) is mixed as a multiset, so its iteration order does not count.
//
// Two field-list forms let a component keep the digest of part of its state
// current instead of having it re-walked on every hash:
//
//  * Memo(memo, stamp, fn): the field list `fn` is mixed as one word, the
//    digest of `fn` walked into a fresh Hasher. The owner stamps the memo
//    (a generation, or 0 with Invalidate() as a dirty mark); the hasher
//    re-walks `fn` only when the stamp moved.
//  * Multiset(tag, items, kept, fn): a map mixed like Unordered (size, then
//    the wrapping sum of element digests), with the sum read from a
//    MultisetDigest the owner updates element by element.
//
// Both only memoize: the encoder and the decoder walk `fn` exactly as if it
// were written inline (the decoder then marks the kept digest stale), and a
// StateHasher made with `bypass_caches` walks everything and writes no
// cache, so it is the oracle a cached digest must equal.
//
// `A::kLoading` is true for the decoder only. A Visit branches on it where a
// restore must do more than assign fields: re-create owned objects through
// their constructors, rebuild derived indexes, validate.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <ranges>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/hash.h"
#include "base/status.h"
#include "base/tlv.h"

namespace viator {

/// True when archive type `A` (possibly a reference) is the decoder; for
/// branches inside generic per-element lambdas.
template <class A>
inline constexpr bool kLoadingArchive = std::remove_cvref_t<A>::kLoading;

/// A component's memoized digest of one field list (Memo above). Valid
/// while `stamp` equals the stamp the owner hands to Memo.
struct DigestMemo {
  static constexpr std::uint64_t kStale = ~std::uint64_t{0};
  Digest digest = 0;
  std::uint64_t stamp = kStale;
  void Invalidate() { stamp = kStale; }
};

class MultisetDigest;

namespace archive_internal {

// What a decoder builds for one element of a container: maps get a
// (key, value) pair with a mutable key, everything else its value_type.
template <class C, class = void>
struct ElementOf {
  using type = typename C::value_type;
};
template <class C>
struct ElementOf<C, std::void_t<typename C::mapped_type>> {
  using type = std::pair<typename C::key_type, typename C::mapped_type>;
};

template <class C, class E>
void Insert(C& items, E&& element) {
  if constexpr (requires { items.push_back(std::move(element)); }) {
    items.push_back(std::move(element));
  } else {
    items[element.first] = std::move(element.second);
  }
}

}  // namespace archive_internal

/// Writes fields as TLV records into one buffer; Finish() fills in every
/// nested record's checksum and appends the stream's checksum trailer.
class TlvEncoder {
 public:
  static constexpr bool kLoading = false;

  template <class T>
  void U64(TlvTag tag, const T& value) {
    PutWord(tag, static_cast<std::uint64_t>(value), 8);
  }
  template <class T>
  void U32(TlvTag tag, const T& value) {
    PutWord(tag, static_cast<std::uint64_t>(value), 4);
  }
  void F64(TlvTag tag, const double& value) {
    PutWord(tag, std::bit_cast<std::uint64_t>(value), 8);
  }
  void Str(TlvTag tag, const std::string& text) {
    PutBytes(tag, std::as_bytes(std::span(text.data(), text.size())));
  }
  template <class E>
  void Enum(TlvTag tag, const E& value, std::uint32_t /*end*/,
            const char* /*what*/) {
    U32(tag, value);
  }

  template <class Fn>
  bool Nested(TlvTag tag, Fn&& fn) {
    const std::size_t record = Open(tag);
    fn(*this);
    Close(record);
    return true;
  }
  template <class Range, class Fn>
  void Each(TlvTag tag, Range&& items, Fn&& fn) {
    for (auto& item : items) Nested(tag, [&](TlvEncoder& r) { fn(r, item); });
  }
  /// Elements in ascending key(element) order.
  template <class Range, class Key, class Fn>
  void Unordered(TlvTag tag, Range&& items, Key&& key, Fn&& fn) {
    std::vector<std::remove_reference_t<decltype(*std::begin(items))>*> order;
    order.reserve(std::size(items));
    for (auto& item : items) order.push_back(&item);
    std::sort(order.begin(), order.end(),
              [&](const auto* a, const auto* b) { return key(*a) < key(*b); });
    for (auto* item : order) {
      Nested(tag, [&](TlvEncoder& r) { fn(r, *item); });
    }
  }
  /// Elements in iteration order (`items` is an ordered map).
  template <class Range, class Fn>
  void Multiset(TlvTag tag, Range&& items, MultisetDigest& /*kept*/,
                Fn&& fn) {
    Each(tag, items, fn);
  }
  template <class Fn>
  void Memo(DigestMemo& /*memo*/, std::uint64_t /*stamp*/, Fn&& fn) {
    fn(*this);
  }
  template <class Range>
  void U64s(TlvTag tag, const Range& values) {
    for (const auto& value : values) U64(tag, value);
  }
  template <class Range>
  void U32s(TlvTag tag, const Range& values) {
    for (const auto value : values) U32(tag, value);
  }
  template <std::size_t N>
  void Words(TlvTag tag, const std::uint64_t (&words)[N]) {
    for (std::uint64_t word : words) U64(tag, word);
  }
  /// One record per element holding get(element).Serialize().
  template <class Range, class Get>
  void Images(TlvTag tag, const Range& items, Get&& get) {
    for (const auto& item : items) PutBytes(tag, get(item).Serialize());
  }
  /// Images in ascending digest order.
  template <class Range, class Get>
  void ImageSet(TlvTag tag, const Range& items, Get&& get) {
    std::vector<const std::remove_cvref_t<decltype(get(*std::begin(items)))>*>
        order;
    order.reserve(std::size(items));
    for (const auto& item : items) order.push_back(&get(item));
    std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
      return a->digest() < b->digest();
    });
    for (const auto* image : order) PutBytes(tag, image->Serialize());
  }

  void Fail(const char* /*what*/) {}
  void Fail(const Status& /*status*/) {}

  /// Fills in every nested record's checksum, appends the stream's
  /// checksum trailer and returns the stream. When `digest` is given it
  /// receives HashBytes(stream), carried on from the trailer's own chain
  /// rather than hashed again.
  std::vector<std::byte> Finish(Digest* digest = nullptr);

 private:
  // A nested record: where its body starts and where its checksum trailer
  // (written with a zero checksum until Finish) starts.
  struct Record {
    std::size_t body = 0;
    std::size_t trailer = 0;
  };

  void PutWord(TlvTag tag, std::uint64_t value, std::size_t bytes);
  void PutBytes(TlvTag tag, std::span<const std::byte> bytes);
  // A record header with its length left open; returns the record's index.
  std::size_t Open(TlvTag tag);
  // Ends record `index` with a placeholder checksum trailer and sets its
  // length.
  void Close(std::size_t index);

  std::vector<std::byte> out_;
  std::vector<Record> records_;  // in the order they were opened
};

/// Strict reader of a TLV stream written by TlvEncoder.
class TlvDecoder {
 public:
  static constexpr bool kLoading = true;

  /// Verifies `stream`'s framing and checksum trailer; a bad stream fails
  /// the decoder from the start.
  explicit TlvDecoder(std::span<const std::byte> stream);

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  void Fail(Status status) {
    if (status_.ok()) status_ = std::move(status);
  }
  void Fail(const char* what);
  /// The whole stream (a record read through ForRecords: its payload).
  std::span<const std::byte> bytes() const { return stream_; }

  template <class T>
  void U64(TlvTag tag, T& value) {
    if (const auto raw = Scalar(tag, 8)) value = static_cast<T>(*raw);
  }
  template <class T>
  void U32(TlvTag tag, T& value) {
    if (const auto raw = Scalar(tag, 4)) value = static_cast<T>(*raw);
  }
  void F64(TlvTag tag, double& value) {
    if (const auto raw = Scalar(tag, 8)) value = std::bit_cast<double>(*raw);
  }
  void Str(TlvTag tag, std::string& text);
  template <class E>
  void Enum(TlvTag tag, E& value, std::uint32_t end, const char* what) {
    if (const auto raw = Scalar(tag, 4)) {
      if (*raw >= end) {
        Fail(what);
      } else {
        value = static_cast<E>(*raw);
      }
    }
  }

  /// False when the record is absent.
  template <class Fn>
  bool Nested(TlvTag tag, Fn&& fn) {
    const auto payload = ok() ? Take(tag) : std::nullopt;
    if (!payload) return false;
    Sub(*payload, fn);
    return true;
  }
  /// Replaces the contents of a vector or map with one element per record.
  template <class C, class Fn>
  void Each(TlvTag tag, C& items, Fn&& fn) {
    items.clear();
    ForRecords(tag, [&](TlvDecoder& r) {
      typename archive_internal::ElementOf<C>::type element{};
      fn(r, element);
      if (r.ok()) archive_internal::Insert(items, std::move(element));
    });
  }
  /// Like Each, but a map element is stored under key(element).
  template <class C, class Key, class Fn>
  void Unordered(TlvTag tag, C& items, Key&& key, Fn&& fn) {
    items.clear();
    ForRecords(tag, [&](TlvDecoder& r) {
      typename archive_internal::ElementOf<C>::type element{};
      fn(r, element);
      if (r.ok()) items[key(element)] = std::move(element.second);
    });
  }
  /// Like Each; `kept` then goes stale.
  template <class C, class Fn>
  void Multiset(TlvTag tag, C& items, MultisetDigest& kept, Fn&& fn);
  /// Reads the fields and marks the memo stale.
  template <class Fn>
  void Memo(DigestMemo& memo, std::uint64_t /*stamp*/, Fn&& fn) {
    fn(*this);
    memo.Invalidate();
  }
  template <class V>
  void U64s(TlvTag tag, V& values) {
    Values(tag, 8, values);
  }
  template <class V>
  void U32s(TlvTag tag, V& values) {
    Values(tag, 4, values);
  }
  /// Exactly N records, or an error.
  template <std::size_t N>
  void Words(TlvTag tag, std::uint64_t (&words)[N]) {
    std::uint64_t read[N] = {};
    std::size_t count = 0;
    ForEachPayload(tag, [&](std::span<const std::byte> payload) {
      if (count == N) return Fail("too many words for a fixed-size field");
      if (const auto word = AsWord(payload, 8)) read[count++] = *word;
    });
    if (ok() && count != N) Fail("missing words of a fixed-size field");
    if (ok()) std::copy(read, read + N, words);
  }

  /// Decoder only: fn(sub-decoder) for every record with `tag`, in stream
  /// order, until the first error.
  template <class Fn>
  void ForRecords(TlvTag tag, Fn&& fn) {
    ForEachPayload(tag, [&](std::span<const std::byte> payload) {
      Sub(payload, fn);
    });
  }

 private:
  template <class Fn>
  void Sub(std::span<const std::byte> payload, Fn& fn) {
    TlvDecoder sub(payload);
    if (sub.ok()) fn(sub);
    if (!sub.ok()) Fail(sub.status());
  }
  template <class Fn>
  void ForEachPayload(TlvTag tag, Fn&& fn) {
    for (std::size_t at = 0; ok() && at < end_;) {
      const TlvTag record = TagAt(at);
      const std::span<const std::byte> payload = PayloadAt(at);
      at = static_cast<std::size_t>(payload.data() - stream_.data()) +
           payload.size();
      if (record == tag) {
        fn(payload);
        cursor_ = at;
      }
    }
  }
  template <class V>
  void Values(TlvTag tag, std::size_t width, V& values) {
    if (!ok()) return;
    values.clear();
    ForEachPayload(tag, [&](std::span<const std::byte> payload) {
      if (const auto word = AsWord(payload, width)) {
        values.push_back(static_cast<typename V::value_type>(*word));
      }
    });
  }

  TlvTag TagAt(std::size_t at) const;
  std::span<const std::byte> PayloadAt(std::size_t at) const;
  // The first record with `tag` at or after the cursor, else the first one
  // before it; the cursor moves past it.
  std::optional<std::span<const std::byte>> Take(TlvTag tag);
  std::optional<std::uint64_t> Scalar(TlvTag tag, std::size_t width);
  // A little-endian word of exactly `width` bytes; otherwise an error.
  std::optional<std::uint64_t> AsWord(std::span<const std::byte> payload,
                                      std::size_t width);

  std::span<const std::byte> stream_;
  std::size_t end_ = 0;  // offset of the checksum trailer
  std::size_t cursor_ = 0;
  Status status_;
};

/// Mixes fields into a Hasher without allocating. With `bypass_caches` it
/// walks every Memo and Multiset in full and updates no memo: the uncached
/// oracle of the same digest.
class StateHasher {
 public:
  static constexpr bool kLoading = false;

  explicit StateHasher(Hasher& hasher, bool bypass_caches = false)
      : hasher_(hasher), bypass_caches_(bypass_caches) {}

  template <class T>
  void U64(TlvTag, const T& value) {
    hasher_.Mix(static_cast<std::uint64_t>(value));
  }
  template <class T>
  void U32(TlvTag, const T& value) {
    hasher_.Mix(static_cast<std::uint64_t>(value));
  }
  void F64(TlvTag, const double& value) { hasher_.MixDouble(value); }
  void Str(TlvTag, const std::string& text) { hasher_.Mix(text); }
  template <class E>
  void Enum(TlvTag, const E& value, std::uint32_t, const char*) {
    hasher_.Mix(static_cast<std::uint64_t>(value));
  }

  template <class Fn>
  bool Nested(TlvTag, Fn&& fn) {
    fn(*this);
    return true;
  }
  template <class Range, class Fn>
  void Each(TlvTag, Range&& items, Fn&& fn) {
    hasher_.Mix(static_cast<std::uint64_t>(std::ranges::distance(items)));
    for (auto& item : items) fn(*this, item);
  }
  /// The element count and the wrapping sum of each element's own digest.
  template <class Range, class Key, class Fn>
  void Unordered(TlvTag, Range&& items, Key&&, Fn&& fn) {
    std::uint64_t sum = 0;
    for (auto& item : items) sum += DigestOf(fn, item);
    hasher_.Mix(static_cast<std::uint64_t>(std::size(items)));
    hasher_.Mix(sum);
  }
  /// Unordered's digest, with the sum taken from `kept`.
  template <class Range, class Fn>
  void Multiset(TlvTag tag, Range&& items, MultisetDigest& kept, Fn&& fn);
  /// The digest of `fn`'s fields, walked into a fresh Hasher unless the memo
  /// holds it for `stamp`.
  template <class Fn>
  void Memo(DigestMemo& memo, std::uint64_t stamp, Fn&& fn) {
    if (bypass_caches_) {
      hasher_.Mix(DigestOf(fn));
      return;
    }
    if (memo.stamp != stamp) {
      memo.digest = DigestOf(fn);
      memo.stamp = stamp;
    }
    hasher_.Mix(memo.digest);
  }
  template <class Range>
  void U64s(TlvTag, const Range& values) {
    hasher_.Mix(static_cast<std::uint64_t>(std::size(values)));
    for (const auto& value : values) {
      hasher_.Mix(static_cast<std::uint64_t>(value));
    }
  }
  template <class Range>
  void U32s(TlvTag tag, const Range& values) {
    U64s(tag, values);
  }
  template <std::size_t N>
  void Words(TlvTag, const std::uint64_t (&words)[N]) {
    for (std::uint64_t word : words) hasher_.Mix(word);
  }
  /// A serialized element is mixed as its content digest.
  template <class Range, class Get>
  void Images(TlvTag, const Range& items, Get&& get) {
    hasher_.Mix(static_cast<std::uint64_t>(std::size(items)));
    for (const auto& item : items) hasher_.Mix(get(item).digest());
  }
  template <class Range, class Get>
  void ImageSet(TlvTag tag, const Range& items, Get&& get) {
    Unordered(tag, items, nullptr, [&](StateHasher& r, const auto& item) {
      r.hasher_.Mix(get(item).digest());
    });
  }

  void Fail(const char* /*what*/) {}
  void Fail(const Status& /*status*/) {}

  /// WanderingNetwork::VisitState hands over one part per snapshot section;
  /// the hasher takes all of them.
  template <class Fn>
  void Part(std::uint32_t /*section*/, Fn&& fn) {
    fn(*this);
  }

 private:
  // The digest of fn(archive, args...) walked into a fresh Hasher by an
  // archive with this one's cache mode.
  template <class Fn, class... Args>
  Digest DigestOf(Fn& fn, Args&... args) const {
    Hasher part;
    StateHasher archive(part, bypass_caches_);
    fn(archive, args...);
    return part.digest();
  }

  Hasher& hasher_;
  bool bypass_caches_;
};

/// The running digest of a map that Visit lists with Multiset: the wrapping
/// sum of its elements' digests, so one element's change costs two element
/// digests instead of a walk of the whole map. The owner calls Remove
/// before an element changes or leaves and Add once it has its new value;
/// when many elements change at once (a decay) it calls Invalidate, and the
/// next hash recomputes the sum.
class MultisetDigest {
 public:
  template <class Fn, class E>
  void Add(Fn&& fn, const E& element) {
    if (!stale_) sum_ += ElementDigest(fn, element);
  }
  template <class Fn, class E>
  void Remove(Fn&& fn, const E& element) {
    if (!stale_) sum_ -= ElementDigest(fn, element);
  }
  void Invalidate() { stale_ = true; }

  /// The sum over `items`, the owner's map, recomputed first when stale.
  template <class Range, class Fn>
  std::uint64_t Sum(const Range& items, Fn& fn) {
    if (stale_) {
      sum_ = 0;
      for (const auto& item : items) sum_ += ElementDigest(fn, item);
      stale_ = false;
    }
    return sum_;
  }

 private:
  template <class Fn, class E>
  static Digest ElementDigest(Fn& fn, const E& element) {
    Hasher hasher;
    StateHasher archive(hasher);
    fn(archive, element);
    return hasher.digest();
  }

  std::uint64_t sum_ = 0;
  bool stale_ = false;
};

template <class C, class Fn>
void TlvDecoder::Multiset(TlvTag tag, C& items, MultisetDigest& kept,
                          Fn&& fn) {
  Each(tag, items, fn);
  kept.Invalidate();
}

template <class Range, class Fn>
void StateHasher::Multiset(TlvTag tag, Range&& items, MultisetDigest& kept,
                           Fn&& fn) {
  if (bypass_caches_) {
    Unordered(tag, items, nullptr, fn);
    return;
  }
  hasher_.Mix(static_cast<std::uint64_t>(std::size(items)));
  hasher_.Mix(kept.Sum(items, fn));
}

/// A finished TLV stream of `object`'s fields (object.Visit).
template <class T>
std::vector<std::byte> EncodeFields(T& object) {
  TlvEncoder encoder;
  object.Visit(encoder);
  return encoder.Finish();
}

/// Strictly decodes `payload` into `object`'s fields.
template <class T>
Status DecodeFields(std::span<const std::byte> payload, T& object) {
  TlvDecoder decoder(payload);
  if (decoder.ok()) object.Visit(decoder);
  return decoder.status();
}

}  // namespace viator
