#include "base/hash.h"

#include <algorithm>
#include <array>

namespace viator {

Digest HashBytes(std::span<const std::byte> bytes) {
  return HashCombine(kFnvOffsetBasis, bytes);
}

Digest HashString(std::string_view text) {
  return HashBytes(std::as_bytes(std::span(text.data(), text.size())));
}

Digest HashCombine(Digest seed, std::span<const std::byte> bytes) {
  Digest h = seed;
  for (std::byte b : bytes) {
    h ^= static_cast<Digest>(b);
    h *= kFnvPrime;
  }
  return h;
}

namespace {

// The chains live in locals for the pass, so the compiler keeps them in
// registers and interleaves their multiplies.
template <std::size_t N>
void HashChains(Digest* chains, std::span<const std::byte> bytes) {
  Digest h[N];
  for (std::size_t c = 0; c < N; ++c) h[c] = chains[c];
  for (std::byte b : bytes) {
    for (std::size_t c = 0; c < N; ++c) {
      h[c] = (h[c] ^ static_cast<Digest>(b)) * kFnvPrime;
    }
  }
  for (std::size_t c = 0; c < N; ++c) chains[c] = h[c];
}

}  // namespace

void HashCombineEach(std::span<Digest> chains,
                     std::span<const std::byte> bytes) {
  for (std::size_t c = 0; c < chains.size(); c += 4) {
    Digest* group = chains.data() + c;
    switch (std::min<std::size_t>(chains.size() - c, 4)) {
      case 1: HashChains<1>(group, bytes); break;
      case 2: HashChains<2>(group, bytes); break;
      case 3: HashChains<3>(group, bytes); break;
      default: HashChains<4>(group, bytes); break;
    }
  }
}

Digest HashCombineWord(Digest seed, std::uint64_t word) {
  std::array<std::byte, 8> buf;
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<std::byte>((word >> (8 * i)) & 0xff);
  }
  return HashCombine(seed, buf);
}

std::string DigestToHex(Digest digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = kHex[digest & 0xf];
    digest >>= 4;
  }
  return out;
}

Digest KeyedTag(std::uint64_t key, std::span<const std::byte> data) {
  Digest h = HashCombineWord(kFnvOffsetBasis, key);
  h = HashCombine(h, data);
  return HashCombineWord(h, key);
}

}  // namespace viator
