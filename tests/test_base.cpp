// Unit tests for the base library: status/result, hashing, RNG, TLV codec
// and string/table helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/archive.h"
#include "base/flat_map.h"
#include "base/hash.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/strings.h"
#include "base/tlv.h"

namespace viator {
namespace {

// ---- Status / Result ----

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing thing");
}

TEST(Status, EqualityComparesCodeOnly) {
  EXPECT_EQ(NotFound("a"), NotFound("b"));
  EXPECT_FALSE(NotFound("a") == InvalidArgument("a"));
}

TEST(Status, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> r(InvalidArgument("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Result, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  auto owned = std::move(r).value();
  EXPECT_EQ(*owned, 5);
}

// ---- Hashing ----

TEST(Hash, DeterministicAndContentSensitive) {
  EXPECT_EQ(HashString("viator"), HashString("viator"));
  EXPECT_NE(HashString("viator"), HashString("viatob"));
  EXPECT_NE(HashString(""), HashString("a"));
}

TEST(Hash, EmptyInputIsOffsetBasis) {
  EXPECT_EQ(HashBytes({}), kFnvOffsetBasis);
}

TEST(Hash, CombineChains) {
  const auto full = HashString("hello world");
  auto partial = HashCombine(kFnvOffsetBasis,
                             std::as_bytes(std::span("hello ", 6)));
  partial = HashCombine(partial, std::as_bytes(std::span("world", 5)));
  EXPECT_EQ(full, partial);
}

TEST(Hash, HexIsFixedWidth) {
  EXPECT_EQ(DigestToHex(0).size(), 16u);
  EXPECT_EQ(DigestToHex(0), "0000000000000000");
  EXPECT_EQ(DigestToHex(0xdeadbeefULL), "00000000deadbeef");
}

TEST(Hash, KeyedTagDependsOnKey) {
  const auto data = std::as_bytes(std::span("payload", 7));
  EXPECT_NE(KeyedTag(1, data), KeyedTag(2, data));
  EXPECT_EQ(KeyedTag(1, data), KeyedTag(1, data));
}

TEST(Hash, KeyedTagDiffersFromPlainHash) {
  const auto data = std::as_bytes(std::span("payload", 7));
  EXPECT_NE(KeyedTag(0x1234, data), HashBytes(data));
}

// ---- RNG ----

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsIndependent) {
  Rng parent(7);
  Rng child = parent.Fork();
  // Child and parent streams should not track each other.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += parent.Next() == child.Next();
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformInt(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(3);
  EXPECT_EQ(rng.UniformInt(5, 5), 5u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliEdges) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(Rng, BernoulliApproximatesProbability) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(10.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, ParetoRespectsScale) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.Pareto(2.0, 1.5), 1.5);
}

TEST(Rng, ZipfFavorsLowRanks) {
  Rng rng(23);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.Zipf(10, 1.0)];
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[0], counts[9]);
}

TEST(Rng, ZipfStaysInRange) {
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Zipf(7, 0.8), 7u);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(31);
  const auto perm = rng.Permutation(50);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

// ---- TLV ----

TEST(Tlv, RoundTripsScalars) {
  TlvWriter w;
  w.PutU64(1, 0xabcdef0123456789ULL);
  w.PutU32(2, 77);
  w.PutDouble(3, 3.25);
  w.PutString(4, "genome");
  const auto bytes = w.Finish();

  TlvReader r(bytes);
  ASSERT_TRUE(r.Verify().ok());
  auto rec = r.Next();
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->tag, 1);
  EXPECT_EQ(rec->AsU64(), 0xabcdef0123456789ULL);
  rec = r.Next();
  EXPECT_EQ(rec->AsU32(), 77u);
  rec = r.Next();
  EXPECT_DOUBLE_EQ(rec->AsDouble(), 3.25);
  rec = r.Next();
  EXPECT_EQ(rec->AsString(), "genome");
  EXPECT_FALSE(r.HasNext());
}

TEST(Tlv, DetectsCorruption) {
  TlvWriter w;
  w.PutString(1, "important data");
  auto bytes = w.Finish();
  bytes[8] ^= std::byte{0xff};
  TlvReader r(bytes);
  EXPECT_FALSE(r.Verify().ok());
}

TEST(Tlv, DetectsTruncation) {
  TlvWriter w;
  w.PutU64(1, 5);
  auto bytes = w.Finish();
  bytes.resize(bytes.size() - 3);
  TlvReader r(bytes);
  EXPECT_FALSE(r.Verify().ok());
}

TEST(Tlv, EmptyStreamFailsVerify) {
  TlvReader r({});
  EXPECT_FALSE(r.Verify().ok());
}

TEST(Tlv, NestedStreams) {
  TlvWriter inner;
  inner.PutU32(10, 123);
  const auto inner_bytes = inner.Finish();

  TlvWriter outer;
  outer.PutNested(20, inner_bytes);
  const auto outer_bytes = outer.Finish();

  TlvReader r(outer_bytes);
  ASSERT_TRUE(r.Verify().ok());
  auto rec = r.Next();
  ASSERT_TRUE(rec.ok());
  TlvReader nested(rec->payload);
  ASSERT_TRUE(nested.Verify().ok());
  auto inner_rec = nested.Next();
  ASSERT_TRUE(inner_rec.ok());
  EXPECT_EQ(inner_rec->AsU32(), 123u);
}

TEST(Tlv, RewindRestartsIteration) {
  TlvWriter w;
  w.PutU32(1, 1);
  w.PutU32(2, 2);
  const auto bytes = w.Finish();
  TlvReader r(bytes);
  ASSERT_TRUE(r.Next().ok());
  ASSERT_TRUE(r.Next().ok());
  EXPECT_FALSE(r.HasNext());
  r.Rewind();
  EXPECT_TRUE(r.HasNext());
}

TEST(Tlv, WrongTypeWidthYieldsZero) {
  TlvWriter w;
  w.PutString(1, "abc");
  const auto bytes = w.Finish();
  TlvReader r(bytes);
  auto rec = r.Next();
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->AsU64(), 0u);  // 3-byte payload is not a u64
}

// ---- Nested-record bounds and checksum coverage ----

namespace {

// Hand-crafts a raw record header (2-byte tag, 4-byte length, little endian)
// so tests can build frames the writer refuses to produce.
void AppendRawHeader(std::vector<std::byte>& out, TlvTag tag,
                     std::uint32_t length) {
  out.push_back(static_cast<std::byte>(tag & 0xff));
  out.push_back(static_cast<std::byte>(tag >> 8));
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::byte>((length >> (8 * i)) & 0xff));
  }
}

}  // namespace

TEST(TlvNested, InnerCorruptionIsCaughtByInnerChecksum) {
  TlvWriter inner;
  inner.PutString(1, "nested genome");
  auto inner_bytes = inner.Finish();
  inner_bytes[9] ^= std::byte{0x01};  // corrupt before embedding

  TlvWriter outer;
  outer.PutNested(2, inner_bytes);
  const auto outer_bytes = outer.Finish();

  // The outer checksum covers the (already corrupt) embedded bytes, so only
  // the inner stream's own trailer can catch the damage.
  TlvReader r(outer_bytes);
  ASSERT_TRUE(r.Verify().ok());
  auto rec = r.Next();
  ASSERT_TRUE(rec.ok());
  TlvReader nested(rec->payload);
  EXPECT_FALSE(nested.Verify().ok());
}

TEST(TlvNested, InnerTruncationIsCaughtByInnerChecksum) {
  TlvWriter inner;
  inner.PutU64(1, 42);
  auto inner_bytes = inner.Finish();
  inner_bytes.resize(inner_bytes.size() - 5);

  TlvWriter outer;
  outer.PutNested(2, inner_bytes);
  const auto outer_bytes = outer.Finish();

  TlvReader r(outer_bytes);
  ASSERT_TRUE(r.Verify().ok());
  auto rec = r.Next();
  ASSERT_TRUE(rec.ok());
  TlvReader nested(rec->payload);
  EXPECT_FALSE(nested.Verify().ok());
}

TEST(TlvNested, DeepNestingRoundTrips) {
  TlvWriter leaf;
  leaf.PutU32(1, 0xbeef);
  auto bytes = leaf.Finish();
  for (int depth = 0; depth < 8; ++depth) {
    TlvWriter wrap;
    wrap.PutNested(static_cast<TlvTag>(100 + depth), bytes);
    bytes = wrap.Finish();
  }

  std::span<const std::byte> view = bytes;
  std::vector<std::vector<std::byte>> keep_alive;  // spans borrow from these
  for (int depth = 7; depth >= 0; --depth) {
    TlvReader r(view);
    ASSERT_TRUE(r.Verify().ok()) << "depth " << depth;
    auto rec = r.Next();
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec->tag, static_cast<TlvTag>(100 + depth));
    keep_alive.emplace_back(rec->payload.begin(), rec->payload.end());
    view = keep_alive.back();
  }
  TlvReader r(view);
  ASSERT_TRUE(r.Verify().ok());
  auto rec = r.Next();
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->AsU32(), 0xbeefu);
}

TEST(TlvNested, LengthBeyondBufferIsRejected) {
  // A record claiming 100 payload bytes with only 4 present must fail both
  // verification and iteration — never read out of bounds.
  std::vector<std::byte> bytes;
  AppendRawHeader(bytes, 7, 100);
  for (int i = 0; i < 4; ++i) bytes.push_back(std::byte{0xaa});
  TlvReader r(bytes);
  EXPECT_FALSE(r.Verify().ok());
  EXPECT_FALSE(r.Next().ok());
}

TEST(TlvNested, MaximalLengthFieldIsRejected) {
  std::vector<std::byte> bytes;
  AppendRawHeader(bytes, 7, 0xffffffffu);
  bytes.push_back(std::byte{0x00});
  TlvReader r(bytes);
  EXPECT_FALSE(r.Verify().ok());
  EXPECT_FALSE(r.Next().ok());
}

TEST(TlvNested, BytesAfterChecksumTrailerAreRejected) {
  TlvWriter w;
  w.PutU32(1, 9);
  auto bytes = w.Finish();
  bytes.push_back(std::byte{0x00});
  TlvReader r(bytes);
  EXPECT_FALSE(r.Verify().ok());
}

TEST(TlvNested, MalformedChecksumTrailerLengthIsRejected) {
  // A trailer whose declared length is not 8 is malformed even if the bytes
  // that follow happen to be in bounds.
  std::vector<std::byte> bytes;
  AppendRawHeader(bytes, kTlvChecksumTag, 4);
  for (int i = 0; i < 4; ++i) bytes.push_back(std::byte{0x00});
  TlvReader r(bytes);
  EXPECT_FALSE(r.Verify().ok());
}

TEST(TlvNested, EmptyNestedPayloadFailsInnerVerify) {
  TlvWriter outer;
  outer.PutNested(3, {});
  const auto bytes = outer.Finish();
  TlvReader r(bytes);
  ASSERT_TRUE(r.Verify().ok());
  auto rec = r.Next();
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec->payload.empty());
  TlvReader nested(rec->payload);
  EXPECT_FALSE(nested.Verify().ok());  // no trailer in an empty stream
}

// Property sweep: serialize/parse round trip across sizes.
class TlvRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(TlvRoundTrip, ManyRecords) {
  const int n = GetParam();
  TlvWriter w;
  for (int i = 0; i < n; ++i) {
    w.PutU64(static_cast<TlvTag>(i % 100), static_cast<std::uint64_t>(i));
  }
  const auto bytes = w.Finish();
  TlvReader r(bytes);
  ASSERT_TRUE(r.Verify().ok());
  int count = 0;
  while (r.HasNext()) {
    auto rec = r.Next();
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec->AsU64(), static_cast<std::uint64_t>(count));
    ++count;
  }
  EXPECT_EQ(count, n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TlvRoundTrip,
                         ::testing::Values(0, 1, 2, 17, 100, 1000));

// ---- Strings ----

TEST(Strings, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(Strings, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(1536), "1.50 KiB");
  EXPECT_EQ(FormatBytes(3 * 1024 * 1024), "3.00 MiB");
}

TEST(Strings, FormatNanos) {
  EXPECT_EQ(FormatNanos(500), "500 ns");
  EXPECT_EQ(FormatNanos(1500), "1.50 us");
  EXPECT_EQ(FormatNanos(2500000), "2.50 ms");
  EXPECT_EQ(FormatNanos(1250000000ULL), "1.250 s");
}

TEST(Strings, TablePrinterAlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22222"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22222 |"), std::string::npos);
}

// ---- FlatMap / FlatNameMap -------------------------------------------------

TEST(FlatMap, InsertFindEraseKeepKeyOrder) {
  base::FlatMap<int, std::string> m;
  m[30] = "c";
  m[10] = "a";
  m[20] = "b";
  EXPECT_EQ(m.size(), 3u);
  ASSERT_NE(m.find(20), m.end());
  EXPECT_EQ(m.find(20)->second, "b");
  EXPECT_EQ(m.find(99), m.end());
  // Iteration is ascending-key, exactly like std::map.
  std::vector<int> keys;
  for (const auto& [k, v] : m) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<int>{10, 20, 30}));
  // erase(key) and erase(iterator) with the std::map contract.
  EXPECT_EQ(m.erase(20), 1u);
  EXPECT_EQ(m.erase(20), 0u);
  auto it = m.erase(m.find(10));
  ASSERT_NE(it, m.end());
  EXPECT_EQ(it->first, 30);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, OperatorBracketDefaultConstructsOnce) {
  base::FlatMap<int, int> m;
  EXPECT_EQ(m[5], 0);
  m[5] = 7;
  EXPECT_EQ(m[5], 7);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, EraseIteratorLoopMatchesStdMapIdiom) {
  base::FlatMap<int, int> m;
  for (int i = 0; i < 10; ++i) m[i] = i;
  for (auto it = m.begin(); it != m.end();) {
    if (it->first % 2 == 0) {
      it = m.erase(it);
    } else {
      ++it;
    }
  }
  std::vector<int> keys;
  for (const auto& [k, v] : m) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<int>{1, 3, 5, 7, 9}));
}

TEST(FlatNameMap, LexicographicIterationAndStableAddresses) {
  base::FlatNameMap<int> m;
  int* b = &m.GetOrCreate("bravo");
  int* a = &m.GetOrCreate("alpha");
  *b = 2;
  *a = 1;
  // Growth must not move values: the addresses handed out stay live.
  for (int i = 0; i < 100; ++i) m.GetOrCreate("filler" + std::to_string(i));
  EXPECT_EQ(&m.GetOrCreate("alpha"), a);
  EXPECT_EQ(&m.GetOrCreate("bravo"), b);
  EXPECT_EQ(*a, 1);
  // Iteration yields names in lexicographic order via structured bindings.
  std::string previous;
  for (const auto& [name, value] : m) {
    EXPECT_LT(previous, name);
    previous = name;
  }
  EXPECT_EQ(m.size(), 102u);
  EXPECT_TRUE(m.contains("alpha"));
  EXPECT_FALSE(m.contains("zulu"));
  EXPECT_EQ(m.at("bravo"), 2);
  ASSERT_NE(m.find("bravo"), m.end());
  EXPECT_EQ(m.find("bravo")->second, 2);
  EXPECT_EQ(m.Find("zulu"), nullptr);
}

// ---- Field archives --------------------------------------------------------

enum class Color : std::uint32_t { kRed, kGreen, kCount };

struct Fields {
  std::uint64_t count = 0;
  Color color = Color::kRed;
  std::string name;
  std::vector<std::uint64_t> values;
  std::map<std::uint32_t, double> weights;

  template <class A>
  void Visit(A& a) {
    a.U64(0x01, count);
    a.Enum(0x02, color, static_cast<std::uint32_t>(Color::kCount),
           "color out of range");
    a.Str(0x03, name);
    a.U64s(0x04, values);
    a.Each(0x05, weights, [](auto& r, auto& weight) {
      r.U32(0x01, weight.first);
      r.F64(0x02, weight.second);
    });
  }
};

template <class T>
std::uint64_t HashOf(T& fields, bool bypass_caches = false) {
  Hasher hasher;
  StateHasher archive(hasher, bypass_caches);
  fields.Visit(archive);
  return hasher.digest();
}

TEST(Archive, EncoderWritesTlvWriterBytesAndDecoderReadsThemBack) {
  Fields fields{7, Color::kGreen, "ship", {1, 2}, {{3, 0.5}}};
  TlvWriter writer;
  writer.PutU64(0x01, 7);
  writer.PutU32(0x02, 1);
  writer.PutString(0x03, "ship");
  writer.PutU64(0x04, 1);
  writer.PutU64(0x04, 2);
  TlvWriter weight;
  weight.PutU32(0x01, 3);
  weight.PutDouble(0x02, 0.5);
  writer.PutNested(0x05, weight.Finish());
  const std::vector<std::byte> bytes = EncodeFields(fields);
  EXPECT_EQ(bytes, writer.Finish());

  Fields read;
  ASSERT_TRUE(DecodeFields(bytes, read).ok());
  EXPECT_EQ(EncodeFields(read), bytes);
  EXPECT_EQ(HashOf(read), HashOf(fields));
}

TEST(Archive, DecoderIsStrictButKeepsAbsentFields) {
  TlvWriter absent;  // only the name: everything else keeps its value
  absent.PutString(0x03, "old");
  Fields kept{9, Color::kGreen, "", {}, {}};
  ASSERT_TRUE(DecodeFields(absent.Finish(), kept).ok());
  EXPECT_EQ(kept.count, 9u);
  EXPECT_EQ(kept.color, Color::kGreen);
  EXPECT_EQ(kept.name, "old");

  TlvWriter out_of_range;
  out_of_range.PutU32(0x02, 2);
  Fields a;
  EXPECT_FALSE(DecodeFields(out_of_range.Finish(), a).ok());

  TlvWriter wrong_width;
  wrong_width.PutU32(0x01, 7);  // count is a u64 field
  Fields b;
  EXPECT_FALSE(DecodeFields(wrong_width.Finish(), b).ok());

  std::vector<std::byte> corrupt = EncodeFields(a);
  corrupt[0] ^= std::byte{1};
  Fields c;
  EXPECT_FALSE(DecodeFields(corrupt, c).ok());

  Rng rng(3);
  TlvWriter three_words;
  for (int i = 0; i < 3; ++i) three_words.PutU64(0x01, 1);
  EXPECT_FALSE(DecodeFields(three_words.Finish(), rng).ok());
}

TEST(Archive, HasherSeesEveryFieldAndIgnoresHashTableOrder) {
  Fields base{7, Color::kGreen, "ship", {1, 2}, {{3, 0.5}}};
  Fields other = base;
  other.weights[3] = 0.25;
  EXPECT_NE(HashOf(other), HashOf(base));
  other = base;
  other.values.push_back(0);
  EXPECT_NE(HashOf(other), HashOf(base));

  // A hash table's iteration order depends on its history, not its content.
  std::unordered_map<std::uint64_t, std::uint64_t> forward, backward;
  for (std::uint64_t k = 0; k < 64; ++k) forward[k] = k * k;
  backward.reserve(512);
  for (std::uint64_t k = 64; k-- > 0;) backward[k] = k * k;
  auto mix = [](auto& table) {
    Hasher hasher;
    StateHasher archive(hasher);
    archive.Unordered(
        0x01, table, [](const auto& e) { return e.first; },
        [](auto& r, auto& e) {
          r.U64(0x01, e.first);
          r.U64(0x02, e.second);
        });
    return hasher.digest();
  };
  EXPECT_EQ(mix(forward), mix(backward));
  backward[5] = 0;
  EXPECT_NE(mix(forward), mix(backward));
}

// Fields whose digests the owner keeps: a memoized count and a weight map
// with a running multiset digest.
struct KeptFields {
  std::uint64_t count = 0;
  DigestMemo count_memo;
  std::map<std::uint32_t, double> weights;
  MultisetDigest weights_digest;

  static constexpr auto kWeight = [](auto& r, auto& weight) {
    r.U32(0x01, weight.first);
    r.F64(0x02, weight.second);
  };
  void SetWeight(std::uint32_t key, double value) {
    auto [it, inserted] = weights.try_emplace(key, value);
    if (!inserted) {
      weights_digest.Remove(kWeight, *it);
      it->second = value;
    }
    weights_digest.Add(kWeight, *it);
  }

  template <class A>
  void Visit(A& a) {
    a.Memo(count_memo, 0, [this](auto& r) { r.U64(0x01, count); });
    a.Multiset(0x05, weights, weights_digest, kWeight);
  }
};

TEST(Archive, MemoAndMultisetOnlyMemoize) {
  KeptFields kept;
  kept.count = 7;
  kept.SetWeight(3, 0.5);
  kept.SetWeight(1, 2.0);
  kept.SetWeight(3, 0.25);

  // The encoder writes them exactly as inline fields.
  TlvWriter writer;
  writer.PutU64(0x01, 7);
  for (const auto& [key, value] : kept.weights) {
    TlvWriter weight;
    weight.PutU32(0x01, key);
    weight.PutDouble(0x02, value);
    writer.PutNested(0x05, weight.Finish());
  }
  const std::vector<std::byte> bytes = EncodeFields(kept);
  EXPECT_EQ(bytes, writer.Finish());

  // The kept digests equal the uncached walk, which hashes the map as
  // Unordered does.
  EXPECT_EQ(HashOf(kept), HashOf(kept, /*bypass_caches=*/true));
  Hasher inline_hasher;
  StateHasher inline_archive(inline_hasher);
  Hasher count_part;
  count_part.Mix(std::uint64_t{7});
  inline_hasher.Mix(count_part.digest());
  inline_archive.Unordered(0x05, kept.weights, nullptr, KeptFields::kWeight);
  EXPECT_EQ(HashOf(kept), inline_hasher.digest());

  // A load stales the memo and the kept sum.
  KeptFields read;
  read.count = 99;
  (void)HashOf(read);  // a warm memo of the old count
  ASSERT_TRUE(DecodeFields(bytes, read).ok());
  EXPECT_EQ(HashOf(read), HashOf(kept));
  EXPECT_EQ(HashOf(read), HashOf(read, /*bypass_caches=*/true));

  // A change without its stale mark is what the oracle exists to catch.
  const std::uint64_t before = HashOf(kept);
  kept.count = 8;
  EXPECT_EQ(HashOf(kept), before);
  EXPECT_NE(HashOf(kept, /*bypass_caches=*/true), before);
  kept.count_memo.Invalidate();
  EXPECT_EQ(HashOf(kept), HashOf(kept, /*bypass_caches=*/true));
}

TEST(Hash, CombineEachMatchesOneChainAtATime) {
  Rng rng(11);
  std::vector<std::byte> bytes(333);
  for (std::byte& b : bytes) b = static_cast<std::byte>(rng.Index(256));
  for (std::size_t count = 0; count <= 9; ++count) {
    std::vector<Digest> chains(count);
    for (Digest& chain : chains) chain = rng.UniformInt(0, ~0ULL);
    std::vector<Digest> expected = chains;
    for (Digest& chain : expected) chain = HashCombine(chain, bytes);
    HashCombineEach(chains, bytes);
    EXPECT_EQ(chains, expected) << count << " chains";
  }
}

// A random record tree: scalar fields and nested records, in order.
struct TreeNode {
  struct Item {
    TlvTag tag = 0;
    int kind = 0;  // 0 u64, 1 u32, 2 string, 3 nested
    std::uint64_t value = 0;
    std::string text;
    std::vector<TreeNode> child;  // one element when nested
  };
  std::vector<Item> items;
};

TreeNode RandomTree(Rng& rng, int depth) {
  TreeNode node;
  const std::size_t count = rng.Index(6);  // empty records too
  for (std::size_t i = 0; i < count; ++i) {
    TreeNode::Item item;
    item.tag = static_cast<TlvTag>(1 + rng.Index(40));
    item.kind = static_cast<int>(rng.Index(depth > 0 ? 5 : 3));
    item.value = rng.UniformInt(0, ~0ULL);
    item.text.assign(rng.Index(20), static_cast<char>('a' + rng.Index(26)));
    if (item.kind >= 3) {
      item.kind = 3;
      item.child.push_back(RandomTree(rng, depth - 1));
    }
    node.items.push_back(std::move(item));
  }
  return node;
}

void EncodeTree(TlvEncoder& encoder, const TreeNode& node) {
  for (const TreeNode::Item& item : node.items) {
    switch (item.kind) {
      case 0: encoder.U64(item.tag, item.value); break;
      case 1: encoder.U32(item.tag, static_cast<std::uint32_t>(item.value));
        break;
      case 2: encoder.Str(item.tag, item.text); break;
      default:
        encoder.Nested(item.tag, [&](TlvEncoder& r) {
          EncodeTree(r, item.child.front());
        });
    }
  }
}

// The same tree through nested TlvWriter streams, each finished on its own.
std::vector<std::byte> WriteTree(const TreeNode& node) {
  TlvWriter writer;
  for (const TreeNode::Item& item : node.items) {
    switch (item.kind) {
      case 0: writer.PutU64(item.tag, item.value); break;
      case 1: writer.PutU32(item.tag, static_cast<std::uint32_t>(item.value));
        break;
      case 2: writer.PutString(item.tag, item.text); break;
      default: writer.PutNested(item.tag, WriteTree(item.child.front()));
    }
  }
  return writer.Finish();
}

TEST(Archive, OnePassChecksumsMatchNestedTlvWriterStreams) {
  Rng rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    // Up to 9 levels: more open records than one hashing pass carries.
    const TreeNode tree = RandomTree(rng, static_cast<int>(rng.Index(10)));
    TlvEncoder encoder;
    EncodeTree(encoder, tree);
    Digest digest = 0;
    const std::vector<std::byte> bytes = encoder.Finish(&digest);
    ASSERT_EQ(bytes, WriteTree(tree)) << "trial " << trial;
    EXPECT_EQ(digest, HashBytes(bytes)) << "trial " << trial;
    EXPECT_TRUE(TlvReader(bytes).Verify().ok());
  }
}

}  // namespace
}  // namespace viator
