// Pins the routing hot path's allocation contract: once a topology's route
// cache, adjacency and sweep scratch have reached their working size, refilling
// a route row — whether LRU pressure evicted it or a structural change
// staled it — performs no heap allocation at all. Also pins that hashing a
// network's state (the per-window state hash) allocates nothing, and that a
// warm resonance detector allocates only the groups it returns.
//
// This binary replaces the global operator new/delete family with counting
// wrappers over malloc/free, so it stands alone: no other test shares the
// replacement.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "base/hash.h"
#include "core/wandering_network.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "vm/assembler.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* CountedAllocate(std::size_t size) {
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return p;
}

std::uint64_t Allocs() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace

void* operator new(std::size_t size) { return CountedAllocate(size); }
void* operator new[](std::size_t size) { return CountedAllocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAllocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAllocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace viator::net {
namespace {

constexpr std::size_t kSide = 64;
constexpr NodeId kCorner = 0;
constexpr NodeId kFarCorner = kSide * kSide - 1;

TEST(RouteAlloc, CounterSeesHeapAllocations) {
  // Guards the guard: a replacement the linker ignored would make every
  // zero below vacuous. A direct operator call, unlike a new-expression,
  // cannot be elided.
  const std::uint64_t before = Allocs();
  void* probe = ::operator new(16);
  EXPECT_GT(Allocs(), before);
  ::operator delete(probe);
}

TEST(RouteAlloc, LruRefillsAllocateNothing) {
  Topology t = MakeGrid(kSide, kSide);
  t.SetRouteCacheCapacity(1);
  // Warm-up: the first fills size the row, the row index, the adjacency
  // and the sweep scratch.
  ASSERT_NE(t.NextHop(kFarCorner, kCorner), kInvalidNode);
  ASSERT_NE(t.NextHop(kCorner, kFarCorner), kInvalidNode);

  const std::uint64_t misses = t.route_cache_stats().misses;
  const std::uint64_t evictions = t.route_cache_stats().evictions;
  const std::uint64_t before = Allocs();
  NodeId sink = 0;
  for (int i = 0; i < 120; ++i) {
    // Alternating destinations through a one-row cache: every call evicts
    // and refills.
    sink ^= t.NextHop(kSide + 1, i % 2 == 0 ? kCorner : kFarCorner);
  }
  const std::uint64_t allocs = Allocs() - before;

  EXPECT_EQ(allocs, 0u);
  EXPECT_GE(t.route_cache_stats().misses - misses, 100u);
  EXPECT_GE(t.route_cache_stats().evictions - evictions, 100u);
  EXPECT_NE(sink, kInvalidNode);
}

TEST(RouteAlloc, GenerationRefillsAllocateNothing) {
  Topology t = MakeGrid(kSide, kSide);
  const LinkId link = *t.FindLink(kCorner, 1);
  // Warm-up with every link up, so the adjacency holds its largest size.
  ASSERT_EQ(t.NextHop(kCorner, 1), 1u);

  const std::uint64_t invalidations = t.route_cache_stats().invalidations;
  const std::uint64_t before = Allocs();
  NodeId hops[2] = {kInvalidNode, kInvalidNode};
  for (int i = 0; i < 20; ++i) {
    // Each toggle bumps the generation: the next lookup rebuilds the
    // adjacency and refills the stale row in place.
    const bool up = i % 2 == 1;
    t.SetLinkUp(link, up);
    hops[up ? 1 : 0] = t.NextHop(kCorner, 1);
  }
  const std::uint64_t allocs = Allocs() - before;

  EXPECT_EQ(allocs, 0u);
  EXPECT_GE(t.route_cache_stats().invalidations - invalidations, 10u);
  EXPECT_EQ(hops[1], 1u);     // direct while the link is up
  EXPECT_EQ(hops[0], kSide);  // around via the row below while down
}

TEST(StateHash, WarmNetworkAllocatesNothing) {
  sim::Simulator simulator;
  Topology topology = MakeGrid(3, 3);
  wli::WanderingNetwork network(simulator, topology, wli::WnConfig{}, 7);
  network.PopulateAllNodes();
  // A code shuttle to every ship: each one caches the program, runs it in
  // an EE (counting class activity) and the program stores a fact.
  auto program = vm::Assemble(
      "hash-alloc", "  push 42\n  push 7\n  push 100\n  sys put_fact\n"
                    "  pop\n  halt\n");
  ASSERT_TRUE(program.ok());
  auto digest = network.PublishProgram(*program, 0);
  ASSERT_TRUE(digest.ok());
  for (NodeId dst = 1; dst < topology.node_count(); ++dst) {
    wli::Shuttle shuttle = wli::Shuttle::Data(0, dst, {1}, dst);
    shuttle.code_digest = *digest;
    ASSERT_TRUE(network.Inject(std::move(shuttle)).ok());
  }
  simulator.RunAll();
  const wli::Ship& ship = *network.ship(4);
  ASSERT_GT(ship.code_executions(), 0u);  // so its class activity is set
  ASSERT_GT(ship.os().ee_count(), 0u);
  ASSERT_GT(ship.os().code_cache().entry_count(), 0u);
  ASSERT_GT(ship.facts().size(), 0u);

  Hasher warm;
  network.MixDigest(warm);
  const std::uint64_t before = Allocs();
  Hasher hasher;
  network.MixDigest(hasher);
  const std::uint64_t allocs = Allocs() - before;

  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(hasher.digest(), warm.digest());
}

TEST(Resonance, WarmDetectorAllocatesOnlyTheGroupsItReturns) {
  sim::Simulator simulator;
  Topology topology = MakeGrid(10, 10);
  wli::WanderingNetwork network(simulator, topology, wli::WnConfig{}, 7);
  network.PopulateAllNodes();
  // Two correlated key sets on overlapping ship ranges, plus one private
  // key per ship: two resonant groups among 102 keys on 100 ships.
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    wli::FactStore& facts = network.ship(n)->facts();
    if (n < 60) {
      facts.Touch(100, 1, 1.0, 0);
      facts.Touch(200, 1, 1.0, 0);
    }
    if (n >= 40) {
      for (wli::FactKey key : {300, 400, 500}) facts.Touch(key, 1, 1.0, 0);
    }
    facts.Touch(1000 + n, 1, 1.0, 0);
  }
  wli::ResonanceDetector detector;
  // Fed the way WanderingNetwork::Pulse feeds it.
  const auto window = [&] {
    network.ForEachShip([&detector](wli::Ship& s) {
      s.facts().ForEachKey(
          [&](wli::FactKey key) { detector.Observe(s.id(), key); });
    });
    return detector.DetectAndReset();
  };
  const auto warm = window();

  const std::uint64_t before = Allocs();
  const auto groups = window();
  const std::uint64_t allocs = Allocs() - before;

  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<wli::FactKey>{100, 200}));
  EXPECT_EQ(groups[1], (std::vector<wli::FactKey>{300, 400, 500}));
  EXPECT_EQ(groups, warm);
  EXPECT_EQ(allocs, 1 + groups.size());  // the outer vector and each group
}

}  // namespace
}  // namespace viator::net
