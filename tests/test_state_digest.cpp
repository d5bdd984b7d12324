// The memoized state digest against its oracle.
//
// WanderingNetwork::MixDigest reuses per-ship digests, the clusters' and
// demand's running multiset digests and a topology digest cached by
// generation. MixDigestUncached walks every field instead. These tests hash
// after every window or phase of a run, so a route that changes state
// without marking its cache stale shows up as a mismatch at the next hash.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "base/hash.h"
#include "base/rng.h"
#include "core/wandering_network.h"
#include "genesis/manager.h"
#include "net/topology.h"
#include "replay/journal.h"
#include "services/gossip.h"
#include "shard/plan.h"
#include "shard/sharded_network.h"
#include "sim/simulator.h"
#include "vm/assembler.h"

namespace viator {
namespace {

std::uint64_t Cached(const wli::WanderingNetwork& network) {
  Hasher hasher;
  network.MixDigest(hasher);
  return hasher.digest();
}

std::uint64_t Uncached(const wli::WanderingNetwork& network) {
  Hasher hasher;
  network.MixDigestUncached(hasher);
  return hasher.digest();
}

// ---- Sharded mesh: every window, at 1 and 4 threads -------------------------

class ShardedOracle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardedOracle, EveryWindowHashEqualsTheUncachedWalk) {
  constexpr std::size_t kSide = 32;
  constexpr std::size_t kShards = 4;
  shard::ShardedConfig config;
  config.shard_count = kShards;
  config.threads = GetParam();
  config.hash_every = 1;
  config.assignment = shard::GridRowBands(kSide, kSide, kShards);
  shard::ShardedNetwork world(net::MakeGrid(kSide, kSide), config);

  Rng input(41);
  for (std::size_t step = 0; step < 24; ++step) {
    for (std::size_t k = 0; k < 48; ++k) {
      const auto src = static_cast<net::NodeId>(input.Index(kSide * kSide));
      const auto dst = static_cast<net::NodeId>(input.Index(kSide * kSide));
      if (src != dst) {
        (void)world.Inject(src, dst, {static_cast<std::int64_t>(step)},
                           1 + step * 64 + k);
      }
    }
    if (step == 12) world.PulseAll();
    for (std::size_t w = 0; w < 4; ++w) {
      world.RunWindows(1);
      // The hashes the workers took for this window: the window's last
      // records are one kShardHash per shard and the merged kWindowHash.
      std::vector<std::uint64_t> recorded(kShards, 0);
      const replay::DecisionJournal& journal = world.journal();
      ASSERT_GE(journal.size(), kShards + 1);
      for (std::size_t i = journal.size() - kShards - 1; i < journal.size();
           ++i) {
        const replay::JournalRecord& record = journal.at(i);
        if (record.kind == replay::RecordKind::kShardHash &&
            record.time == static_cast<sim::TimePoint>(world.window_index())) {
          recorded[record.stream] = record.a;
        }
      }
      for (shard::ShardId s = 0; s < kShards; ++s) {
        const wli::WanderingNetwork& network = world.shard_network(s);
        const std::uint64_t oracle = Uncached(network);
        ASSERT_EQ(recorded[s], oracle)
            << "shard " << s << " window " << world.window_index();
        ASSERT_EQ(Cached(network), oracle)
            << "shard " << s << " window " << world.window_index();
      }
    }
  }
  world.RunUntilQuiescent();
  EXPECT_GT(world.Delivered(), 0u);
  EXPECT_GT(world.stats().CounterValue("shard.handoffs"), 0u);
  for (shard::ShardId s = 0; s < kShards; ++s) {
    EXPECT_EQ(Cached(world.shard_network(s)),
              Uncached(world.shard_network(s)));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ShardedOracle, ::testing::Values(1u, 4u),
                         [](const ::testing::TestParamInfo<std::size_t>& p) {
                           return "threads" + std::to_string(p.param);
                         });

// ---- A paper-mix-shaped world: VM, gossip, pulses, link flips, genesis ------

// Folds payload[0] with `salt`, stores the result as fact `key` and emits it.
std::string FoldProgram(int key, int salt) {
  return "  push 0\n  sys payload\n  push " + std::to_string(salt) +
         "\n  add\n  store 0\n  push " + std::to_string(key) +
         "\n  load 0\n  push 100\n  sys put_fact\n  pop\n"
         "  load 0\n  sys emit\n  pop\n  halt\n";
}

TEST(PaperMixOracle, EveryPhaseAndTheRestoreEqualTheUncachedWalk) {
  constexpr std::size_t kSide = 8;
  constexpr std::uint64_t kSeed = 7;
  sim::Simulator simulator;
  net::Topology topology = net::MakeGrid(kSide, kSide);
  wli::WanderingNetwork network(simulator, topology, wli::WnConfig{}, kSeed);
  network.PopulateAllNodes();
  Rng input(17);

  auto check = [&](const std::string& where) {
    ASSERT_EQ(Cached(network), Uncached(network)) << where;
  };
  check("populated");

  std::vector<Digest> programs;
  for (int i = 0; i < 6; ++i) {
    auto program =
        vm::Assemble("oracle-" + std::to_string(i), FoldProgram(500 + i, i));
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    auto digest = network.PublishProgram(
        *program, static_cast<net::NodeId>(input.Index(kSide * kSide)));
    ASSERT_TRUE(digest.ok());
    programs.push_back(*digest);
  }
  check("published");

  services::GossipService gossip(network, {}, Rng(29));
  genesis::GenesisManager genesis(network);
  std::vector<std::byte> checkpoint;
  std::uint64_t checkpoint_hash = 0;
  std::size_t down = topology.link_count();
  for (int epoch = 0; epoch < 12; ++epoch) {
    const std::string at = "epoch " + std::to_string(epoch) + ": ";
    if (down < topology.link_count()) topology.SetLinkUp(down, true);
    down = input.Index(topology.link_count());
    topology.SetLinkUp(down, false);
    check(at + "link flip");

    for (int k = 0; k < 24; ++k) {
      const auto src = static_cast<net::NodeId>(input.Index(kSide * kSide));
      auto dst = static_cast<net::NodeId>(input.Index(kSide * kSide - 1));
      if (dst >= src) ++dst;
      wli::Shuttle shuttle = wli::Shuttle::Data(
          src, dst, {static_cast<std::int64_t>(input.UniformInt(0, 999))},
          static_cast<std::uint64_t>(epoch * 100 + k + 1));
      shuttle.code_digest = programs[input.Index(programs.size())];
      (void)network.Inject(std::move(shuttle));
    }
    check(at + "inject");
    simulator.RunUntil(simulator.now() + 5 * sim::kMillisecond);
    check(at + "mid-flight");
    gossip.RunRound();
    check(at + "gossip");
    network.Pulse();
    check(at + "pulse");
    simulator.RunAll();
    check(at + "drained");

    if (epoch % 4 == 3) {
      auto snapshot = genesis.CaptureFull();
      ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
      check(at + "capture");
      checkpoint = std::move(*snapshot);
      checkpoint_hash = Uncached(network);
    }
  }
  EXPECT_GT(network.stats().GetHistogram("wn.exec_fuel").count(), 0u);
  EXPECT_GT(gossip.shuttles_sent(), 0u);

  sim::Simulator fresh_simulator;
  net::Topology fresh_topology;
  wli::WanderingNetwork fresh(fresh_simulator, fresh_topology, wli::WnConfig{},
                              kSeed);
  // Warm the empty network's memos first: the restore must replace them.
  (void)Cached(fresh);
  genesis::GenesisManager restorer(fresh);
  ASSERT_TRUE(restorer.RestoreFull(checkpoint).ok());
  EXPECT_EQ(Uncached(fresh), checkpoint_hash);
  EXPECT_EQ(Cached(fresh), checkpoint_hash);
}

}  // namespace
}  // namespace viator
