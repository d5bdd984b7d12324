#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "alloc_count.h"
#include "base/hash.h"
#include "base/rng.h"
#include "core/shuttle.h"
#include "core/wandering_network.h"
#include "genesis/manager.h"
#include "net/topology.h"
#include "services/gossip.h"
#include "shard/sharded_network.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "vm/assembler.h"

namespace ladder {

namespace {

using viator::DeriveSubstreamSeed;
using viator::Hasher;
using viator::Rng;
namespace net = viator::net;
namespace sim = viator::sim;
namespace wli = viator::wli;

/// Flow ids of benchmark-injected data shuttles start here, so delivery
/// sinks can tell them from shuttles the network sends itself.
constexpr std::uint64_t kFlowBase = std::uint64_t{1} << 40;

// Independent input streams drawn from the run seed.
constexpr std::uint64_t kNetworkStream = 1;
constexpr std::uint64_t kInputStream = 2;
constexpr std::uint64_t kGossipStream = 3;

/// RAII frame for the traced run; a no-op without a tracer.
class Scope {
 public:
  Scope(Tracer* tracer, Layer layer) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Enter(layer);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->Exit();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

/// Timing hooks of one WanderingNetwork for the traced run: the dispatch
/// hook opens a frame before every event callback and the observer closes
/// it, classing the event as VM work when the fuel histogram grew; a
/// NextHopChooser times Topology::NextHop and returns its answer. Remove()
/// uninstalls everything, so warm-up and drain stay untraced.
class NetworkProbes {
 public:
  NetworkProbes(Tracer& tracer, wli::WanderingNetwork& network)
      : tracer_(tracer),
        network_(network),
        fuel_(network.stats().GetHistogram("wn.exec_fuel")) {
    network_.simulator().SetDispatchHook(&NetworkProbes::OnDispatch, this);
    network_.simulator().SetDispatchObserver(
        [this](const char*, sim::TimePoint, sim::Duration, std::uint64_t) {
          const bool vm = fuel_.count() != fuel_at_enter_;
          tracer_.ExitAs(vm ? Layer::kVm : Layer::kDispatch);
          event_ns_ += tracer_.last_inclusive_ns();
        });
    network_.SetNextHopChooser(
        [this](net::NodeId at, const wli::Shuttle& shuttle) {
          const net::Topology& topology = network_.topology();
          const std::uint64_t misses = topology.route_cache_stats().misses;
          tracer_.Enter(Layer::kRoute, /*span=*/false);
          const net::NodeId next =
              topology.NextHop(at, shuttle.header.destination);
          tracer_.Exit();
          if (topology.route_cache_stats().misses != misses) {
            route_fill_ns_ += tracer_.last_inclusive_ns();
          }
          return next;
        });
  }
  ~NetworkProbes() { Remove(); }
  NetworkProbes(const NetworkProbes&) = delete;
  NetworkProbes& operator=(const NetworkProbes&) = delete;

  void Remove() {
    network_.simulator().SetDispatchHook(nullptr, nullptr);
    network_.simulator().SetDispatchObserver(nullptr);
    network_.SetNextHopChooser(nullptr);
  }

  std::uint64_t event_ns() const { return event_ns_; }
  std::uint64_t route_fill_ns() const { return route_fill_ns_; }

 private:
  static void OnDispatch(void* ctx, sim::TimePoint, std::uint64_t) {
    auto* self = static_cast<NetworkProbes*>(ctx);
    self->fuel_at_enter_ = self->fuel_.count();
    self->tracer_.Enter(Layer::kDispatch, /*span=*/false);
  }

  Tracer& tracer_;
  wli::WanderingNetwork& network_;
  sim::Histogram& fuel_;
  std::uint64_t fuel_at_enter_ = 0;
  std::uint64_t event_ns_ = 0;
  std::uint64_t route_fill_ns_ = 0;
};

/// Public counters of one network, read at the edges of the timed phase.
struct NetCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t executions = 0;
  std::uint64_t instructions = 0;
  std::uint64_t code_misses = 0;

  static NetCounters Read(wli::WanderingNetwork& network) {
    NetCounters c;
    const auto& route = network.topology().route_cache_stats();
    c.hits = route.hits;
    c.misses = route.misses;
    c.evictions = route.evictions;
    c.invalidations = route.invalidations;
    c.frames = network.fabric().frames_delivered();
    c.bytes = network.fabric().bytes_sent();
    const sim::Histogram& fuel = network.stats().GetHistogram("wn.exec_fuel");
    c.executions = fuel.count();
    c.instructions = static_cast<std::uint64_t>(fuel.sum());
    network.ForEachShip(
        [&c](wli::Ship& ship) { c.code_misses += ship.code_misses(); });
    return c;
  }
};

void AddDelta(LayerCounts& counts, const NetCounters& before,
              const NetCounters& after) {
  counts.route_hits += after.hits - before.hits;
  counts.route_fills += after.misses - before.misses;
  counts.route_evictions += after.evictions - before.evictions;
  counts.route_invalidations += after.invalidations - before.invalidations;
  counts.fabric_frames += after.frames - before.frames;
  counts.fabric_bytes += after.bytes - before.bytes;
  counts.vm_executions += after.executions - before.executions;
  counts.vm_instructions += after.instructions - before.instructions;
  counts.code_misses += after.code_misses - before.code_misses;
}

/// Shuttles the network lost instead of delivering, by any cause.
std::uint64_t Losses(wli::WanderingNetwork& network) {
  const auto& stats = network.stats();
  return stats.CounterValue("wn.ttl_expired") +
         stats.CounterValue("wn.unroutable") +
         stats.CounterValue("wn.excluded_dropped") +
         stats.CounterValue("wn.pending_overflow") +
         stats.CounterValue("wn.dock_rejected") +
         stats.CounterValue("wn.exec_rejected") +
         network.fabric().frames_dropped();
}

void CheckNetwork(wli::WanderingNetwork& network, const std::string& where,
                  std::vector<std::string>& errors) {
  const auto& stats = network.stats();
  for (const char* counter :
       {"wn.exec_faults", "wn.exec_rejected", "wn.code_request_miss",
        "wn.pending_overflow", "wn.boundary_unhandled"}) {
    if (const std::uint64_t n = stats.CounterValue(counter); n != 0) {
      errors.push_back(where + ": " + counter + " = " + std::to_string(n));
    }
  }
}

/// Every injected shuttle is delivered or lost to a counted cause.
void CheckAccounting(const Fingerprint& fp, std::uint64_t losses,
                     std::vector<std::string>& errors) {
  if (fp.delivered > fp.injected || fp.injected - fp.delivered > losses) {
    errors.push_back("accounting: injected " + std::to_string(fp.injected) +
                     ", delivered " + std::to_string(fp.delivered) +
                     ", counted losses " + std::to_string(losses));
  }
}

/// A WanderingNetwork with its borrowed simulator and topology. Heap-held:
/// the network keeps references to both.
struct World {
  sim::Simulator simulator;
  net::Topology topology;
  std::unique_ptr<wli::WanderingNetwork> network;
  std::uint64_t delivered = 0;  // benchmark data shuttles consumed

  World(net::Topology topo, std::uint64_t seed) : topology(std::move(topo)) {
    network = std::make_unique<wli::WanderingNetwork>(
        simulator, topology, wli::WnConfig{},
        DeriveSubstreamSeed(seed, kNetworkStream));
    network->PopulateAllNodes();
    // Created up front in every run, so traced and untraced runs snapshot
    // the same stats registry.
    (void)network->stats().GetHistogram("wn.exec_fuel");
    network->ForEachShip([this](wli::Ship& ship) {
      ship.SetDeliverySink([this](wli::Ship&, const wli::Shuttle& shuttle) {
        if (shuttle.header.kind == wli::ShuttleKind::kData &&
            shuttle.header.flow_id >= kFlowBase) {
          ++delivered;
        }
      });
    });
  }
};

std::size_t Manhattan(std::size_t side, std::size_t a, std::size_t b) {
  const auto ra = a / side, ca = a % side, rb = b / side, cb = b % side;
  return (ra > rb ? ra - rb : rb - ra) + (ca > cb ? ca - cb : cb - ca);
}

/// Runs `warm` untimed then `timed` timed steps of `step`, adding the timed
/// phase to `result`. `active` (which the step reads) holds the traced
/// pass's tracer during the timed steps only, each inside a root frame, and
/// is null otherwise.
template <typename Step, typename ReadCounters>
void RunSteps(std::size_t warm, std::size_t timed, Tracer* tracer,
              Tracer*& active, PassResult& result, Step&& step,
              ReadCounters&& read_counters) {
  active = nullptr;
  for (std::size_t i = 0; i < warm; ++i) step(i);
  read_counters(/*before=*/true);
  active = tracer;
  const std::uint64_t allocs0 = AllocCount();
  const std::uint64_t phase0 = NowNs();
  result.step_ms.reserve(result.step_ms.size() + timed);
  for (std::size_t i = warm; i < warm + timed; ++i) {
    const std::uint64_t t0 = NowNs();
    {
      Scope root(active, Layer::kLoop);
      step(i);
    }
    result.step_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  result.timed_s += static_cast<double>(NowNs() - phase0) / 1e9;
  result.timed_allocs += AllocCount() - allocs0;
  active = nullptr;
  read_counters(/*before=*/false);
}

// ---- grid-forward -----------------------------------------------------------

PassResult RunGridForward(const PassOptions& options) {
  struct Params {
    std::size_t side, flows, hops, inject_every, warm, timed, cache_rows;
  };
  // Long flows on the 10k-ship grid, all exactly `hops` apart. Every 4th
  // 1 ms slice the next flow of a Zipf-weighted schedule sends a burst of
  // kBurst shuttles, so ~8 bursts are in flight and ~8 forwarding sources
  // are touched per step: the flows pass through ~8k distinct sources, far
  // more than the 256 cached rows. The burst's lead shuttle fills each row
  // its followers hit. Equal path lengths and a smooth weighted round-robin
  // schedule (each flow's bursts evenly spaced, in proportion to its Zipf
  // weight) keep the work per step, and so the cost per event, the same
  // from seed to seed; the seed draws where the flows run. 32 hops keep the
  // warm-up and drain short, so a run holds many passes.
  const Params p = options.smoke ? Params{24, 32, 16, 4, 20, 60, 16}
                                 : Params{104, 256, 32, 4, 36, 120, 256};
  constexpr std::size_t kBurst = 4;
  constexpr double kSkew = 1.0;
  constexpr sim::Duration kSlice = sim::kMillisecond;

  PassResult result;
  const std::uint64_t setup0 = NowNs();
  auto world =
      std::make_unique<World>(net::MakeGrid(p.side, p.side), options.seed);
  world->topology.SetRouteCacheCapacity(p.cache_rows);
  result.setup_s = static_cast<double>(NowNs() - setup0) / 1e9;
  if (options.setup_only) return result;

  wli::WanderingNetwork& network = *world->network;
  Rng input(DeriveSubstreamSeed(options.seed, kInputStream));
  const std::size_t nodes = p.side * p.side;
  std::vector<std::pair<net::NodeId, net::NodeId>> flows;
  while (flows.size() < p.flows) {
    const auto src = static_cast<net::NodeId>(input.Index(nodes));
    const auto dst = static_cast<net::NodeId>(input.Index(nodes));
    if (Manhattan(p.side, src, dst) == p.hops) flows.emplace_back(src, dst);
  }
  std::vector<double> weight(p.flows);
  std::vector<double> credit(p.flows, 0.0);
  double total_weight = 0.0;
  for (std::size_t rank = 0; rank < p.flows; ++rank) {
    weight[rank] = 1.0 / std::pow(static_cast<double>(rank + 1), kSkew);
    total_weight += weight[rank];
  }
  auto next_flow = [&] {
    std::size_t best = 0;
    for (std::size_t f = 0; f < p.flows; ++f) {
      credit[f] += weight[f];
      if (credit[f] > credit[best]) best = f;
    }
    credit[best] -= total_weight;
    return best;
  };

  std::uint64_t injected = 0;
  Tracer* const tracer = options.tracer;
  Tracer* active = nullptr;
  auto step = [&](std::size_t i) {
    if (i % p.inject_every == 0) {
      const std::size_t flow = next_flow();
      Scope scope(active, Layer::kDispatch);
      for (std::size_t k = 0; k < kBurst; ++k) {
        ++injected;
        (void)network.Inject(wli::Shuttle::Data(
            flows[flow].first, flows[flow].second,
            {static_cast<std::int64_t>(i)}, kFlowBase + flow));
      }
    }
    Scope scope(active, Layer::kSim);
    world->simulator.RunUntil(world->simulator.now() + kSlice);
  };

  std::unique_ptr<NetworkProbes> probes;
  NetCounters before;
  std::uint64_t events0 = 0;
  RunSteps(p.warm, p.timed, tracer, active, result, step, [&](bool start) {
    if (start) {
      before = NetCounters::Read(network);
      events0 = world->simulator.dispatched();
      if (tracer != nullptr) {
        probes = std::make_unique<NetworkProbes>(*tracer, network);
      }
      return;
    }
    result.timed_events = world->simulator.dispatched() - events0;
    AddDelta(result.counts, before, NetCounters::Read(network));
    if (probes) {
      result.counts.route_fill_ns = probes->route_fill_ns();
      probes.reset();
    }
  });
  result.counts.route_cache_peak_bytes = world->topology.route_cache_bytes();
  result.counts.queue_peak = world->simulator.max_queue_depth();

  world->simulator.RunAll();
  Fingerprint& fp = result.fingerprint;
  fp.events = world->simulator.dispatched();
  fp.injected = injected;
  fp.delivered = world->delivered;
  fp.frames = network.fabric().frames_delivered();
  fp.route_fills = world->topology.route_cache_stats().misses;
  Hasher hasher;
  network.MixDigest(hasher);
  result.state_hash = hasher.digest();
  CheckNetwork(network, "grid-forward", result.errors);
  CheckAccounting(fp, Losses(network), result.errors);
  return result;
}

// ---- sharded-mesh -----------------------------------------------------------

PassResult RunShardedMesh(const PassOptions& options) {
  struct Params {
    std::size_t side, per_step, windows_per_step, warm, timed;
  };
  // Random pairs on 4 row bands of a 32x32 grid, most crossing a band
  // boundary through its column-0 gateway. Routes are kept within the
  // default 64-hop TTL (the sharded Inject does not take one).
  const Params p = options.smoke ? Params{16, 24, 5, 10, 30}
                                 : Params{32, 160, 10, 30, 150};
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kMaxHops = 60;

  PassResult result;
  Tracer* const tracer = options.tracer;
  Tracer* active = nullptr;
  const std::uint64_t setup0 = NowNs();
  viator::shard::ShardedConfig config;
  config.shard_count = kShards;
  config.threads = options.threads;
  config.seed = DeriveSubstreamSeed(options.seed, kNetworkStream);
  config.assignment = viator::shard::GridRowBands(p.side, p.side, kShards);
  // The traced run hashes from outside, once per window, so the hash gets
  // its own frame; the untraced run keeps the default per-window hashing.
  config.hash_every = tracer != nullptr ? 0 : 1;
  auto world = std::make_unique<viator::shard::ShardedNetwork>(
      net::MakeGrid(p.side, p.side), config);
  result.setup_s = static_cast<double>(NowNs() - setup0) / 1e9;
  if (options.setup_only) return result;

  const viator::shard::ShardPlan& plan = world->plan();
  // Exact hop count of the sharded route: shortest in-band path to each
  // exit gateway, one hop across, then on to the destination.
  auto route_hops = [&](std::size_t src, std::size_t dst) {
    std::size_t hops = 0;
    std::size_t cur = src;
    while (plan.shard_of(cur) != plan.shard_of(dst)) {
      const auto& link = plan.cross_links()[plan.RouteLink(
          plan.shard_of(cur), plan.shard_of(dst))];
      const bool from_a = link.shard_a == plan.shard_of(cur);
      hops += Manhattan(p.side, cur, from_a ? link.a : link.b) + 1;
      cur = from_a ? link.b : link.a;
    }
    return hops + Manhattan(p.side, cur, dst);
  };

  Rng input(DeriveSubstreamSeed(options.seed, kInputStream));
  const std::size_t nodes = p.side * p.side;
  std::uint64_t injected = 0;
  std::vector<std::unique_ptr<NetworkProbes>> probes;
  auto step = [&](std::size_t i) {
    {
      Scope scope(active, Layer::kDispatch);
      for (std::size_t k = 0; k < p.per_step; ++k) {
        std::size_t src = 0;
        std::size_t dst = 0;
        do {
          src = input.Index(nodes);
          dst = input.Index(nodes);
        } while (src == dst || route_hops(src, dst) > kMaxHops);
        ++injected;
        (void)world->Inject(static_cast<net::NodeId>(src),
                            static_cast<net::NodeId>(dst),
                            {static_cast<std::int64_t>(i)},
                            kFlowBase + injected);
      }
    }
    if (active == nullptr) {
      world->RunWindows(p.windows_per_step);
      return;
    }
    for (std::size_t w = 0; w < p.windows_per_step; ++w) {
      // Shard wall (executor-measured) minus event callback time is the
      // simulators' own loop time; the rest of RunWindows is barrier work.
      std::uint64_t wall0 = 0, events0 = 0;
      for (const auto& totals : world->observatory().totals()) {
        wall0 += totals.wall_ns;
      }
      for (const auto& probe : probes) events0 += probe->event_ns();
      active->Enter(Layer::kMerge);
      world->RunWindows(1);
      std::uint64_t wall1 = 0, events1 = 0;
      for (const auto& totals : world->observatory().totals()) {
        wall1 += totals.wall_ns;
      }
      for (const auto& probe : probes) events1 += probe->event_ns();
      const std::uint64_t shard_ns = wall1 - wall0;
      const std::uint64_t event_ns = events1 - events0;
      active->ExitSplit(Layer::kSim,
                        shard_ns > event_ns ? shard_ns - event_ns : 0);
      Scope hash(active, Layer::kHash);
      (void)world->StateHash();
    }
  };

  std::vector<NetCounters> before(kShards);
  std::uint64_t events0 = 0, handoffs0 = 0;
  RunSteps(p.warm, p.timed, tracer, active, result, step, [&](bool start) {
    if (start) {
      for (std::size_t s = 0; s < kShards; ++s) {
        before[s] = NetCounters::Read(world->shard_network(s));
        if (tracer != nullptr) {
          probes.push_back(std::make_unique<NetworkProbes>(
              *tracer, world->shard_network(s)));
        }
      }
      events0 = world->total_dispatched();
      handoffs0 = world->stats().CounterValue("shard.handoffs");
      return;
    }
    result.timed_events = world->total_dispatched() - events0;
    result.counts.handoffs =
        world->stats().CounterValue("shard.handoffs") - handoffs0;
    for (std::size_t s = 0; s < kShards; ++s) {
      AddDelta(result.counts, before[s],
               NetCounters::Read(world->shard_network(s)));
    }
    for (const auto& probe : probes) {
      result.counts.route_fill_ns += probe->route_fill_ns();
    }
    probes.clear();
  });
  for (std::size_t s = 0; s < kShards; ++s) {
    result.counts.route_cache_peak_bytes +=
        world->shard_network(s).topology().route_cache_bytes();
    result.counts.queue_peak = std::max<std::uint64_t>(
        result.counts.queue_peak,
        world->shard_simulator(s).max_queue_depth());
  }

  world->RunUntilQuiescent();
  Fingerprint& fp = result.fingerprint;
  fp.events = world->total_dispatched();
  fp.injected = injected;
  fp.delivered = world->Delivered();
  std::uint64_t losses =
      world->stats().CounterValue("shard.handoffs_unroutable");
  for (std::size_t s = 0; s < kShards; ++s) {
    wli::WanderingNetwork& network = world->shard_network(s);
    fp.frames += network.fabric().frames_delivered();
    fp.route_fills += network.topology().route_cache_stats().misses;
    losses += Losses(network);
    CheckNetwork(network, "shard " + std::to_string(s), result.errors);
  }
  result.state_hash = world->StateHash();
  CheckAccounting(fp, losses, result.errors);
  if (!world->IsQuiescent()) {
    result.errors.push_back("sharded-mesh: world did not drain");
  }
  return result;
}

// ---- paper-mix ----------------------------------------------------------------

/// One WanderScript program: fold `rounds` rounds over the shuttle payload,
/// store the result as a fact and emit it.
std::string ProgramSource(std::int64_t key, std::int64_t rounds,
                          std::int64_t salt) {
  const std::string k = std::to_string(key);
  const std::string r = std::to_string(rounds);
  const std::string s = std::to_string(salt);
  return "  push 0\n  store 0\n  push " + s +
         "\n  store 1\n"
         "loop:\n  load 0\n  push " + r +
         "\n  lt\n  jz done\n"
         "  load 1\n  push 31\n  mul\n  load 0\n  sys payload\n  add\n"
         "  push 1048575\n  and\n  store 1\n"
         "  load 0\n  push 1\n  add\n  store 0\n  jmp loop\n"
         "done:\n  push " + k +
         "\n  load 1\n  push 100\n  sys put_fact\n  pop\n"
         "  load 1\n  sys emit\n  pop\n  halt\n";
}

struct PaperMixParams {
  std::size_t side, worlds, programs, per_epoch, checkpoint_every, warm,
      timed;
};

/// One paper-mix world, built from `seed`: warm-up and timed epochs, then
/// the checks. Adds its set-up time, timed phase, counts and fingerprint to
/// `result` and its final state hash to `state`.
void RunPaperWorld(const PassOptions& options, const PaperMixParams& p,
                   std::uint64_t seed, PassResult& result, Hasher& state) {
  constexpr double kSkew = 1.0;
  constexpr sim::Duration kInjectPhase = 20 * sim::kMillisecond;

  Tracer* const tracer = options.tracer;
  Tracer* active = nullptr;
  Rng input(DeriveSubstreamSeed(seed, kInputStream));
  const std::size_t nodes = p.side * p.side;

  const std::uint64_t setup0 = NowNs();
  auto world = std::make_unique<World>(net::MakeGrid(p.side, p.side), seed);
  wli::WanderingNetwork& network = *world->network;
  std::vector<viator::Digest> programs;
  for (std::size_t i = 0; i < p.programs; ++i) {
    // Rounds are fixed by popularity rank, so the VM work of an epoch is
    // the same for every seed; the seed draws salts and origins.
    const auto rounds = static_cast<std::int64_t>(8 + (i * 17) % 41);
    const auto salt = static_cast<std::int64_t>(input.UniformInt(1, 1000));
    auto program = viator::vm::Assemble(
        "ladder-" + std::to_string(i),
        ProgramSource(static_cast<std::int64_t>(1000 + i), rounds, salt));
    if (!program.ok()) {
      result.errors.push_back("assemble: " + program.status().ToString());
      return;
    }
    auto digest = network.PublishProgram(
        *program, static_cast<net::NodeId>(input.Index(nodes)));
    if (!digest.ok()) {
      result.errors.push_back("publish: " + digest.status().ToString());
      return;
    }
    programs.push_back(*digest);
  }
  viator::services::GossipService gossip(
      network, {}, Rng(DeriveSubstreamSeed(seed, kGossipStream)));
  viator::genesis::GenesisManager genesis(network);
  result.setup_s += static_cast<double>(NowNs() - setup0) / 1e9;
  if (options.setup_only) return;

  std::uint64_t injected = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t captures = 0;
  std::uint64_t timed_snapshot_bytes = 0;
  std::vector<std::byte> last_checkpoint;
  std::uint64_t last_checkpoint_hash = 0;
  std::size_t down_link = world->topology.link_count();
  auto step = [&](std::size_t epoch) {
    // 1. Fail one link for this epoch (the previous one recovers); both
    //    writes invalidate every cached route row.
    if (down_link < world->topology.link_count()) {
      world->topology.SetLinkUp(down_link, true);
    }
    down_link = input.Index(world->topology.link_count());
    world->topology.SetLinkUp(down_link, false);
    // 2. Code shuttles over a Zipf population of programs.
    {
      Scope scope(active, Layer::kDispatch);
      for (std::size_t k = 0; k < p.per_epoch; ++k) {
        const auto src = static_cast<net::NodeId>(input.Index(nodes));
        auto dst = static_cast<net::NodeId>(input.Index(nodes - 1));
        if (dst >= src) ++dst;
        wli::Shuttle shuttle = wli::Shuttle::Data(
            src, dst,
            {static_cast<std::int64_t>(input.UniformInt(0, 1 << 20)),
             static_cast<std::int64_t>(epoch)},
            kFlowBase + injected);
        shuttle.code_digest = programs[input.Zipf(programs.size(), kSkew)];
        ++injected;
        (void)network.Inject(std::move(shuttle));
      }
    }
    {
      Scope scope(active, Layer::kSim);
      world->simulator.RunUntil(world->simulator.now() + kInjectPhase);
    }
    // 3. One gossip round and one metamorphosis pulse, then drain.
    {
      Scope scope(active, Layer::kGossip);
      gossip.RunRound();
    }
    {
      Scope scope(active, Layer::kPulse);
      network.Pulse();
    }
    {
      Scope scope(active, Layer::kSim);
      world->simulator.RunAll();
    }
    // 4. Checkpoint at the quiescent epoch boundary.
    if (epoch % p.checkpoint_every == p.checkpoint_every - 1) {
      if (active != nullptr) active->Enter(Layer::kCapture);
      viator::Result<std::vector<std::byte>> snapshot = genesis.CaptureFull();
      if (active != nullptr) active->Exit();
      if (!snapshot.ok()) {
        result.errors.push_back("capture: " + snapshot.status().ToString());
        return;
      }
      snapshot_bytes += snapshot->size();
      ++captures;
      timed_snapshot_bytes += snapshot->size();
      last_checkpoint = std::move(*snapshot);
      Hasher hasher;
      network.MixDigest(hasher);
      last_checkpoint_hash = hasher.digest();
    }
  };

  std::unique_ptr<NetworkProbes> probes;
  NetCounters before;
  std::uint64_t events0 = 0;
  RunSteps(p.warm, p.timed, tracer, active, result, step, [&](bool start) {
    if (start) {
      before = NetCounters::Read(network);
      events0 = world->simulator.dispatched();
      captures = 0;
      timed_snapshot_bytes = 0;
      if (tracer != nullptr) {
        probes = std::make_unique<NetworkProbes>(*tracer, network);
      }
      return;
    }
    result.timed_events += world->simulator.dispatched() - events0;
    AddDelta(result.counts, before, NetCounters::Read(network));
    if (probes) {
      result.counts.route_fill_ns += probes->route_fill_ns();
      probes.reset();
    }
  });
  result.counts.captures += captures;
  result.counts.snapshot_bytes += timed_snapshot_bytes;
  result.counts.route_cache_peak_bytes = std::max<std::uint64_t>(
      result.counts.route_cache_peak_bytes,
      world->topology.route_cache_bytes());
  result.counts.queue_peak = std::max<std::uint64_t>(
      result.counts.queue_peak, world->simulator.max_queue_depth());

  Fingerprint& fp = result.fingerprint;
  fp.events += world->simulator.dispatched();
  fp.injected += injected;
  fp.delivered += world->delivered;
  fp.frames += network.fabric().frames_delivered();
  fp.vm_instructions += static_cast<std::uint64_t>(
      network.stats().GetHistogram("wn.exec_fuel").sum());
  fp.route_fills += world->topology.route_cache_stats().misses;
  fp.snapshot_bytes += snapshot_bytes;
  Hasher hasher;
  network.MixDigest(hasher);
  state.Mix(hasher.digest());
  CheckNetwork(network, "paper-mix", result.errors);
  Fingerprint world_fp;
  world_fp.injected = injected;
  world_fp.delivered = world->delivered;
  CheckAccounting(world_fp, Losses(network), result.errors);

  // The last checkpoint restored into a fresh network reproduces the state
  // hash the source had when it was captured.
  if (last_checkpoint.empty()) {
    result.errors.push_back("paper-mix: no checkpoint captured");
    return;
  }
  sim::Simulator fresh_simulator;
  net::Topology fresh_topology;
  wli::WanderingNetwork fresh(fresh_simulator, fresh_topology, wli::WnConfig{},
                              DeriveSubstreamSeed(seed, kNetworkStream));
  viator::genesis::GenesisManager restorer(fresh);
  const std::uint64_t restore0 = NowNs();
  const viator::Status restored = restorer.RestoreFull(last_checkpoint);
  result.counts.restore_ns += NowNs() - restore0;
  ++result.counts.restores;
  Hasher restored_hasher;
  fresh.MixDigest(restored_hasher);
  if (!restored.ok()) {
    result.errors.push_back("restore: " + restored.ToString());
  } else if (restored_hasher.digest() != last_checkpoint_hash) {
    result.errors.push_back("restore: state hash differs from the source");
  }
}

/// Several independent worlds per pass, each from its own sub-seed of the
/// run seed: some seeds grow a world whose snapshots are a quarter larger,
/// and averaging over worlds keeps one such world from setting a run's
/// numbers.
PassResult RunPaperMix(const PassOptions& options) {
  const PaperMixParams p = options.smoke
                               ? PaperMixParams{8, 2, 8, 12, 4, 2, 8}
                               : PaperMixParams{16, 4, 32, 48, 4, 4, 24};
  constexpr std::uint64_t kWorldStreamBase = 16;
  PassResult result;
  Hasher state;
  for (std::size_t w = 0; w < p.worlds && result.errors.empty(); ++w) {
    RunPaperWorld(options, p,
                  DeriveSubstreamSeed(options.seed, kWorldStreamBase + w),
                  result, state);
  }
  result.state_hash = state.digest();
  return result;
}

}  // namespace

std::string Fingerprint::ToString() const {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "events=%llu injected=%llu delivered=%llu frames=%llu "
                "vm_instructions=%llu route_fills=%llu snapshot_bytes=%llu",
                static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(injected),
                static_cast<unsigned long long>(delivered),
                static_cast<unsigned long long>(frames),
                static_cast<unsigned long long>(vm_instructions),
                static_cast<unsigned long long>(route_fills),
                static_cast<unsigned long long>(snapshot_bytes));
  return buffer;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"grid-forward",
       "10k-ship grid, Zipf long flows: forwarding working set exceeds the "
       "256-row route cache, so BFS row fills set host time",
       &RunGridForward, false},
      {"sharded-mesh",
       "4 row-band shards at threads=1 with heavy cross-shard load: routes "
       "stay cached, host time goes to queue, fabric, ship, merge and hashing",
       &RunShardedMesh, true},
      {"paper-mix",
       "4 worlds per pass of code shuttles through the VM, gossip, PMP "
       "pulses, link failures and checkpoints: the only workload that "
       "exercises vm/services/genesis",
       &RunPaperMix, false},
  };
  return workloads;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& workload : Workloads()) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

}  // namespace ladder
