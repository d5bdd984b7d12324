#include "shard/sharded_network.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <string>
#include <utility>

#include "base/rng.h"
#include "base/tlv.h"
#include "telemetry/perf_counters.h"
#include "telemetry/shard_metrics.h"

namespace viator::shard {

namespace {

// Checkpoint container tags (outer stream).
constexpr TlvTag kTagWindowIndex = 0x01;
constexpr TlvTag kTagShardCount = 0x02;
constexpr TlvTag kTagClamped = 0x03;
constexpr TlvTag kTagUnroutable = 0x04;
constexpr TlvTag kTagJournal = 0x05;
constexpr TlvTag kTagShard = 0x06;  // one nested record per shard, in order
// Per-shard nested tags.
constexpr TlvTag kTagHandoffSeq = 0x10;
constexpr TlvTag kTagGenesisBlob = 0x11;

}  // namespace

/// One shard's complete private world. Declaration order is construction
/// order: the network borrows the topology and simulator, the genesis
/// manager borrows the network.
struct ShardedNetwork::ShardSlot {
  net::Topology topology;
  sim::Simulator simulator;
  std::unique_ptr<wli::WanderingNetwork> network;
  std::unique_ptr<genesis::GenesisManager> genesis;

  /// Next per-source handoff ordinal (single-writer: this shard's worker).
  std::uint64_t handoff_seq = 0;

  /// Scratch written by this shard's worker only: the shard's state hash for
  /// the window that just ran (valid when the window had hashing due) and
  /// this window's outbound handoff count.
  std::uint64_t window_hash = 0;
  std::uint64_t window_handoffs_out = 0;
  std::uint64_t window_handoffs_in = 0;
  std::uint64_t window_unroutable = 0;

  /// The latency plane's fold of the window that just ran (barrier-written):
  /// delivery quantiles plus the worst-K tail exemplars wnscope's drill-down
  /// table resolves back to trace ids. Empty when the plane is off.
  telemetry::lat::Lane::WindowStats lat_window;
};

ShardedNetwork::ShardedNetwork(const net::Topology& global,
                               const ShardedConfig& config, bool populate)
    : config_(config),
      global_(global),
      mailbox_(config.shard_count == 0 ? 1 : config.shard_count),
      journal_(config.journal),
      observatory_(config.shard_count,
                   config.observatory_window_capacity) {
  const ShardAssignment assignment = config_.assignment
                                         ? config_.assignment
                                         : ContiguousBlocks(config_.shard_count);
  Result<ShardPlan> plan = BuildShardPlan(global_, config_.shard_count,
                                          assignment);
  // An unbuildable plan (shard_count 0, assignment out of range) is a
  // programmer error, not a runtime condition: validate partitioners with
  // BuildShardPlan directly before handing them to a ShardedNetwork.
  assert(plan.ok() && "ShardedConfig does not yield a valid ShardPlan");
  plan_ = std::move(plan).value();

  window_ = plan_.min_cross_latency() > 0 ? plan_.min_cross_latency()
                                          : config_.default_window;
  window_ = std::max<sim::Duration>(1, window_);

  Hasher plan_hasher;
  plan_.MixDigest(plan_hasher);
  plan_digest_ = plan_hasher.digest();

  shards_.reserve(plan_.shard_count());
  for (ShardId shard = 0; shard < plan_.shard_count(); ++shard) {
    auto slot = std::make_unique<ShardSlot>();
    if (populate) slot->topology = plan_.LocalTopology(global_, shard);
    slot->network = std::make_unique<wli::WanderingNetwork>(
        slot->simulator, slot->topology, config_.wn,
        DeriveSubstreamSeed(config_.seed, shard));
    if (populate) slot->network->PopulateAllNodes();
    slot->genesis =
        std::make_unique<genesis::GenesisManager>(*slot->network);
    shards_.push_back(std::move(slot));
    simulators_.push_back(&shards_.back()->simulator);
    networks_.push_back(shards_.back()->network.get());
    InstallBoundaryHandler(shard);
  }

  executor_ =
      std::make_unique<sim::ShardedExecutor>(simulators_, config_.threads);
  observatory_.Reset(plan_.shard_count());
  stats_.GetGauge("shard.count").Set(static_cast<double>(plan_.shard_count()));
  stats_.GetGauge("shard.window_ns").Set(static_cast<double>(window_));
}

ShardedNetwork::~ShardedNetwork() = default;

void ShardedNetwork::InstallBoundaryHandler(ShardId shard) {
  networks_[shard]->SetBoundaryHandler(
      [this, shard](wli::Ship& at, wli::Shuttle shuttle, net::NodeId) {
        OnBoundary(shard, at, std::move(shuttle));
      });
}

Status ShardedNetwork::Inject(net::NodeId src, net::NodeId dst,
                              std::vector<std::int64_t> payload,
                              std::uint64_t flow) {
  if (src >= global_.node_count() || dst >= global_.node_count()) {
    return InvalidArgument("inject endpoint outside the global topology");
  }
  const ShardId src_shard = plan_.shard_of(src);
  const ShardId dst_shard = plan_.shard_of(dst);
  if (src_shard == dst_shard) {
    return networks_[src_shard]->Inject(wli::Shuttle::Data(
        plan_.local_of(src), plan_.local_of(dst), std::move(payload), flow));
  }
  const std::size_t route = plan_.RouteLink(src_shard, dst_shard);
  if (route == ShardPlan::kInvalidRoute) {
    return NotFound("destination shard unreachable over cross-shard links");
  }
  const CrossLink& link = plan_.cross_links()[route];
  const net::NodeId exit_global = link.shard_a == src_shard ? link.a : link.b;
  wli::Shuttle shuttle =
      wli::Shuttle::Data(plan_.local_of(src), plan_.local_of(exit_global),
                         std::move(payload), flow);
  shuttle.transit_destination = dst;
  return networks_[src_shard]->Inject(std::move(shuttle));
}

void ShardedNetwork::PulseAll() {
  for (const auto& slot : shards_) slot->network->Pulse();
}

void ShardedNetwork::OnBoundary(ShardId shard, wli::Ship& gateway,
                                wli::Shuttle shuttle) {
  // Worker-thread context: touches only shard-local state and the
  // mutex-striped mailbox. `gateway` is the exit ship the shuttle was
  // addressed to; the exit *link* is recomputed from the plan so the choice
  // never depends on how the shuttle got here.
  VIATOR_PERF_SCOPE(kGatewayRoute);
  (void)gateway;
  ShardSlot& slot = *shards_[shard];
  const ShardId final_shard = plan_.shard_of(shuttle.transit_destination);
  const std::size_t route = plan_.RouteLink(shard, final_shard);
  if (route == ShardPlan::kInvalidRoute) {
    ++slot.window_unroutable;
    return;
  }
  const CrossLink& link = plan_.cross_links()[route];
  const bool from_a = link.shard_a == shard;

  Handoff handoff;
  handoff.arrival_time = slot.simulator.now() + link.config.latency;
  handoff.source_shard = shard;
  handoff.sequence = slot.handoff_seq++;
  handoff.entry_node = from_a ? link.b : link.a;
  if (telemetry::lat::Plane::Enabled() && shuttle.lat_id != 0) {
    // Latency continuity across shards: close the flight out of the source
    // lane and carry its birth time so the destination lane re-seeds it at
    // merge. Observability-only — excluded from the handoff hash.
    handoff.lat_birth = slot.network->lat_lane().Depart(shuttle.lat_id).birth;
  }
  handoff.shuttle = std::move(shuttle);
  ++slot.window_handoffs_out;
  mailbox_.Push(from_a ? link.shard_b : link.shard_a, std::move(handoff));
}

const telemetry::lat::Lane::WindowStats& ShardedNetwork::LatencyWindow(
    ShardId shard) const {
  return shards_[shard]->lat_window;
}

std::uint64_t ShardedNetwork::ShardHash(ShardId shard) const {
  Hasher hasher;
  shards_[shard]->network->MixDigest(hasher);
  return hasher.digest();
}

std::uint64_t ShardedNetwork::RunWindows(std::size_t count) {
  std::uint64_t events = 0;
  for (std::size_t i = 0; i < count; ++i) {
    ++window_index_;
    const sim::TimePoint window_end = window_index_ * window_;
    const bool hash_due =
        config_.hash_every != 0 && window_index_ % config_.hash_every == 0;

    sim::ShardedExecutor::PostWindowFn post;
    if (hash_due) {
      // Hash every shard on the worker that ran it, off the barrier's
      // critical path (shard-local state only, per the executor contract).
      post = [this](std::size_t shard) {
        shards_[shard]->window_hash = ShardHash(static_cast<ShardId>(shard));
      };
    }
    const std::vector<sim::ShardedExecutor::WindowResult>& results =
        executor_->RunWindow(window_end, post);
    for (const auto& result : results) events += result.dispatched;
    const auto merge_start = std::chrono::steady_clock::now();
    const std::size_t merged = MergeWindow(window_end, hash_due);
    const auto merge_wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - merge_start)
            .count());

    // Telemetry (barrier context; wall_ns is diagnostic and never feeds
    // simulation state). Stall = how long a shard idled waiting for the
    // slowest shard of this window.
    std::uint64_t max_wall = 0;
    for (const auto& result : results) {
      max_wall = std::max(max_wall, result.wall_ns);
    }
    telemetry::ShardWindowRecord record;
    record.window_index = window_index_;
    record.virtual_start = window_end - window_;
    record.virtual_end = window_end;
    record.merge_wall_ns = merge_wall_ns;
    record.merge_handoffs = merged;
    record.shards.resize(shard_count());
    for (ShardId shard = 0; shard < shard_count(); ++shard) {
      ShardSlot& slot = *shards_[shard];
      // Deterministic per-shard pool footprint at the barrier: calendar
      // queue + event-slot pool + pooled shuttle shells + route cache.
      const std::uint64_t pool_bytes = static_cast<std::uint64_t>(
          slot.simulator.queue_heap_bytes() + slot.simulator.slot_pool_bytes() +
          slot.network->shuttle_pool().retained_bytes() +
          slot.topology.route_cache_bytes());
      // Fold the latency plane's window sketch at the barrier: quantiles for
      // the counter tracks and the worst-K exemplars for tail drill-down.
      // Deterministic (pure sim-time), so benches pin the series.
      if (telemetry::lat::Plane::Enabled()) {
        slot.lat_window = slot.network->lat_lane().FoldWindow();
      } else {
        slot.lat_window = {};
      }
      const telemetry::ShardWindowSample sample{
          .dispatched = results[shard].dispatched,
          .handoffs_out = slot.window_handoffs_out,
          .handoffs_in = slot.window_handoffs_in,
          .wall_ns = results[shard].wall_ns,
          .start_ns = results[shard].start_ns,
          .stall_ns = max_wall - results[shard].wall_ns,
          .queue_depth = static_cast<double>(slot.simulator.queue_depth()),
          .pool_bytes = pool_bytes,
          .lat_p50_ns = slot.lat_window.p50_ns,
          .lat_p95_ns = slot.lat_window.p95_ns,
          .lat_p99_ns = slot.lat_window.p99_ns,
          .lat_delivered = slot.lat_window.delivered};
      telemetry::PublishShardWindow(stats_, shard, sample);
      // Each shard's induced topology carries its own route cache; publish
      // its effectiveness under the shard's metric prefix.
      net::PublishRouteCacheStats(
          stats_, slot.topology,
          telemetry::ShardMetricName(shard, "route_cache"));
      record.shards[shard] = sample;
      unroutable_handoffs_ += slot.window_unroutable;
      slot.window_handoffs_out = 0;
      slot.window_handoffs_in = 0;
      slot.window_unroutable = 0;
    }
    if (config_.observatory) {
      observatory_.RecordWindow(std::move(record));
      observatory_.PublishStats(stats_);
    }
    stats_.GetCounter("shard.windows").Add(1);
  }
  return events;
}

std::size_t ShardedNetwork::MergeWindow(sim::TimePoint window_end,
                                        bool hash_due) {
  VIATOR_PERF_SCOPE(kMergeWindow);
  std::vector<Handoff> batch = mailbox_.DrainSorted();
  Hasher handoff_hasher;

  for (Handoff& handoff : batch) {
    const ShardId entry_shard = plan_.shard_of(handoff.entry_node);
    ShardSlot& slot = *shards_[entry_shard];

    sim::TimePoint arrival = handoff.arrival_time;
    if (arrival < window_end) {
      // Only possible when a cross link is faster than the window (zero or
      // sub-window latency): defer to the boundary we are merging at. The
      // deferral is itself deterministic, so determinism survives — only the
      // latency fidelity of that link degrades, and the count says so.
      arrival = window_end;
      ++clamped_handoffs_;
      stats_.GetCounter("shard.handoffs_clamped").Add(1);
    }

    wli::Shuttle shuttle = std::move(handoff.shuttle);
    const net::NodeId final_dst = shuttle.transit_destination;
    const ShardId final_shard = plan_.shard_of(final_dst);
    const net::NodeId entry_local = plan_.local_of(handoff.entry_node);
    if (final_shard == entry_shard) {
      // Last hop: hand the capsule its real (local) address back.
      shuttle.transit_destination = net::kInvalidNode;
      shuttle.header.source = entry_local;
      shuttle.header.destination = plan_.local_of(final_dst);
    } else {
      // Still in transit: re-aim at this shard's exit gateway toward the
      // final shard; the next boundary crossing repeats the dance.
      const std::size_t route = plan_.RouteLink(entry_shard, final_shard);
      if (route == ShardPlan::kInvalidRoute) {
        ++unroutable_handoffs_;
        stats_.GetCounter("shard.handoffs_unroutable").Add(1);
        continue;
      }
      const CrossLink& link = plan_.cross_links()[route];
      shuttle.header.source = entry_local;
      shuttle.header.destination = plan_.local_of(
          link.shard_a == entry_shard ? link.a : link.b);
    }

    if (telemetry::lat::Plane::Enabled() && shuttle.lat_id != 0 &&
        handoff.lat_birth != 0) {
      // Re-seed the flight in the destination shard's lane so the eventual
      // delivery measures the true end-to-end latency from global birth.
      telemetry::lat::Lane::Departure departure;
      departure.birth = handoff.lat_birth;
      departure.trace_id = shuttle.trace.trace_id;
      departure.cls = static_cast<std::uint8_t>(shuttle.header.kind);
      departure.valid = true;
      networks_[entry_shard]->lat_lane().Arrive(shuttle.lat_id, departure);
    }

    if (hash_due) {
      handoff_hasher.Mix(handoff.arrival_time);
      handoff_hasher.Mix(handoff.source_shard);
      handoff_hasher.Mix(handoff.sequence);
      handoff_hasher.Mix(handoff.entry_node);
      handoff_hasher.Mix(shuttle.header.flow_id);
      handoff_hasher.Mix(final_dst);
    }

    ++slot.window_handoffs_in;
    wli::WanderingNetwork* network = networks_[entry_shard];
    slot.simulator.ScheduleAt(
        arrival,
        [network, shuttle = std::move(shuttle)]() mutable {
          (void)network->Inject(std::move(shuttle));
        },
        "shard.handoff");
  }
  stats_.GetCounter("shard.handoffs").Add(batch.size());

  if (hash_due) {
    // The merged window hash: partition identity, window ordinal, every
    // shard's post-window digest in shard order, and the digest of the
    // deterministically ordered handoff batch — the full world state at
    // this barrier. Identical timelines <=> identical decisions.
    Hasher combined;
    combined.Mix(plan_digest_);
    combined.Mix(window_index_);
    for (ShardId shard = 0; shard < shard_count(); ++shard) {
      journal_.RecordShardHash(window_index_, shard,
                               shards_[shard]->window_hash);
      combined.Mix(shards_[shard]->window_hash);
    }
    combined.Mix(handoff_hasher.digest());
    journal_.RecordWindowHash(window_index_, combined.digest(), window_end);
  }
  return batch.size();
}

std::uint64_t ShardedNetwork::RunUntilQuiescent(std::size_t max_windows) {
  std::uint64_t events = 0;
  for (std::size_t i = 0; i < max_windows && !IsQuiescent(); ++i) {
    events += RunWindows(1);
  }
  return events;
}

bool ShardedNetwork::IsQuiescent() const {
  for (const auto& slot : shards_) {
    if (slot->simulator.PendingEvents() != 0) return false;
  }
  return mailbox_.Empty();
}

std::uint64_t ShardedNetwork::StateHash() const {
  Hasher hasher;
  hasher.Mix(plan_digest_);
  for (const auto& slot : shards_) slot->network->MixDigest(hasher);
  return hasher.digest();
}

std::uint64_t ShardedNetwork::Delivered() const {
  std::uint64_t consumed = 0;
  for (const auto& slot : shards_) {
    const std::size_t nodes = slot->topology.node_count();
    for (net::NodeId node = 0; node < nodes; ++node) {
      const wli::Ship* ship = slot->network->ship(node);
      if (ship != nullptr) consumed += ship->shuttles_consumed();
    }
  }
  return consumed;
}

Result<std::vector<std::byte>> ShardedNetwork::CaptureCheckpoint() {
  if (!IsQuiescent()) {
    return FailedPrecondition(
        "sharded checkpoint requires a quiescent window boundary "
        "(pending events or in-flight handoffs)");
  }
  TlvWriter writer;
  writer.PutU64(kTagWindowIndex, window_index_);
  writer.PutU64(kTagShardCount, shard_count());
  writer.PutU64(kTagClamped, clamped_handoffs_);
  writer.PutU64(kTagUnroutable, unroutable_handoffs_);
  writer.PutNested(kTagJournal, journal_.Save());
  for (const auto& slot : shards_) {
    Result<std::vector<std::byte>> blob = slot->genesis->CaptureFull();
    if (!blob.ok()) return blob.status();
    TlvWriter shard_writer;
    shard_writer.PutU64(kTagHandoffSeq, slot->handoff_seq);
    shard_writer.PutNested(kTagGenesisBlob, *blob);
    writer.PutNested(kTagShard, shard_writer.Finish());
  }
  return writer.Finish();
}

Status ShardedNetwork::RestoreCheckpoint(std::span<const std::byte> bytes) {
  TlvReader reader(bytes);
  if (Status verify = reader.Verify(); !verify.ok()) return verify;

  std::uint64_t window_index = 0;
  std::uint64_t clamped = 0;
  std::uint64_t unroutable = 0;
  std::span<const std::byte> journal_blob;
  std::vector<std::span<const std::byte>> shard_blobs;
  std::uint64_t declared_shards = 0;

  while (reader.HasNext()) {
    Result<TlvRecord> record = reader.Next();
    if (!record.ok()) return record.status();
    switch (record->tag) {
      case kTagWindowIndex: window_index = record->AsU64(); break;
      case kTagShardCount: declared_shards = record->AsU64(); break;
      case kTagClamped: clamped = record->AsU64(); break;
      case kTagUnroutable: unroutable = record->AsU64(); break;
      case kTagJournal: journal_blob = record->payload; break;
      case kTagShard: shard_blobs.push_back(record->payload); break;
      default: break;  // forward compatibility: ignore unknown tags
    }
  }
  if (declared_shards != shard_count() ||
      shard_blobs.size() != shard_count()) {
    return InvalidArgument("checkpoint shard count does not match this world");
  }

  for (ShardId shard = 0; shard < shard_count(); ++shard) {
    ShardSlot& slot = *shards_[shard];
    TlvReader shard_reader(shard_blobs[shard]);
    if (Status verify = shard_reader.Verify(); !verify.ok()) return verify;
    while (shard_reader.HasNext()) {
      Result<TlvRecord> record = shard_reader.Next();
      if (!record.ok()) return record.status();
      if (record->tag == kTagHandoffSeq) {
        slot.handoff_seq = record->AsU64();
      } else if (record->tag == kTagGenesisBlob) {
        if (Status restored = slot.genesis->RestoreFull(record->payload);
            !restored.ok()) {
          return restored;
        }
      }
    }
  }
  if (!journal_blob.empty()) {
    if (Status loaded = journal_.Load(journal_blob); !loaded.ok()) {
      return loaded;
    }
  }
  window_index_ = window_index;
  clamped_handoffs_ = clamped;
  unroutable_handoffs_ = unroutable;
  return OkStatus();
}

}  // namespace viator::shard
