// Network Genesis: whole-network snapshot, deterministic restore, delta
// merging, checkpoint-based crash recovery and corruption rejection.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "base/hash.h"
#include "core/genetic_transcoder.h"
#include "core/wandering_network.h"
#include "genesis/adapters.h"
#include "genesis/manager.h"
#include "genesis/sections.h"
#include "genesis/snapshot.h"
#include "net/failure.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "telemetry/latency_plane.h"
#include "vm/assembler.h"

namespace viator {
namespace {

constexpr std::uint64_t kSeed = 20260806;

/// One self-contained simulation replica. kPopulated builds the 3x3 grid
/// scenario; kFresh is an empty shell (no topology, no ships) for restores.
struct Replica {
  enum class Mode { kPopulated, kFresh };

  sim::Simulator simulator;
  net::Topology topology;
  wli::WnConfig config;
  std::unique_ptr<wli::WanderingNetwork> network;

  explicit Replica(Mode mode = Mode::kPopulated, bool tracing = false) {
    if (mode == Mode::kPopulated) topology = net::MakeGrid(3, 3);
    config.telemetry.enable_tracing = tracing;
    network = std::make_unique<wli::WanderingNetwork>(simulator, topology,
                                                      config, kSeed);
    if (mode == Mode::kPopulated) network->PopulateAllNodes();
  }
};

/// Seeded workload driven entirely by the network's own RNG (so a restored
/// network continues the exact same decision sequence): random data
/// shuttles, drained to quiescence, with a metamorphosis pulse every 8th
/// step.
void Drive(Replica& r, int begin, int end) {
  const std::size_t n = r.topology.node_count();
  for (int i = begin; i < end; ++i) {
    const auto src =
        static_cast<net::NodeId>(r.network->rng().UniformInt(0, n - 1));
    auto dst =
        static_cast<net::NodeId>(r.network->rng().UniformInt(0, n - 1));
    if (dst == src) dst = static_cast<net::NodeId>((dst + 1) % n);
    (void)r.network->Inject(
        wli::Shuttle::Data(src, dst, {i, 3, 5}, static_cast<std::uint64_t>(i) + 1));
    r.simulator.RunAll();
    if (i % 8 == 7) {
      r.network->Pulse();
      r.simulator.RunAll();
    }
  }
}

std::string TraceJsonl(const Replica& r) {
  std::ostringstream out;
  r.network->trace().WriteJsonl(out);
  return out.str();
}

// ---- The headline property: deterministic resume ---------------------------

TEST(GenesisResume, SnapshotRestoreContinuesBitIdentically) {
  // Uninterrupted reference: 2N steps in one life.
  Replica ref;
  Drive(ref, 0, 64);
  Drive(ref, 64, 128);

  // Interrupted twin: N steps, snapshot, restore into a fresh replica,
  // continue to 2N.
  Replica first;
  Drive(first, 0, 64);
  genesis::GenesisManager source(*first.network);
  auto snapshot = source.CaptureFull();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  Replica resumed = Replica(Replica::Mode::kFresh);
  genesis::GenesisManager target(*resumed.network);
  ASSERT_TRUE(target.RestoreFull(*snapshot).ok());
  Drive(resumed, 64, 128);

  // The trace log and the serialized stats of the resumed run must be
  // byte-identical to the uninterrupted run.
  EXPECT_EQ(TraceJsonl(resumed), TraceJsonl(ref));
  EXPECT_EQ(genesis::SaveStats(resumed.network->stats()),
            genesis::SaveStats(ref.network->stats()));
  EXPECT_EQ(resumed.simulator.now(), ref.simulator.now());
  EXPECT_EQ(resumed.simulator.dispatched(), ref.simulator.dispatched());
  EXPECT_EQ(resumed.network->pulses(), ref.network->pulses());

  // Strongest form: a full snapshot of each end state is byte-identical
  // (both managers are at the same sequence number by construction).
  genesis::GenesisManager ref_manager(*ref.network);
  auto ref_end = ref_manager.CaptureFull();
  auto resumed_end = target.CaptureFull();
  ASSERT_TRUE(ref_end.ok());
  ASSERT_TRUE(resumed_end.ok());
  auto ref_parsed = genesis::ParseSnapshot(*ref_end);
  auto res_parsed = genesis::ParseSnapshot(*resumed_end);
  ASSERT_TRUE(ref_parsed.ok());
  ASSERT_TRUE(res_parsed.ok());
  ASSERT_EQ(ref_parsed->sections.size(), res_parsed->sections.size());
  for (std::size_t i = 0; i < ref_parsed->sections.size(); ++i) {
    // Every decision-state section must match bit for bit. mem-peaks is the
    // one advisory section: shuttle pools restore empty by design (shells
    // are recycled capacity, not state), so the resumed run's retained-byte
    // watermark lawfully trails the uninterrupted run's.
    if (ref_parsed->sections[i].id == genesis::kSectionMemPeaks) continue;
    EXPECT_EQ(ref_parsed->sections[i].digest, res_parsed->sections[i].digest)
        << "section " << genesis::SectionName(ref_parsed->sections[i].id)
        << " diverged after resume";
  }
}

TEST(GenesisResume, TracedRunRestoresBitIdentically) {
  // Same deterministic-resume property, with capsule tracing live: the span
  // collector (id RNG, counters, every retained span) rides in the extras
  // region via TelemetryAdapter, and a restored run keeps issuing the exact
  // trace ids the uninterrupted run would have issued.
  Replica ref(Replica::Mode::kPopulated, /*tracing=*/true);
  Drive(ref, 0, 48);
  Drive(ref, 48, 96);

  Replica first(Replica::Mode::kPopulated, /*tracing=*/true);
  Drive(first, 0, 48);
  genesis::TelemetryAdapter source_adapter(first.network->telemetry());
  genesis::GenesisManager source(*first.network);
  ASSERT_TRUE(source.RegisterExtra(source_adapter).ok());
  auto snapshot = source.CaptureFull();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  // Fresh replica with tracing enabled but a *different* effective id seed
  // history (nothing recorded yet): the restore must overwrite all of it.
  Replica resumed(Replica::Mode::kFresh, /*tracing=*/true);
  genesis::TelemetryAdapter resumed_adapter(resumed.network->telemetry());
  genesis::GenesisManager target(*resumed.network);
  ASSERT_TRUE(target.RegisterExtra(resumed_adapter).ok());
  ASSERT_TRUE(target.RestoreFull(*snapshot).ok());
  Drive(resumed, 48, 96);

  // Span-for-span identical telemetry, including ids drawn after the resume.
  const auto& ref_spans = ref.network->telemetry().spans();
  const auto& res_spans = resumed.network->telemetry().spans();
  EXPECT_EQ(res_spans.traces_started(), ref_spans.traces_started());
  EXPECT_EQ(res_spans.spans_recorded(), ref_spans.spans_recorded());
  ASSERT_EQ(res_spans.spans().size(), ref_spans.spans().size());
  for (std::size_t i = 0; i < ref_spans.spans().size(); ++i) {
    const auto& a = ref_spans.spans()[i];
    const auto& b = res_spans.spans()[i];
    EXPECT_EQ(b.trace_id, a.trace_id) << "span " << i;
    EXPECT_EQ(b.span_id, a.span_id);
    EXPECT_EQ(b.parent_span_id, a.parent_span_id);
    EXPECT_EQ(b.ship, a.ship);
    EXPECT_EQ(b.component, a.component);
    EXPECT_EQ(b.name, a.name);
    EXPECT_EQ(b.start, a.start);
    EXPECT_EQ(b.end, a.end);
  }

  // The telemetry sections of both end states serialize byte-identically.
  genesis::TelemetryAdapter ref_adapter(ref.network->telemetry());
  EXPECT_EQ(resumed_adapter.Save(), ref_adapter.Save());
  EXPECT_EQ(TraceJsonl(resumed), TraceJsonl(ref));
  EXPECT_EQ(resumed.simulator.now(), ref.simulator.now());
}

TEST(GenesisResume, RestoredCountersAndStateMatchSource) {
  Replica source;
  Drive(source, 0, 40);
  genesis::GenesisManager manager(*source.network);
  auto snapshot = manager.CaptureFull();
  ASSERT_TRUE(snapshot.ok());

  Replica restored = Replica(Replica::Mode::kFresh);
  genesis::GenesisManager target(*restored.network);
  ASSERT_TRUE(target.RestoreFull(*snapshot).ok());

  EXPECT_EQ(restored.topology.node_count(), source.topology.node_count());
  EXPECT_EQ(restored.topology.link_count(), source.topology.link_count());
  EXPECT_EQ(restored.network->ship_count(), source.network->ship_count());
  EXPECT_EQ(restored.simulator.now(), source.simulator.now());
  EXPECT_EQ(restored.simulator.dispatched(), source.simulator.dispatched());
  EXPECT_EQ(restored.network->fabric().frames_delivered(),
            source.network->fabric().frames_delivered());
  EXPECT_EQ(restored.network->fabric().next_frame_id(),
            source.network->fabric().next_frame_id());
  for (net::NodeId node = 0; node < restored.topology.node_count(); ++node) {
    const wli::Ship* a = source.network->ship(node);
    const wli::Ship* b = restored.network->ship(node);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->shuttles_consumed(), a->shuttles_consumed());
    EXPECT_EQ(b->shuttles_forwarded(), a->shuttles_forwarded());
    EXPECT_EQ(b->os().current_role(), a->os().current_role());
    EXPECT_EQ(b->facts().AllFacts().size(), a->facts().AllFacts().size());
  }
}

TEST(GenesisResume, MemoryPeaksSurviveSnapshotRestore) {
  // The Memory Observatory's deterministic high-water marks — calendar-queue
  // heap peak and shuttle-pool retained peak — ride the clock and
  // network-counter sections as optional tags, so a restored world reports
  // the same peaks the interrupted one reached (old snapshots without the
  // tags keep the fresh world's own peaks).
  Replica source;
  Drive(source, 0, 40);
  const std::size_t pool_peak =
      source.network->shuttle_pool().peak_retained_bytes();
  const std::size_t queue_peak = source.simulator.queue_peak_heap_bytes();
  EXPECT_GT(queue_peak, 0u);
  EXPECT_GT(pool_peak, 0u);
  genesis::GenesisManager manager(*source.network);
  auto snapshot = manager.CaptureFull();
  ASSERT_TRUE(snapshot.ok());

  Replica restored = Replica(Replica::Mode::kFresh);
  genesis::GenesisManager target(*restored.network);
  ASSERT_TRUE(target.RestoreFull(*snapshot).ok());
  EXPECT_EQ(restored.network->shuttle_pool().peak_retained_bytes(), pool_peak);
  EXPECT_EQ(restored.simulator.queue_peak_heap_bytes(), queue_peak);
}

TEST(GenesisResume, LatencySketchesSurviveSnapshotRestore) {
  // The Latency Observatory section is advisory but integer-exact: every
  // per-(stage, class) sketch and the window delivery sketch round-trip
  // bit-identically (open flights are deliberately not captured — a
  // quiescent boundary has none worth keeping).
  telemetry::lat::Plane::SetEnabled(true);
  Replica source;
  Drive(source, 0, 40);
  telemetry::lat::Plane::SetEnabled(false);
  const telemetry::lat::Lane& lane = source.network->lat_lane();
  EXPECT_GT(lane.DeliveredCount(), 0u);

  genesis::GenesisManager manager(*source.network);
  auto snapshot = manager.CaptureFull();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  Replica restored = Replica(Replica::Mode::kFresh);
  genesis::GenesisManager target(*restored.network);
  ASSERT_TRUE(target.RestoreFull(*snapshot).ok());
  const telemetry::lat::Lane& twin = restored.network->lat_lane();
  for (std::size_t s = 0; s < telemetry::lat::kStageCount; ++s) {
    const auto stage = static_cast<telemetry::lat::Stage>(s);
    for (std::size_t c = 0; c < telemetry::lat::StageClassCount(stage); ++c) {
      EXPECT_EQ(twin.Sketch(stage, c), lane.Sketch(stage, c))
          << telemetry::lat::StageName(stage) << "[" << c << "]";
    }
  }
  EXPECT_EQ(twin.window_sketch(), lane.window_sketch());

  // Capture → restore → capture: the latency payload is byte-stable.
  auto recapture = target.CaptureFull();
  ASSERT_TRUE(recapture.ok());
  auto first = genesis::ParseSnapshot(*snapshot);
  auto second = genesis::ParseSnapshot(*recapture);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  const genesis::SectionRecord* a =
      first->Find(genesis::kSectionLatency);
  const genesis::SectionRecord* b =
      second->Find(genesis::kSectionLatency);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->digest, b->digest);
  EXPECT_EQ(a->payload, b->payload);
}

// ---- Delta snapshots --------------------------------------------------------

TEST(GenesisDelta, DeltaMergeEqualsDirectFullCapture) {
  Replica replica;
  Drive(replica, 0, 32);
  genesis::GenesisManager manager(*replica.network);
  auto full = manager.CaptureFull();
  ASSERT_TRUE(full.ok());

  Drive(replica, 32, 48);
  auto delta = manager.CaptureDelta();
  ASSERT_TRUE(delta.ok());
  auto delta_parsed = genesis::ParseSnapshot(*delta);
  ASSERT_TRUE(delta_parsed.ok());
  EXPECT_EQ(delta_parsed->header.kind, genesis::SnapshotKind::kDelta);

  // The delta must skip sections that cannot have changed (topology,
  // repository) and therefore be smaller than a full capture would be.
  auto full_now = genesis::ParseSnapshot(*full);
  ASSERT_TRUE(full_now.ok());
  EXPECT_LT(delta_parsed->sections.size(), full_now->sections.size());
  EXPECT_EQ(delta_parsed->Find(genesis::kSectionTopology), nullptr);
  EXPECT_NE(delta_parsed->Find(genesis::kSectionClock), nullptr);

  auto merged = genesis::MergeDelta(*full, *delta);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  Replica restored = Replica(Replica::Mode::kFresh);
  genesis::GenesisManager target(*restored.network);
  ASSERT_TRUE(target.RestoreFull(*merged).ok());
  EXPECT_EQ(genesis::SaveStats(restored.network->stats()),
            genesis::SaveStats(replica.network->stats()));
  EXPECT_EQ(restored.simulator.now(), replica.simulator.now());

  // The merged state resumes identically to the source.
  Drive(replica, 48, 64);
  Drive(restored, 48, 64);
  EXPECT_EQ(TraceJsonl(restored), TraceJsonl(replica));
}

TEST(GenesisDelta, DeltaRequiresPriorFullAndMatchingBase) {
  Replica replica;
  genesis::GenesisManager manager(*replica.network);
  EXPECT_FALSE(manager.CaptureDelta().ok());

  Drive(replica, 0, 8);
  auto full1 = manager.CaptureFull();
  ASSERT_TRUE(full1.ok());
  Drive(replica, 8, 16);
  auto full2 = manager.CaptureFull();
  ASSERT_TRUE(full2.ok());
  Drive(replica, 16, 24);
  auto delta = manager.CaptureDelta();
  ASSERT_TRUE(delta.ok());

  // The delta bases on full2; merging onto full1 must be refused.
  EXPECT_FALSE(genesis::MergeDelta(*full1, *delta).ok());
  EXPECT_TRUE(genesis::MergeDelta(*full2, *delta).ok());
  // A delta is not restorable directly.
  Replica fresh = Replica(Replica::Mode::kFresh);
  genesis::GenesisManager target(*fresh.network);
  EXPECT_FALSE(target.RestoreFull(*delta).ok());
}

// ---- Checkpointing + crash recovery ----------------------------------------

TEST(GenesisCheckpoint, CrashRecoveryFromNewestCheckpoint) {
  Replica replica;
  net::FailureInjector injector(replica.simulator, replica.topology,
                                Rng(kSeed ^ 0xfa11));
  genesis::FailureInjectorAdapter adapter(injector);
  genesis::GenesisConfig gconfig;
  gconfig.checkpoint_cadence = 20 * sim::kMillisecond;
  gconfig.keep_checkpoints = 3;
  genesis::GenesisManager manager(*replica.network, gconfig);
  ASSERT_TRUE(manager.RegisterExtra(adapter).ok());

  // A transient link failure that fully plays out before the first
  // checkpoint fires (no pending repair closures at capture time).
  injector.FailLink(0, 2 * sim::kMillisecond, 5 * sim::kMillisecond);
  manager.StartCheckpointing(100 * sim::kMillisecond);
  replica.simulator.RunUntil(100 * sim::kMillisecond);
  ASSERT_GT(manager.checkpoints_taken(), 0u);
  ASSERT_LE(manager.checkpoints().size(), 3u);
  const std::vector<std::byte> newest = manager.checkpoints().back();

  // "Crash": throw the replica away, restore the newest checkpoint into a
  // fresh one, failure process included.
  Replica recovered = Replica(Replica::Mode::kFresh);
  net::FailureInjector recovered_injector(recovered.simulator,
                                          recovered.topology, Rng(1));
  genesis::FailureInjectorAdapter recovered_adapter(recovered_injector);
  genesis::GenesisManager target(*recovered.network);
  ASSERT_TRUE(target.RegisterExtra(recovered_adapter).ok());
  ASSERT_TRUE(target.RestoreFull(newest).ok());

  EXPECT_EQ(recovered_injector.failures_injected(),
            injector.failures_injected());
  EXPECT_EQ(recovered.topology.link_count(), replica.topology.link_count());
  for (net::LinkId id = 0; id < recovered.topology.link_count(); ++id) {
    EXPECT_EQ(recovered.topology.link(id).up, true);
  }

  // The recovered replica serializes back to the checkpoint bit for bit.
  auto recaptured = target.CaptureFull();
  ASSERT_TRUE(recaptured.ok());
  auto a = genesis::ParseSnapshot(newest);
  auto b = genesis::ParseSnapshot(*recaptured);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->sections.size(), b->sections.size());
  for (std::size_t i = 0; i < a->sections.size(); ++i) {
    EXPECT_EQ(a->sections[i].digest, b->sections[i].digest)
        << "section " << genesis::SectionName(a->sections[i].id);
  }
}

TEST(GenesisCheckpoint, NonQuiescentCapturesAreSkipped) {
  Replica replica;
  genesis::GenesisManager manager(*replica.network);
  // A far-future event makes the network non-quiescent.
  auto handle = replica.simulator.ScheduleAt(sim::kSecond, [] {});
  EXPECT_FALSE(manager.CaptureFull().ok());
  handle.Cancel();
  EXPECT_TRUE(manager.CaptureFull().ok());
}

// ---- Strict validation ------------------------------------------------------

TEST(GenesisValidation, EverySampledBitFlipIsRejected) {
  Replica replica;
  Drive(replica, 0, 16);
  genesis::GenesisManager manager(*replica.network);
  auto snapshot = manager.CaptureFull();
  ASSERT_TRUE(snapshot.ok());

  std::vector<std::byte> bytes = *snapshot;
  const std::size_t total_bits = bytes.size() * 8;
  std::size_t flips = 0;
  for (std::size_t bit = 0; bit < total_bits; bit += 1009) {
    std::vector<std::byte> corrupt = bytes;
    corrupt[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    EXPECT_FALSE(genesis::VerifySnapshot(corrupt).ok())
        << "bit " << bit << " flip was not detected";
    Replica fresh = Replica(Replica::Mode::kFresh);
    genesis::GenesisManager target(*fresh.network);
    EXPECT_FALSE(target.RestoreFull(corrupt).ok());
    EXPECT_EQ(fresh.network->ship_count(), 0u)
        << "corrupt restore touched network state";
    ++flips;
  }
  EXPECT_GT(flips, 50u);
}

TEST(GenesisValidation, TruncationsAreRejected) {
  Replica replica;
  Drive(replica, 0, 16);
  genesis::GenesisManager manager(*replica.network);
  auto snapshot = manager.CaptureFull();
  ASSERT_TRUE(snapshot.ok());

  for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                          snapshot->size() / 2, snapshot->size() - 1}) {
    std::vector<std::byte> truncated(snapshot->begin(),
                                     snapshot->begin() + len);
    EXPECT_FALSE(genesis::VerifySnapshot(truncated).ok())
        << "truncation to " << len << " bytes was not detected";
  }
}

TEST(GenesisValidation, FormatVersionMismatchIsRejected) {
  genesis::SnapshotHeader header;
  header.format_version = 99;
  genesis::SnapshotBuilder builder(header);
  builder.AddSection(genesis::SectionRecord{.id = genesis::kSectionClock,
                                            .digest = HashBytes({}),
                                            .payload = {}});
  const std::vector<std::byte> bytes = builder.Finish();
  Status status = genesis::VerifySnapshot(bytes);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("version"), std::string::npos);
}

TEST(GenesisValidation, RestoreRequiresFreshNetwork) {
  Replica replica;
  Drive(replica, 0, 8);
  genesis::GenesisManager manager(*replica.network);
  auto snapshot = manager.CaptureFull();
  ASSERT_TRUE(snapshot.ok());

  // Restoring on top of the (populated) source network must be refused.
  Status status = manager.RestoreFull(*snapshot);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(GenesisValidation, ExtraRegistrationIsValidated) {
  Replica replica;
  net::FailureInjector injector(replica.simulator, replica.topology, Rng(1));
  genesis::GenesisManager manager(*replica.network);
  genesis::FailureInjectorAdapter bad(injector, /*id=*/7);  // built-in range
  EXPECT_FALSE(manager.RegisterExtra(bad).ok());
  genesis::FailureInjectorAdapter good(injector);
  EXPECT_TRUE(manager.RegisterExtra(good).ok());
  genesis::FailureInjectorAdapter dup(injector);
  EXPECT_FALSE(manager.RegisterExtra(dup).ok());
}

// ---- Wire format ------------------------------------------------------------

// tests/golden/genesis_3x3_drive40.wns was captured from the populated 3x3
// replica after Drive(0, 40) by the codecs that predate the field archives:
// today's encoder must write the same bytes, and today's decoder must load
// the older snapshot.
TEST(GenesisGolden, CaptureMatchesRecordedSnapshotAndRestoresIt) {
  std::ifstream in(VIATOR_GOLDEN_DIR "/genesis_3x3_drive40.wns",
                   std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
  std::vector<std::byte> golden(raw.size());
  std::memcpy(golden.data(), raw.data(), raw.size());

  Replica replica;
  Drive(replica, 0, 40);
  genesis::GenesisManager manager(*replica.network);
  auto snapshot = manager.CaptureFull();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(*snapshot, golden);

  Replica restored = Replica(Replica::Mode::kFresh);
  genesis::GenesisManager target(*restored.network);
  ASSERT_TRUE(target.RestoreFull(golden).ok());
  genesis::GenesisManager recapture(*restored.network);
  auto again = recapture.CaptureFull();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, golden);
}

// ---- State hash coverage ----------------------------------------------------

// One field of one hashed section, set to `variant` (0 or 1) on an
// otherwise identical replica.
struct Mutation {
  const char* name;
  std::uint32_t section;
  std::function<void(Replica&, int variant)> apply;
};

std::ostream& operator<<(std::ostream& out, const Mutation& m) {
  return out << m.name;
}

class StateHashCoverage : public ::testing::TestWithParam<Mutation> {};

std::vector<std::byte> SectionBytes(Replica& r, std::uint32_t section) {
  genesis::GenesisManager manager(*r.network);
  auto snapshot = manager.CaptureFull();
  EXPECT_TRUE(snapshot.ok());
  auto parsed = genesis::ParseSnapshot(*snapshot);
  EXPECT_TRUE(parsed.ok());
  const genesis::SectionRecord* record = parsed->Find(section);
  return record != nullptr ? record->payload : std::vector<std::byte>{};
}

std::uint64_t StateDigest(const Replica& r) {
  Hasher hasher;
  r.network->MixDigest(hasher);
  return hasher.digest();
}

std::uint64_t UncachedStateDigest(const Replica& r) {
  Hasher hasher;
  r.network->MixDigestUncached(hasher);
  return hasher.digest();
}

TEST_P(StateHashCoverage, OneFieldChangesSectionBytesAndDigest) {
  const Mutation& mutation = GetParam();
  Replica base, same, changed;
  for (Replica* r : {&base, &same, &changed}) {
    Drive(*r, 0, 16);
    // Warm every memo, so a mutation that misses its stale mark leaves the
    // cached digest behind the uncached walk.
    (void)StateDigest(*r);
  }
  mutation.apply(base, 0);
  mutation.apply(same, 0);
  mutation.apply(changed, 1);
  for (Replica* r : {&base, &same, &changed}) {
    r->simulator.RunAll();
    ASSERT_EQ(StateDigest(*r), UncachedStateDigest(*r));
  }

  // Control: the same mutation leaves identical bytes and digests.
  ASSERT_EQ(SectionBytes(same, mutation.section),
            SectionBytes(base, mutation.section));
  ASSERT_EQ(StateDigest(same), StateDigest(base));
  EXPECT_NE(SectionBytes(changed, mutation.section),
            SectionBytes(base, mutation.section));
  EXPECT_NE(StateDigest(changed), StateDigest(base));
}

INSTANTIATE_TEST_SUITE_P(
    Sections, StateHashCoverage,
    ::testing::Values(
        Mutation{"fact_value", genesis::kSectionShips,
                 [](Replica& r, int v) {
                   r.network->ship(4)->facts().Touch(77, 100 + v, 1.0,
                                                     r.simulator.now());
                 }},
        Mutation{"ledger_episode_uses", genesis::kSectionLedger,
                 [](Replica& r, int v) {
                   auto& ledger = r.network->ledger();
                   ledger.RecordPlacement(901, 2, r.simulator.now());
                   for (int i = 0; i <= v; ++i) ledger.RecordUse(901);
                 }},
        Mutation{"reputation_score", genesis::kSectionReputation,
                 [](Replica& r, int v) {
                   r.network->reputation().ReportInteraction(5, v == 0);
                 }},
        Mutation{"cluster_member", genesis::kSectionClusters,
                 [](Replica& r, int v) {
                   r.network->clusters().ObserveInteraction(
                       1, static_cast<net::NodeId>(6 + v), 50.0);
                 }},
        Mutation{"demand_entry", genesis::kSectionDemand,
                 [](Replica& r, int v) {
                   r.network->demand().Record(
                       3, node::FirstLevelRole::kDelegation, 1.0 + v);
                 }},
        Mutation{"overlay", genesis::kSectionOverlays,
                 [](Replica& r, int v) {
                   ASSERT_TRUE(r.network->overlays()
                                   .Spawn("cov", {0, static_cast<net::NodeId>(
                                                         7 + v)})
                                   .ok());
                 }},
        Mutation{"morphing_counter", genesis::kSectionMorphing,
                 [](Replica& r, int v) {
                   wli::Shuttle shuttle = wli::Shuttle::Data(0, 1, {}, 1);
                   for (int i = 0; i <= v; ++i) {
                     (void)r.network->morphing().MorphForDock(shuttle);
                   }
                 }},
        Mutation{"feedback_counter", genesis::kSectionFeedback,
                 [](Replica& r, int v) {
                   for (int i = 0; i <= v; ++i) {
                     r.network->feedback().Publish(wli::FeedbackSignal{});
                   }
                 }},
        Mutation{"network_counter", genesis::kSectionNetworkCounters,
                 [](Replica& r, int v) {
                   for (int i = 0; i <= v; ++i) r.network->NextFunctionId();
                 }},
        Mutation{"network_rng", genesis::kSectionNetworkRng,
                 [](Replica& r, int v) {
                   for (int i = 0; i <= v; ++i) r.network->rng().Next();
                 }},
        Mutation{"fabric_link_bytes", genesis::kSectionFabric,
                 [](Replica& r, int v) {
                   net::Frame frame;
                   frame.from = 0;
                   frame.to = 1;
                   frame.size_bytes = static_cast<std::uint32_t>(100 + v);
                   ASSERT_TRUE(r.network->fabric().Send(std::move(frame)).ok());
                 }},
        Mutation{"link_up_flag", genesis::kSectionTopology,
                 [](Replica& r, int v) { r.topology.SetLinkUp(3, v == 0); }},
        Mutation{"placement_host", genesis::kSectionPlacements,
                 [](Replica& r, int v) {
                   wli::NetFunction function;
                   function.name = "cov";
                   r.network->DeployFunction(static_cast<net::NodeId>(2 + v),
                                             function);
                 }},
        Mutation{"repository_program", genesis::kSectionRepository,
                 [](Replica& r, int v) {
                   auto program = vm::Assemble(
                       "cov", "  push " + std::to_string(v) + "\n  halt\n");
                   ASSERT_TRUE(program.ok());
                   ASSERT_TRUE(r.network->PublishProgram(*program, 0).ok());
                 }}),
    [](const ::testing::TestParamInfo<Mutation>& test) {
      return std::string(test.param.name);
    });

// ---- Genome fuzzing (satellite: DecodeBlueprint never crashes) --------------

TEST(GenomeFuzz, BlueprintBitFlipsAlwaysReturnStatusErrors) {
  wli::ShipBlueprint blueprint;
  blueprint.ship_class = node::ShipClass::kAgent;
  blueprint.role = node::FirstLevelRole::kDelegation;
  blueprint.resident_programs = {0x1234, 0x5678};
  blueprint.facts.push_back({42, 7, 1.5});
  blueprint.modules.push_back(
      {3, node::SecondLevelClass::kSupplementary, 128, 2.0, 0x9abc});
  wli::NetFunction fn;
  fn.id = 11;
  fn.name = "fuzzed";
  fn.fact_keys = {42};
  blueprint.functions.push_back(fn);

  const std::vector<std::byte> genome = wli::EncodeBlueprint(blueprint);
  ASSERT_TRUE(wli::DecodeBlueprint(genome).ok());

  // Every single-bit corruption must be caught by the checksum trailer.
  for (std::size_t bit = 0; bit < genome.size() * 8; ++bit) {
    std::vector<std::byte> corrupt = genome;
    corrupt[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    auto decoded = wli::DecodeBlueprint(corrupt);
    EXPECT_FALSE(decoded.ok()) << "bit " << bit << " flip decoded fine";
  }
  // Every truncation must fail cleanly too.
  for (std::size_t len = 0; len < genome.size(); ++len) {
    std::vector<std::byte> truncated(genome.begin(), genome.begin() + len);
    EXPECT_FALSE(wli::DecodeBlueprint(truncated).ok())
        << "truncation to " << len << " bytes decoded fine";
  }
}

TEST(GenomeFuzz, MultiByteCorruptionNeverCrashesDecode) {
  wli::ShipBlueprint blueprint;
  blueprint.resident_programs = {1, 2, 3};
  const std::vector<std::byte> genome = wli::EncodeBlueprint(blueprint);

  // Deterministic pseudo-random multi-byte corruption: whatever happens,
  // DecodeBlueprint must return (ok or error), never crash or hang.
  Rng rng(777);
  for (int round = 0; round < 500; ++round) {
    std::vector<std::byte> corrupt = genome;
    const int edits = static_cast<int>(rng.UniformInt(1, 8));
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos =
          static_cast<std::size_t>(rng.UniformInt(0, corrupt.size() - 1));
      corrupt[pos] = static_cast<std::byte>(rng.UniformInt(0, 255));
    }
    auto decoded = wli::DecodeBlueprint(corrupt);  // must not crash
    (void)decoded;
  }
  SUCCEED();
}

}  // namespace
}  // namespace viator
