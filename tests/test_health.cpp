// Self-Referential Health Plane: probe codec, registry scoring, anomaly
// rules, determinism neutrality, genesis checkpoint/resume and the
// report/regression-gate logic behind tools/wnhealth.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/wandering_network.h"
#include "genesis/adapters.h"
#include "genesis/manager.h"
#include "health/health.h"
#include "health/mem_growth.h"
#include "health/probe.h"
#include "health/report.h"
#include "net/failure.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace viator {
namespace {

constexpr std::uint64_t kSeed = 77002611;

// ---- Probe payload codec ----------------------------------------------------

TEST(ProbeCodec, RoundTripsHeaderWaypointsAndHops) {
  const std::vector<net::NodeId> waypoints = {3, 7};
  auto payload = health::EncodeProbe(42, 6, 1234567, waypoints);
  EXPECT_EQ(health::ProbeCursor(payload), 0u);
  EXPECT_EQ(health::ProbeWaypointCount(payload), 2u);
  EXPECT_EQ(health::ProbeWaypoint(payload, 0), 3u);
  EXPECT_EQ(health::ProbeWaypoint(payload, 1), 7u);
  health::SetProbeCursor(payload, 1);

  health::HopSample hop;
  hop.ship = 3;
  hop.arrived_from = 0;
  hop.arrival = 2000000;
  hop.queue_bytes = 512;
  hop.service_latency_ns = 900;
  hop.code_executions = 4;
  hop.code_misses = 1;
  hop.ttl_remaining = 63;
  health::AppendHop(payload, hop);
  hop.ship = 7;
  hop.arrived_from = 3;
  hop.arrival = 3000000;
  health::AppendHop(payload, hop);

  const auto record = health::DecodeProbe(payload);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->probe_id, 42u);
  EXPECT_EQ(record->round, 6u);
  EXPECT_EQ(record->emitted, 1234567u);
  EXPECT_EQ(record->waypoints, waypoints);
  ASSERT_EQ(record->hops.size(), 2u);
  EXPECT_EQ(record->hops[0].ship, 3u);
  EXPECT_EQ(record->hops[0].queue_bytes, 512u);
  EXPECT_EQ(record->hops[0].service_latency_ns, 900u);
  EXPECT_EQ(record->hops[1].ship, 7u);
  EXPECT_EQ(record->hops[1].arrived_from, 3u);
  EXPECT_EQ(record->hops[1].arrival, 3000000u);
  EXPECT_EQ(record->hops[1].ttl_remaining, 63u);
}

TEST(ProbeCodec, RejectsMalformedPayloads) {
  EXPECT_FALSE(health::DecodeProbe({}).has_value());
  EXPECT_FALSE(health::DecodeProbe({1, 2, 3}).has_value());
  // Waypoint count larger than the payload.
  EXPECT_FALSE(health::DecodeProbe({1, 0, 0, 99, 0}).has_value());
  // Hop region not a multiple of the hop width.
  auto payload = health::EncodeProbe(1, 0, 0, {2});
  payload.push_back(7);
  EXPECT_FALSE(health::DecodeProbe(payload).has_value());
}

// ---- Registry scoring -------------------------------------------------------

health::ProbeRecord OneHopRecord(net::NodeId ship, std::uint64_t queue_bytes,
                                 sim::TimePoint emitted, sim::TimePoint arrival,
                                 std::uint64_t executions = 0,
                                 std::uint64_t misses = 0) {
  health::ProbeRecord record;
  record.probe_id = 1;
  record.emitted = emitted;
  record.waypoints = {ship};
  health::HopSample hop;
  hop.ship = ship;
  hop.arrival = arrival;
  hop.queue_bytes = queue_bytes;
  hop.code_executions = executions;
  hop.code_misses = misses;
  record.hops.push_back(hop);
  return record;
}

TEST(HealthRegistry, ScoresDegradeWithQueueLatencyAndLoss) {
  health::HealthConfig config;
  health::HealthRegistry registry(config);
  EXPECT_DOUBLE_EQ(registry.ScoreOf(4), 1.0);  // never observed

  // Fast, empty ship: score stays near 1.
  registry.RecordEmission({4});
  registry.AbsorbProbe(OneHopRecord(4, 0, 0, 1000));
  const double healthy = registry.ScoreOf(4);
  EXPECT_GT(healthy, 0.99);

  // Heavy queue and slow hops push the score down.
  registry.RecordEmission({5});
  registry.AbsorbProbe(
      OneHopRecord(5, 1 << 20, 0, 80 * sim::kMillisecond));
  EXPECT_LT(registry.ScoreOf(5), 0.1);

  // Lost probes shrink the reachability factor.
  for (int i = 0; i < 3; ++i) {
    registry.RecordEmission({4});
    registry.RecordLoss({4});
  }
  EXPECT_LT(registry.ScoreOf(4), healthy);
  const auto& state = registry.ships().at(4);
  EXPECT_EQ(state.expected_visits, 4u);
  EXPECT_EQ(state.missed_visits, 3u);
}

TEST(HealthRegistry, MirrorsDistributionsIntoStatsRegistry) {
  health::HealthConfig config;
  health::HealthRegistry registry(config);
  sim::StatsRegistry stats;
  registry.AbsorbProbe(OneHopRecord(2, 256, 0, 5000), &stats);
  EXPECT_EQ(stats.GetHistogram("health.hop_latency_ns").count(), 1u);
  EXPECT_EQ(stats.GetHistogram("health.queue_bytes").count(), 1u);
  registry.PublishScores(stats);
  EXPECT_GT(stats.GetGauge("health.score.2").value(), 0.0);
  EXPECT_DOUBLE_EQ(stats.GetGauge("health.ships_tracked").value(), 1.0);
}

TEST(HealthRegistry, SaveRestoreRoundTripsExactly) {
  health::HealthConfig config;
  health::HealthRegistry registry(config);
  registry.RecordEmission({1, 2});
  registry.AbsorbProbe(OneHopRecord(1, 100, 0, 2000));
  registry.AbsorbProbe(OneHopRecord(2, 900, 0, 9000));
  registry.RecordLoss({2});

  health::HealthRegistry restored(config);
  restored.RestoreState(registry.SaveState());
  EXPECT_DOUBLE_EQ(restored.ScoreOf(1), registry.ScoreOf(1));
  EXPECT_DOUBLE_EQ(restored.ScoreOf(2), registry.ScoreOf(2));
  EXPECT_EQ(restored.hops_observed(), registry.hops_observed());
  EXPECT_EQ(restored.ships().at(2).missed_visits, 1u);
}

// ---- Anomaly rules ----------------------------------------------------------

TEST(AnomalyDetector, FlagsRoutingLoopsOncePerEpisode) {
  health::HealthConfig config;  // loop_repeats = 3
  health::AnomalyDetector detector(config);
  health::ProbeRecord record;
  record.probe_id = 9;
  health::HopSample hop;
  hop.ship = 2;
  for (int i = 0; i < 4; ++i) record.hops.push_back(hop);

  const auto fresh = detector.CheckRecord(record, 1000);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].kind, health::HealthEventKind::kRoutingLoop);
  EXPECT_EQ(fresh[0].ship, 2u);
  EXPECT_DOUBLE_EQ(fresh[0].value, 4.0);
  // Same loop again: episode already active, no duplicate event.
  EXPECT_TRUE(detector.CheckRecord(record, 2000).empty());
  EXPECT_EQ(detector.events().size(), 1u);
}

TEST(AnomalyDetector, FlagsStarvedEeWhenMissesGrowWithoutExecutions) {
  health::HealthConfig config;
  config.min_samples = 1;
  health::HealthRegistry registry(config);
  health::AnomalyDetector detector(config);

  registry.AbsorbProbe(OneHopRecord(3, 0, 0, 1000, /*executions=*/2,
                                    /*misses=*/5));
  EXPECT_TRUE(detector.Evaluate(registry, 1000).empty());  // baseline

  registry.AbsorbProbe(OneHopRecord(3, 0, 2000, 3000, 2, 9));
  const auto fresh = detector.Evaluate(registry, 3000);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].kind, health::HealthEventKind::kStarvedEe);
  EXPECT_EQ(fresh[0].ship, 3u);
  EXPECT_DOUBLE_EQ(fresh[0].value, 4.0);  // 9 - 5 new misses

  // Executions resume: the episode clears, a later stall raises again.
  registry.AbsorbProbe(OneHopRecord(3, 0, 4000, 5000, 6, 9));
  EXPECT_TRUE(detector.Evaluate(registry, 5000).empty());
  registry.AbsorbProbe(OneHopRecord(3, 0, 6000, 7000, 6, 12));
  EXPECT_EQ(detector.Evaluate(registry, 7000).size(), 1u);
}

TEST(AnomalyDetector, SaveRestoreKeepsEventsAndEpisodes) {
  health::HealthConfig config;
  health::AnomalyDetector detector(config);
  health::ProbeRecord record;
  health::HopSample hop;
  hop.ship = 1;
  for (int i = 0; i < 5; ++i) record.hops.push_back(hop);
  ASSERT_EQ(detector.CheckRecord(record, 500).size(), 1u);

  health::AnomalyDetector restored(config);
  restored.RestoreState(detector.SaveState());
  ASSERT_EQ(restored.events().size(), 1u);
  EXPECT_EQ(restored.events()[0].detail, detector.events()[0].detail);
  // The active episode survived: no duplicate on re-check.
  EXPECT_TRUE(restored.CheckRecord(record, 600).empty());
}

// ---- Whole-network scenarios ------------------------------------------------

/// One replica of the wnscope-style demo world, optionally with the health
/// plane emitting probes.
struct World {
  sim::Simulator simulator;
  net::Topology topology;
  wli::WnConfig config;
  std::unique_ptr<wli::WanderingNetwork> network;
  std::unique_ptr<health::ProbePlane> plane;

  explicit World(bool probes, bool populate = true) {
    if (populate) topology = net::MakeGrid(3, 3);
    config.telemetry.enable_tracing = true;
    network = std::make_unique<wli::WanderingNetwork>(simulator, topology,
                                                      config, kSeed);
    if (populate) network->PopulateAllNodes();
    health::HealthConfig hconfig;
    hconfig.enable_probes = probes;
    hconfig.collector = 0;
    plane = std::make_unique<health::ProbePlane>(*network, hconfig, kSeed);
  }

  /// Workload driven by the network's own RNG — any extra draw or event
  /// perturbation by the probe plane would derail it visibly.
  void Drive(int begin, int end, bool probe_rounds) {
    const std::size_t n = topology.node_count();
    for (int i = begin; i < end; ++i) {
      const auto src =
          static_cast<net::NodeId>(network->rng().UniformInt(0, n - 1));
      auto dst =
          static_cast<net::NodeId>(network->rng().UniformInt(0, n - 1));
      if (dst == src) dst = static_cast<net::NodeId>((dst + 1) % n);
      (void)network->Inject(wli::Shuttle::Data(
          src, dst, {i, 3, 5}, static_cast<std::uint64_t>(i) + 1));
      simulator.RunAll();
      if (probe_rounds) {
        plane->RunRound();
        simulator.RunAll();
      }
      if (i % 8 == 7) {
        network->Pulse();
        simulator.RunAll();
      }
    }
  }
};

TEST(ProbeNeutrality, EnabledProbesChangeNoSimulationDecision) {
  World with_probes(/*probes=*/true);
  World without(/*probes=*/false);
  with_probes.Drive(0, 48, /*probe_rounds=*/true);
  without.Drive(0, 48, /*probe_rounds=*/true);  // rounds no-op: disabled

  // The probe run really probed…
  EXPECT_GT(with_probes.plane->probes_emitted(), 0u);
  EXPECT_GT(with_probes.plane->probes_absorbed(), 0u);
  EXPECT_GT(with_probes.plane->registry().hops_observed(), 0u);

  // …yet every decision stream is bit-identical: the network RNG, the
  // fabric's loss RNG and every ship's workload counters match the
  // probe-free twin exactly.
  EXPECT_EQ(with_probes.network->rng().SaveState(),
            without.network->rng().SaveState());
  EXPECT_EQ(with_probes.network->fabric().rng().SaveState(),
            without.network->fabric().rng().SaveState());
  without.network->ForEachShip([&](wli::Ship& ship) {
    const wli::Ship* twin = with_probes.network->ship(ship.id());
    ASSERT_NE(twin, nullptr);
    EXPECT_EQ(twin->shuttles_consumed(), ship.shuttles_consumed())
        << "ship " << ship.id();
    EXPECT_EQ(twin->shuttles_forwarded(), ship.shuttles_forwarded());
    EXPECT_EQ(twin->code_executions(), ship.code_executions());
    EXPECT_EQ(twin->code_misses(), ship.code_misses());
  });
  // Workload counters agree metric-for-metric (the probe run adds health.*
  // extras on top, which is the point of in-band observability).
  for (const auto& [name, counter] : without.network->stats().counters()) {
    EXPECT_EQ(with_probes.network->stats().GetCounter(name).value(),
              counter.value())
        << name;
  }
  EXPECT_EQ(with_probes.network->pulses(), without.network->pulses());
}

TEST(ProbeNeutrality, DisabledPlaneEmitsNothing) {
  World world(/*probes=*/false);
  world.plane->StartProbes(2 * sim::kSecond);
  world.Drive(0, 16, /*probe_rounds=*/false);
  world.simulator.RunAll();
  EXPECT_EQ(world.plane->probes_emitted(), 0u);
  EXPECT_EQ(world.plane->rounds(), 0u);
  EXPECT_TRUE(world.plane->registry().ships().empty());
}

TEST(HealthGenesis, CheckpointResumeReproducesReportByteForByte) {
  // Uninterrupted reference.
  World ref(/*probes=*/true);
  ref.Drive(0, 32, true);
  ref.Drive(32, 64, true);
  ref.plane->Evaluate();

  // Interrupted twin: run half, snapshot (health plane as an extra
  // section), restore into a fresh world, finish the run.
  World first(/*probes=*/true);
  first.Drive(0, 32, true);
  ASSERT_EQ(first.plane->pending_count(), 0u);  // quiescent, like shuttles
  genesis::TelemetryAdapter source_telemetry(first.network->telemetry());
  genesis::HealthAdapter source_adapter(*first.plane);
  genesis::GenesisManager source(*first.network);
  ASSERT_TRUE(source.RegisterExtra(source_telemetry).ok());
  ASSERT_TRUE(source.RegisterExtra(source_adapter).ok());
  auto snapshot = source.CaptureFull();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  World resumed(/*probes=*/true, /*populate=*/false);
  genesis::TelemetryAdapter resumed_telemetry(resumed.network->telemetry());
  genesis::HealthAdapter resumed_adapter(*resumed.plane);
  genesis::GenesisManager target(*resumed.network);
  // Spans must ride along: the registry's span cursor points into the
  // collector, so restoring health without telemetry desynchronises it.
  ASSERT_TRUE(target.RegisterExtra(resumed_telemetry).ok());
  ASSERT_TRUE(target.RegisterExtra(resumed_adapter).ok());
  ASSERT_TRUE(target.RestoreFull(*snapshot).ok());
  resumed.Drive(32, 64, true);
  resumed.plane->Evaluate();

  // Same probes, same scores, same events — the serialized report and the
  // health snapshot section are byte-identical to the uninterrupted run.
  EXPECT_EQ(resumed.plane->probes_emitted(), ref.plane->probes_emitted());
  EXPECT_EQ(resumed.plane->probes_absorbed(), ref.plane->probes_absorbed());
  std::ostringstream ref_report, resumed_report;
  health::WriteHealthJsonl(ref.plane->BuildReport(), ref_report);
  health::WriteHealthJsonl(resumed.plane->BuildReport(), resumed_report);
  EXPECT_EQ(resumed_report.str(), ref_report.str());
  genesis::HealthAdapter ref_adapter(*ref.plane);
  EXPECT_EQ(resumed_adapter.Save(), ref_adapter.Save());
}

TEST(AnomalyScenario, DegradedShipIsFlaggedDeterministically) {
  // Seeded degraded-ship golden: ship 5 dies mid-run; probes that name it
  // as a waypoint vanish, and the detector must flag exactly that ship.
  auto run = [](bool degrade) {
    World world(/*probes=*/true);
    net::FailureInjector failures(world.simulator, world.topology,
                                  Rng(kSeed ^ 0xFA17ED));
    if (degrade) failures.FailNode(5, 1, /*outage=*/0);
    world.plane->StartProbes(2 * sim::kSecond);
    world.simulator.RunUntil(2 * sim::kSecond);
    world.simulator.RunAll();
    world.plane->Evaluate();
    return world.plane->BuildReport();
  };

  const health::HealthReport healthy = run(false);
  EXPECT_TRUE(healthy.events.empty());
  EXPECT_EQ(healthy.summary.probes_lost, 0u);

  const health::HealthReport degraded = run(true);
  EXPECT_GT(degraded.summary.probes_lost, 0u);
  ASSERT_FALSE(degraded.events.empty());
  for (const health::HealthEvent& event : degraded.events) {
    EXPECT_EQ(event.kind, health::HealthEventKind::kDegradedShip);
    EXPECT_EQ(event.ship, 5u);
  }
  // Determinism golden: the same degraded run reproduces the same report.
  const health::HealthReport again = run(true);
  std::ostringstream a, b;
  health::WriteHealthJsonl(degraded, a);
  health::WriteHealthJsonl(again, b);
  EXPECT_EQ(a.str(), b.str());
}

// ---- Reports and gates ------------------------------------------------------

health::HealthReport SmallReport() {
  health::HealthReport report;
  health::ShipReportEntry ship;
  ship.ship = 4;
  ship.score = 0.9;
  ship.samples = 12;
  report.ships.push_back(ship);
  health::HealthEvent event;
  event.time = 777;
  event.kind = health::HealthEventKind::kRoutingLoop;
  event.ship = 4;
  event.detail = "probe 1 crossed ship 4 \"loop\"";
  report.events.push_back(event);
  report.summary.probes_emitted = 10;
  report.summary.probes_absorbed = 9;
  report.summary.events = 1;
  return report;
}

TEST(HealthReport, JsonlRoundTripsAndSelfDiffsClean) {
  const health::HealthReport report = SmallReport();
  std::stringstream stream;
  health::WriteHealthJsonl(report, stream);
  const auto parsed = health::ParseHealthJsonl(stream);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->ships.size(), 1u);
  EXPECT_EQ(parsed->ships[0].ship, 4u);
  EXPECT_DOUBLE_EQ(parsed->ships[0].score, 0.9);
  ASSERT_EQ(parsed->events.size(), 1u);
  EXPECT_EQ(parsed->events[0].kind, health::HealthEventKind::kRoutingLoop);
  EXPECT_EQ(parsed->events[0].detail, report.events[0].detail);
  EXPECT_EQ(parsed->summary.probes_absorbed, 9u);

  EXPECT_TRUE(health::DiffHealthReports(*parsed, *parsed, {}).empty());
  // Truncated stream (no summary line) is not a report.
  std::stringstream truncated("{\"kind\":\"ship\",\"ship\":4}\n");
  EXPECT_FALSE(health::ParseHealthJsonl(truncated).has_value());
}

TEST(HealthReport, DiffFlagsScoreDropsVanishedShipsAndNewEvents) {
  const health::HealthReport baseline = SmallReport();
  health::HealthReport current = SmallReport();
  current.ships[0].score = 0.5;  // beyond the 0.05 band
  health::HealthEvent extra;
  extra.kind = health::HealthEventKind::kDegradedShip;
  current.events.push_back(extra);
  auto regressions = health::DiffHealthReports(baseline, current, {});
  ASSERT_EQ(regressions.size(), 2u);
  EXPECT_NE(regressions[0].find("score dropped"), std::string::npos);
  EXPECT_NE(regressions[1].find("degraded-ship"), std::string::npos);

  current = SmallReport();
  current.ships.clear();
  regressions = health::DiffHealthReports(baseline, current, {});
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_NE(regressions[0].find("disappeared"), std::string::npos);
}

// ---- MemGrowthDetector ------------------------------------------------------

TEST(MemGrowth, MonotoneGrowthPastSlackRaisesOneEpisode) {
  health::MemGrowthConfig config;
  config.consecutive_windows = 3;
  config.slack_bytes = 1000;
  health::MemGrowthDetector detector(config);
  const auto domain = telemetry::mem::Domain::kShuttlePool;

  // First sample seeds; two growing windows are below the streak threshold.
  EXPECT_FALSE(detector.Observe(domain, 100, 1).has_value());
  EXPECT_FALSE(detector.Observe(domain, 600, 2).has_value());
  EXPECT_FALSE(detector.Observe(domain, 1000, 3).has_value());
  // Third growing window, net growth 1400 > slack: one event, tagged with
  // the domain index and the mem_growth kind.
  const auto event = detector.Observe(domain, 1500, 4);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->kind, health::HealthEventKind::kMemGrowth);
  EXPECT_EQ(event->ship, static_cast<net::NodeId>(domain));
  EXPECT_DOUBLE_EQ(event->value, 1400.0);
  EXPECT_DOUBLE_EQ(event->threshold, 1000.0);
  EXPECT_NE(event->detail.find("mem.shuttle_pool"), std::string::npos);

  // Continued growth inside the same episode stays deduplicated.
  EXPECT_FALSE(detector.Observe(domain, 2000, 5).has_value());
  EXPECT_FALSE(detector.Observe(domain, 2500, 6).has_value());
  EXPECT_EQ(detector.events().size(), 1u);

  // A shrink ends the episode; a fresh monotone run re-raises.
  EXPECT_FALSE(detector.Observe(domain, 500, 7).has_value());
  EXPECT_FALSE(detector.Observe(domain, 1000, 8).has_value());
  EXPECT_FALSE(detector.Observe(domain, 1500, 9).has_value());
  EXPECT_TRUE(detector.Observe(domain, 2000, 10).has_value());
  EXPECT_EQ(detector.events().size(), 2u);
}

TEST(MemGrowth, SlackAbsorbsSteadyStateWobbleAndFlatSeries) {
  health::MemGrowthConfig config;
  config.consecutive_windows = 2;
  config.slack_bytes = 1 << 20;
  health::MemGrowthDetector detector(config);
  const auto domain = telemetry::mem::Domain::kCalendarQueue;
  // Growing every window but never beyond the slack: silent.
  std::uint64_t bytes = 0;
  for (sim::TimePoint t = 1; t <= 64; ++t) {
    bytes += 64;
    EXPECT_FALSE(detector.Observe(domain, bytes, t).has_value());
  }
  // Flat series: silent, and it resets the growth run.
  for (sim::TimePoint t = 65; t <= 80; ++t) {
    EXPECT_FALSE(detector.Observe(domain, bytes, t).has_value());
  }
  EXPECT_TRUE(detector.events().empty());
}

TEST(MemGrowth, ObserveBlockSweepsEveryDomain) {
  health::MemGrowthConfig config;
  config.consecutive_windows = 2;
  config.slack_bytes = 100;
  health::MemGrowthDetector detector(config);
  telemetry::mem::Plane::Block block{};
  auto& shuttle = block[static_cast<std::size_t>(
      telemetry::mem::Domain::kShuttlePool)];
  auto& mailbox = block[static_cast<std::size_t>(
      telemetry::mem::Domain::kMailbox)];
  for (int window = 0; window < 3; ++window) {
    shuttle.live_bytes += 4096;
    mailbox.live_bytes += 2048;
    const auto fresh = detector.ObserveBlock(block, window + 1);
    if (window < 2) {
      EXPECT_TRUE(fresh.empty());
    } else {
      // Both domains cross streak + slack on the same sweep.
      ASSERT_EQ(fresh.size(), 2u);
      EXPECT_EQ(fresh[0].ship, static_cast<net::NodeId>(
                                   telemetry::mem::Domain::kShuttlePool));
      EXPECT_EQ(fresh[1].ship,
                static_cast<net::NodeId>(telemetry::mem::Domain::kMailbox));
    }
  }
}

TEST(MemGrowth, KindNameRoundTrips) {
  EXPECT_EQ(health::HealthEventKindName(health::HealthEventKind::kMemGrowth),
            "mem_growth");
  const auto kind = health::HealthEventKindFromName("mem_growth");
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(*kind, health::HealthEventKind::kMemGrowth);
}

TEST(BenchGate, ComparesMetricsWithToleranceAndIgnores) {
  std::stringstream base_json(
      "{\n  \"dispatch_count\": 1000,\n  \"wall_seconds\": 1.5,\n"
      "  \"cache_hits\": 80\n}\n");
  const auto baseline = health::ParseFlatJson(base_json);
  ASSERT_EQ(baseline.size(), 3u);
  EXPECT_DOUBLE_EQ(baseline.at("dispatch_count"), 1000.0);

  // Within tolerance, wall-clock drift ignored: gate passes.
  health::BenchGateOptions options;
  options.tolerance = 0.25;
  std::map<std::string, double> current = {{"dispatch_count", 900.0},
                                           {"wall_seconds", 99.0},
                                           {"cache_hits", 80.0}};
  EXPECT_TRUE(health::CompareBenchMetrics(baseline, current, options).empty());

  // Real drift beyond the band and a vanished metric both gate.
  current["dispatch_count"] = 500.0;
  current.erase("cache_hits");
  const auto regressions =
      health::CompareBenchMetrics(baseline, current, options);
  ASSERT_EQ(regressions.size(), 2u);
  EXPECT_NE(regressions[0].find("cache_hits"), std::string::npos);
  EXPECT_NE(regressions[1].find("dispatch_count"), std::string::npos);
}

}  // namespace
}  // namespace viator
