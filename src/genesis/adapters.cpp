#include "genesis/adapters.h"

#include <utility>

#include "base/archive.h"
#include "base/tlv.h"
#include "genesis/sections.h"

namespace viator::genesis {
namespace {

Status OpenReader(std::span<const std::byte> payload, TlvReader& reader) {
  reader = TlvReader(payload);
  return reader.Verify();
}

}  // namespace

// ---- FailureInjectorAdapter ------------------------------------------------

namespace {
constexpr TlvTag kTagFailRng = 0x01;
constexpr TlvTag kTagFailCount = 0x02;
}  // namespace

std::vector<std::byte> FailureInjectorAdapter::Save() const {
  TlvWriter w;
  w.PutNested(kTagFailRng, EncodeFields(injector_.rng()));
  w.PutU64(kTagFailCount, injector_.failures_injected());
  return w.Finish();
}

Status FailureInjectorAdapter::Load(std::span<const std::byte> payload) {
  TlvReader r({});
  if (Status s = OpenReader(payload, r); !s.ok()) return s;
  std::uint64_t count = 0;
  while (r.HasNext()) {
    auto rec = r.Next();
    if (!rec.ok()) return rec.status();
    if (rec->tag == kTagFailRng) {
      if (Status s = DecodeFields(rec->payload, injector_.rng()); !s.ok()) {
        return s;
      }
    }
    if (rec->tag == kTagFailCount) count = rec->AsU64();
  }
  injector_.RestoreState(count);
  return OkStatus();
}

// ---- MobilityAdapter -------------------------------------------------------

namespace {
constexpr TlvTag kTagMobRng = 0x01;
constexpr TlvTag kTagMobNode = 0x02;
constexpr TlvTag kTagMobX = 0x01;
constexpr TlvTag kTagMobY = 0x02;
constexpr TlvTag kTagMobTargetX = 0x03;
constexpr TlvTag kTagMobTargetY = 0x04;
constexpr TlvTag kTagMobSpeed = 0x05;
constexpr TlvTag kTagMobPause = 0x06;
constexpr TlvTag kTagMobPinned = 0x07;
}  // namespace

std::vector<std::byte> MobilityAdapter::Save() const {
  TlvWriter w;
  w.PutNested(kTagMobRng, EncodeFields(mobility_.rng()));
  for (std::size_t i = 0; i < mobility_.positions().size(); ++i) {
    const net::Position& pos = mobility_.positions()[i];
    const net::RandomWaypointMobility::NodeState& state =
        mobility_.states()[i];
    TlvWriter inner;
    inner.PutDouble(kTagMobX, pos.x);
    inner.PutDouble(kTagMobY, pos.y);
    inner.PutDouble(kTagMobTargetX, state.target.x);
    inner.PutDouble(kTagMobTargetY, state.target.y);
    inner.PutDouble(kTagMobSpeed, state.speed);
    inner.PutDouble(kTagMobPause, state.pause_left);
    inner.PutU32(kTagMobPinned, mobility_.pinned()[i] ? 1 : 0);
    w.PutNested(kTagMobNode, inner.Finish());
  }
  return w.Finish();
}

Status MobilityAdapter::Load(std::span<const std::byte> payload) {
  TlvReader r({});
  if (Status s = OpenReader(payload, r); !s.ok()) return s;
  std::vector<net::Position> positions;
  std::vector<net::RandomWaypointMobility::NodeState> states;
  std::vector<bool> pinned;
  std::span<const std::byte> rng_payload;
  while (r.HasNext()) {
    auto rec = r.Next();
    if (!rec.ok()) return rec.status();
    if (rec->tag == kTagMobRng) rng_payload = rec->payload;
    if (rec->tag != kTagMobNode) continue;
    TlvReader inner(rec->payload);
    net::Position pos;
    net::RandomWaypointMobility::NodeState state;
    bool pin = false;
    while (inner.HasNext()) {
      auto f = inner.Next();
      if (!f.ok()) return f.status();
      switch (f->tag) {
        case kTagMobX: pos.x = f->AsDouble(); break;
        case kTagMobY: pos.y = f->AsDouble(); break;
        case kTagMobTargetX: state.target.x = f->AsDouble(); break;
        case kTagMobTargetY: state.target.y = f->AsDouble(); break;
        case kTagMobSpeed: state.speed = f->AsDouble(); break;
        case kTagMobPause: state.pause_left = f->AsDouble(); break;
        case kTagMobPinned: pin = f->AsU32() != 0; break;
        default: break;
      }
    }
    positions.push_back(pos);
    states.push_back(state);
    pinned.push_back(pin);
  }
  if (positions.size() != mobility_.positions().size()) {
    return InvalidArgument(
        "mobility snapshot covers " + std::to_string(positions.size()) +
        " nodes but the process has " +
        std::to_string(mobility_.positions().size()));
  }
  if (!rng_payload.empty()) {
    if (Status s = DecodeFields(rng_payload, mobility_.rng()); !s.ok()) {
      return s;
    }
  }
  mobility_.RestoreState(std::move(positions), std::move(states),
                         std::move(pinned));
  return OkStatus();
}

// ---- DvRouterAdapter -------------------------------------------------------

namespace {
constexpr TlvTag kTagDvAdsSent = 0x01;
constexpr TlvTag kTagDvControlBytes = 0x02;
constexpr TlvTag kTagDvDropped = 0x03;
constexpr TlvTag kTagDvTable = 0x04;
constexpr TlvTag kTagDvRoute = 0x01;
constexpr TlvTag kTagDvDst = 0x01;
constexpr TlvTag kTagDvNextHop = 0x02;
constexpr TlvTag kTagDvMetric = 0x03;
constexpr TlvTag kTagDvExpires = 0x04;
}  // namespace

std::vector<std::byte> DvRouterAdapter::Save() const {
  TlvWriter w;
  w.PutU64(kTagDvAdsSent, router_.ads_sent());
  w.PutU64(kTagDvControlBytes, router_.control_bytes());
  w.PutU64(kTagDvDropped, router_.dropped_no_route());
  for (const auto& table : router_.tables()) {
    TlvWriter tw;
    for (const auto& [dst, route] : table) {
      TlvWriter rw;
      rw.PutU64(kTagDvDst, dst);
      rw.PutU64(kTagDvNextHop, route.next_hop);
      rw.PutU32(kTagDvMetric, route.metric);
      rw.PutU64(kTagDvExpires, route.expires);
      tw.PutNested(kTagDvRoute, rw.Finish());
    }
    w.PutNested(kTagDvTable, tw.Finish());
  }
  return w.Finish();
}

Status DvRouterAdapter::Load(std::span<const std::byte> payload) {
  TlvReader r({});
  if (Status s = OpenReader(payload, r); !s.ok()) return s;
  std::uint64_t ads = 0, bytes = 0, dropped = 0;
  std::vector<services::DistanceVectorRouter::RouteTable> tables;
  while (r.HasNext()) {
    auto rec = r.Next();
    if (!rec.ok()) return rec.status();
    switch (rec->tag) {
      case kTagDvAdsSent: ads = rec->AsU64(); break;
      case kTagDvControlBytes: bytes = rec->AsU64(); break;
      case kTagDvDropped: dropped = rec->AsU64(); break;
      case kTagDvTable: {
        TlvReader tr(rec->payload);
        services::DistanceVectorRouter::RouteTable table;
        while (tr.HasNext()) {
          auto t = tr.Next();
          if (!t.ok()) return t.status();
          if (t->tag != kTagDvRoute) continue;
          TlvReader rr(t->payload);
          net::NodeId dst = net::kInvalidNode;
          services::DistanceVectorRouter::Route route;
          while (rr.HasNext()) {
            auto f = rr.Next();
            if (!f.ok()) return f.status();
            switch (f->tag) {
              case kTagDvDst: dst = static_cast<net::NodeId>(f->AsU64()); break;
              case kTagDvNextHop:
                route.next_hop = static_cast<net::NodeId>(f->AsU64());
                break;
              case kTagDvMetric: route.metric = f->AsU32(); break;
              case kTagDvExpires: route.expires = f->AsU64(); break;
              default: break;
            }
          }
          table[dst] = route;
        }
        tables.push_back(std::move(table));
        break;
      }
      default:
        break;
    }
  }
  if (tables.size() != router_.tables().size()) {
    return InvalidArgument(
        "routing snapshot covers " + std::to_string(tables.size()) +
        " nodes but the router has " + std::to_string(router_.tables().size()));
  }
  router_.RestoreState(std::move(tables), ads, bytes, dropped);
  return OkStatus();
}

// ---- CachingServiceAdapter -------------------------------------------------

namespace {
constexpr TlvTag kTagCacheHits = 0x01;
constexpr TlvTag kTagCacheMisses = 0x02;
constexpr TlvTag kTagCacheObject = 0x03;
constexpr TlvTag kTagObjectId = 0x01;
constexpr TlvTag kTagObjectWord = 0x02;
}  // namespace

std::vector<std::byte> CachingServiceAdapter::Save() const {
  TlvWriter w;
  w.PutU64(kTagCacheHits, cache_.hits());
  w.PutU64(kTagCacheMisses, cache_.misses());
  for (const auto& [content_id, body] : cache_.CachedObjects()) {
    TlvWriter inner;
    inner.PutU64(kTagObjectId, content_id);
    for (std::int64_t word : body) {
      inner.PutU64(kTagObjectWord, static_cast<std::uint64_t>(word));
    }
    w.PutNested(kTagCacheObject, inner.Finish());
  }
  return w.Finish();
}

Status CachingServiceAdapter::Load(std::span<const std::byte> payload) {
  TlvReader r({});
  if (Status s = OpenReader(payload, r); !s.ok()) return s;
  std::uint64_t hits = 0, misses = 0;
  std::vector<std::pair<std::uint64_t, std::vector<std::int64_t>>> objects;
  while (r.HasNext()) {
    auto rec = r.Next();
    if (!rec.ok()) return rec.status();
    if (rec->tag == kTagCacheHits) hits = rec->AsU64();
    if (rec->tag == kTagCacheMisses) misses = rec->AsU64();
    if (rec->tag != kTagCacheObject) continue;
    TlvReader inner(rec->payload);
    std::uint64_t content_id = 0;
    std::vector<std::int64_t> body;
    while (inner.HasNext()) {
      auto f = inner.Next();
      if (!f.ok()) return f.status();
      if (f->tag == kTagObjectId) content_id = f->AsU64();
      if (f->tag == kTagObjectWord) {
        body.push_back(static_cast<std::int64_t>(f->AsU64()));
      }
    }
    objects.emplace_back(content_id, std::move(body));
  }
  cache_.RestoreState(objects, hits, misses);
  return OkStatus();
}

// ---- TelemetryAdapter ------------------------------------------------------

namespace {
constexpr TlvTag kTagTelRngWord = 0x01;       // ×4, xoshiro words in order
constexpr TlvTag kTagTelLastSpanId = 0x02;
constexpr TlvTag kTagTelTracesStarted = 0x03;
constexpr TlvTag kTagTelSpansRecorded = 0x04;
constexpr TlvTag kTagTelSpansDropped = 0x05;
constexpr TlvTag kTagTelSpan = 0x06;          // nested, one per record
constexpr TlvTag kTagSpanTraceId = 0x01;
constexpr TlvTag kTagSpanId = 0x02;
constexpr TlvTag kTagSpanParentId = 0x03;
constexpr TlvTag kTagSpanShip = 0x04;
constexpr TlvTag kTagSpanComponent = 0x05;
constexpr TlvTag kTagSpanName = 0x06;
constexpr TlvTag kTagSpanStart = 0x07;
constexpr TlvTag kTagSpanEnd = 0x08;
}  // namespace

std::vector<std::byte> TelemetryAdapter::Save() const {
  const telemetry::SpanCollector::RawState state =
      telemetry_.spans().SaveState();
  TlvWriter w;
  for (std::uint64_t word : state.rng_state) w.PutU64(kTagTelRngWord, word);
  w.PutU64(kTagTelLastSpanId, state.last_span_id);
  w.PutU64(kTagTelTracesStarted, state.traces_started);
  w.PutU64(kTagTelSpansRecorded, state.spans_recorded);
  w.PutU64(kTagTelSpansDropped, state.spans_dropped);
  for (const telemetry::SpanRecord& span : state.spans) {
    TlvWriter inner;
    inner.PutU64(kTagSpanTraceId, span.trace_id);
    inner.PutU64(kTagSpanId, span.span_id);
    inner.PutU64(kTagSpanParentId, span.parent_span_id);
    inner.PutU64(kTagSpanShip, span.ship);
    inner.PutString(kTagSpanComponent, span.component);
    inner.PutString(kTagSpanName, span.name);
    inner.PutU64(kTagSpanStart, span.start);
    inner.PutU64(kTagSpanEnd, span.end);
    w.PutNested(kTagTelSpan, inner.Finish());
  }
  return w.Finish();
}

Status TelemetryAdapter::Load(std::span<const std::byte> payload) {
  TlvReader r({});
  if (Status s = OpenReader(payload, r); !s.ok()) return s;
  telemetry::SpanCollector::RawState state;
  std::size_t rng_words = 0;
  while (r.HasNext()) {
    auto rec = r.Next();
    if (!rec.ok()) return rec.status();
    switch (rec->tag) {
      case kTagTelRngWord:
        if (rng_words >= state.rng_state.size()) {
          return InvalidArgument("telemetry section has extra rng words");
        }
        state.rng_state[rng_words++] = rec->AsU64();
        break;
      case kTagTelLastSpanId:
        state.last_span_id = rec->AsU64();
        break;
      case kTagTelTracesStarted:
        state.traces_started = rec->AsU64();
        break;
      case kTagTelSpansRecorded:
        state.spans_recorded = rec->AsU64();
        break;
      case kTagTelSpansDropped:
        state.spans_dropped = rec->AsU64();
        break;
      case kTagTelSpan: {
        TlvReader inner(rec->payload);
        telemetry::SpanRecord span;
        while (inner.HasNext()) {
          auto f = inner.Next();
          if (!f.ok()) return f.status();
          switch (f->tag) {
            case kTagSpanTraceId: span.trace_id = f->AsU64(); break;
            case kTagSpanId: span.span_id = f->AsU64(); break;
            case kTagSpanParentId: span.parent_span_id = f->AsU64(); break;
            case kTagSpanShip: span.ship = f->AsU64(); break;
            case kTagSpanComponent: span.component = f->AsString(); break;
            case kTagSpanName: span.name = f->AsString(); break;
            case kTagSpanStart: span.start = f->AsU64(); break;
            case kTagSpanEnd: span.end = f->AsU64(); break;
            default: break;  // forward compatibility
          }
        }
        state.spans.push_back(std::move(span));
        break;
      }
      default:
        break;  // forward compatibility
    }
  }
  if (rng_words != state.rng_state.size()) {
    return InvalidArgument("telemetry section has " +
                           std::to_string(rng_words) + " rng words, want " +
                           std::to_string(state.rng_state.size()));
  }
  telemetry_.spans().RestoreState(std::move(state));
  return OkStatus();
}

// ---- HealthAdapter ---------------------------------------------------------

namespace {
// top level
constexpr TlvTag kTagHpRngWord = 0x01;
constexpr TlvTag kTagHpNextProbeId = 0x02;
constexpr TlvTag kTagHpRounds = 0x03;
constexpr TlvTag kTagHpEmitted = 0x04;
constexpr TlvTag kTagHpAbsorbed = 0x05;
constexpr TlvTag kTagHpLost = 0x06;
constexpr TlvTag kTagHpTtlExpired = 0x07;
constexpr TlvTag kTagHpPending = 0x08;
constexpr TlvTag kTagHpShip = 0x09;
constexpr TlvTag kTagHpHopsObserved = 0x0A;
constexpr TlvTag kTagHpSpansIngested = 0x0B;
constexpr TlvTag kTagHpSpanCursor = 0x0C;
constexpr TlvTag kTagHpEvent = 0x0D;
constexpr TlvTag kTagHpActive = 0x0E;
constexpr TlvTag kTagHpPrevCounters = 0x0F;
// pending
constexpr TlvTag kTagHpPendId = 0x01;
constexpr TlvTag kTagHpPendEmitted = 0x02;
constexpr TlvTag kTagHpPendWaypoint = 0x03;
// ship
constexpr TlvTag kTagHsNode = 0x01;
constexpr TlvTag kTagHsQueueEwma = 0x02;
constexpr TlvTag kTagHsHopLatEwma = 0x03;
constexpr TlvTag kTagHsSvcLatEwma = 0x04;
constexpr TlvTag kTagHsSamples = 0x05;
constexpr TlvTag kTagHsSvcSamples = 0x06;
constexpr TlvTag kTagHsExpected = 0x07;
constexpr TlvTag kTagHsMissed = 0x08;
constexpr TlvTag kTagHsExecutions = 0x09;
constexpr TlvTag kTagHsMisses = 0x0A;
constexpr TlvTag kTagHsHopHist = 0x0B;
constexpr TlvTag kTagHsQueueHist = 0x0C;
// histogram raw state
constexpr TlvTag kTagHhCount = 0x01;
constexpr TlvTag kTagHhSum = 0x02;
constexpr TlvTag kTagHhSumSq = 0x03;
constexpr TlvTag kTagHhMin = 0x04;
constexpr TlvTag kTagHhMax = 0x05;
constexpr TlvTag kTagHhZeros = 0x06;
constexpr TlvTag kTagHhOrigin = 0x07;
constexpr TlvTag kTagHhBucket = 0x08;
// event
constexpr TlvTag kTagHeTime = 0x01;
constexpr TlvTag kTagHeKind = 0x02;
constexpr TlvTag kTagHeShip = 0x03;
constexpr TlvTag kTagHeValue = 0x04;
constexpr TlvTag kTagHeThreshold = 0x05;
constexpr TlvTag kTagHeDetail = 0x06;
// active / prev counters
constexpr TlvTag kTagHaKind = 0x01;
constexpr TlvTag kTagHaShip = 0x02;
constexpr TlvTag kTagHcShip = 0x01;
constexpr TlvTag kTagHcExecutions = 0x02;
constexpr TlvTag kTagHcMisses = 0x03;

std::vector<std::byte> SaveHealthHistogram(
    const sim::Histogram::RawState& raw) {
  TlvWriter w;
  w.PutU64(kTagHhCount, raw.count);
  w.PutDouble(kTagHhSum, raw.sum);
  w.PutDouble(kTagHhSumSq, raw.sum_sq);
  w.PutDouble(kTagHhMin, raw.min);
  w.PutDouble(kTagHhMax, raw.max);
  w.PutU64(kTagHhZeros, raw.zeros);
  w.PutU64(kTagHhOrigin, static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(raw.bucket_origin)));
  for (std::uint64_t bucket : raw.buckets) w.PutU64(kTagHhBucket, bucket);
  return w.Finish();
}

Status LoadHealthHistogram(std::span<const std::byte> payload,
                           sim::Histogram::RawState& raw) {
  TlvReader r(payload);
  while (r.HasNext()) {
    auto f = r.Next();
    if (!f.ok()) return f.status();
    switch (f->tag) {
      case kTagHhCount: raw.count = f->AsU64(); break;
      case kTagHhSum: raw.sum = f->AsDouble(); break;
      case kTagHhSumSq: raw.sum_sq = f->AsDouble(); break;
      case kTagHhMin: raw.min = f->AsDouble(); break;
      case kTagHhMax: raw.max = f->AsDouble(); break;
      case kTagHhZeros: raw.zeros = f->AsU64(); break;
      case kTagHhOrigin:
        raw.bucket_origin = static_cast<std::int32_t>(
            static_cast<std::int64_t>(f->AsU64()));
        break;
      case kTagHhBucket: raw.buckets.push_back(f->AsU64()); break;
      default: break;
    }
  }
  return OkStatus();
}

}  // namespace

std::vector<std::byte> HealthAdapter::Save() const {
  const health::ProbePlane::RawState state = plane_.SaveState();
  TlvWriter w;
  for (std::uint64_t word : state.rng_state) w.PutU64(kTagHpRngWord, word);
  w.PutU64(kTagHpNextProbeId, state.next_probe_id);
  w.PutU64(kTagHpRounds, state.rounds);
  w.PutU64(kTagHpEmitted, state.probes_emitted);
  w.PutU64(kTagHpAbsorbed, state.probes_absorbed);
  w.PutU64(kTagHpLost, state.probes_lost);
  w.PutU64(kTagHpTtlExpired, state.probes_ttl_expired);
  for (const auto& pending : state.pending) {
    TlvWriter inner;
    inner.PutU64(kTagHpPendId, pending.probe_id);
    inner.PutU64(kTagHpPendEmitted, pending.emitted);
    for (const net::NodeId w2 : pending.waypoints) {
      inner.PutU64(kTagHpPendWaypoint, w2);
    }
    w.PutNested(kTagHpPending, inner.Finish());
  }
  for (const auto& ship : state.registry.ships) {
    TlvWriter inner;
    inner.PutU64(kTagHsNode, ship.ship);
    inner.PutDouble(kTagHsQueueEwma, ship.queue_ewma);
    inner.PutDouble(kTagHsHopLatEwma, ship.hop_latency_ewma);
    inner.PutDouble(kTagHsSvcLatEwma, ship.service_latency_ewma);
    inner.PutU64(kTagHsSamples, ship.samples);
    inner.PutU64(kTagHsSvcSamples, ship.service_samples);
    inner.PutU64(kTagHsExpected, ship.expected_visits);
    inner.PutU64(kTagHsMissed, ship.missed_visits);
    inner.PutU64(kTagHsExecutions, ship.code_executions);
    inner.PutU64(kTagHsMisses, ship.code_misses);
    inner.PutNested(kTagHsHopHist, SaveHealthHistogram(ship.hop_latency_ns));
    inner.PutNested(kTagHsQueueHist, SaveHealthHistogram(ship.queue_bytes));
    w.PutNested(kTagHpShip, inner.Finish());
  }
  w.PutU64(kTagHpHopsObserved, state.registry.hops_observed);
  w.PutU64(kTagHpSpansIngested, state.registry.spans_ingested);
  w.PutU64(kTagHpSpanCursor, state.registry.span_cursor);
  for (const health::HealthEvent& event : state.detector.events) {
    TlvWriter inner;
    inner.PutU64(kTagHeTime, event.time);
    inner.PutU32(kTagHeKind, static_cast<std::uint32_t>(event.kind));
    inner.PutU64(kTagHeShip, event.ship);
    inner.PutDouble(kTagHeValue, event.value);
    inner.PutDouble(kTagHeThreshold, event.threshold);
    inner.PutString(kTagHeDetail, event.detail);
    w.PutNested(kTagHpEvent, inner.Finish());
  }
  for (const auto& [kind, ship] : state.detector.active) {
    TlvWriter inner;
    inner.PutU32(kTagHaKind, kind);
    inner.PutU64(kTagHaShip, ship);
    w.PutNested(kTagHpActive, inner.Finish());
  }
  for (const auto& [ship, counters] : state.detector.prev_code_counters) {
    TlvWriter inner;
    inner.PutU64(kTagHcShip, ship);
    inner.PutU64(kTagHcExecutions, counters.first);
    inner.PutU64(kTagHcMisses, counters.second);
    w.PutNested(kTagHpPrevCounters, inner.Finish());
  }
  return w.Finish();
}

Status HealthAdapter::Load(std::span<const std::byte> payload) {
  TlvReader r({});
  if (Status s = OpenReader(payload, r); !s.ok()) return s;
  health::ProbePlane::RawState state;
  std::size_t rng_words = 0;
  while (r.HasNext()) {
    auto rec = r.Next();
    if (!rec.ok()) return rec.status();
    switch (rec->tag) {
      case kTagHpRngWord:
        if (rng_words >= state.rng_state.size()) {
          return InvalidArgument("health section has extra rng words");
        }
        state.rng_state[rng_words++] = rec->AsU64();
        break;
      case kTagHpNextProbeId: state.next_probe_id = rec->AsU64(); break;
      case kTagHpRounds: state.rounds = rec->AsU64(); break;
      case kTagHpEmitted: state.probes_emitted = rec->AsU64(); break;
      case kTagHpAbsorbed: state.probes_absorbed = rec->AsU64(); break;
      case kTagHpLost: state.probes_lost = rec->AsU64(); break;
      case kTagHpTtlExpired: state.probes_ttl_expired = rec->AsU64(); break;
      case kTagHpPending: {
        TlvReader inner(rec->payload);
        health::ProbePlane::RawState::Pending pending;
        while (inner.HasNext()) {
          auto f = inner.Next();
          if (!f.ok()) return f.status();
          switch (f->tag) {
            case kTagHpPendId: pending.probe_id = f->AsU64(); break;
            case kTagHpPendEmitted: pending.emitted = f->AsU64(); break;
            case kTagHpPendWaypoint:
              pending.waypoints.push_back(
                  static_cast<net::NodeId>(f->AsU64()));
              break;
            default: break;
          }
        }
        state.pending.push_back(std::move(pending));
        break;
      }
      case kTagHpShip: {
        TlvReader inner(rec->payload);
        health::HealthRegistry::RawState::ShipState ship;
        while (inner.HasNext()) {
          auto f = inner.Next();
          if (!f.ok()) return f.status();
          switch (f->tag) {
            case kTagHsNode:
              ship.ship = static_cast<net::NodeId>(f->AsU64());
              break;
            case kTagHsQueueEwma: ship.queue_ewma = f->AsDouble(); break;
            case kTagHsHopLatEwma:
              ship.hop_latency_ewma = f->AsDouble();
              break;
            case kTagHsSvcLatEwma:
              ship.service_latency_ewma = f->AsDouble();
              break;
            case kTagHsSamples: ship.samples = f->AsU64(); break;
            case kTagHsSvcSamples: ship.service_samples = f->AsU64(); break;
            case kTagHsExpected: ship.expected_visits = f->AsU64(); break;
            case kTagHsMissed: ship.missed_visits = f->AsU64(); break;
            case kTagHsExecutions: ship.code_executions = f->AsU64(); break;
            case kTagHsMisses: ship.code_misses = f->AsU64(); break;
            case kTagHsHopHist:
              if (Status s = LoadHealthHistogram(f->payload,
                                                 ship.hop_latency_ns);
                  !s.ok()) {
                return s;
              }
              break;
            case kTagHsQueueHist:
              if (Status s =
                      LoadHealthHistogram(f->payload, ship.queue_bytes);
                  !s.ok()) {
                return s;
              }
              break;
            default: break;
          }
        }
        state.registry.ships.push_back(std::move(ship));
        break;
      }
      case kTagHpHopsObserved:
        state.registry.hops_observed = rec->AsU64();
        break;
      case kTagHpSpansIngested:
        state.registry.spans_ingested = rec->AsU64();
        break;
      case kTagHpSpanCursor:
        state.registry.span_cursor = rec->AsU64();
        break;
      case kTagHpEvent: {
        TlvReader inner(rec->payload);
        health::HealthEvent event;
        while (inner.HasNext()) {
          auto f = inner.Next();
          if (!f.ok()) return f.status();
          switch (f->tag) {
            case kTagHeTime: event.time = f->AsU64(); break;
            case kTagHeKind:
              if (f->AsU32() >= static_cast<std::uint32_t>(
                                    health::HealthEventKind::kKindCount)) {
                return InvalidArgument("health event kind out of range");
              }
              event.kind = static_cast<health::HealthEventKind>(f->AsU32());
              break;
            case kTagHeShip:
              event.ship = static_cast<net::NodeId>(f->AsU64());
              break;
            case kTagHeValue: event.value = f->AsDouble(); break;
            case kTagHeThreshold: event.threshold = f->AsDouble(); break;
            case kTagHeDetail: event.detail = f->AsString(); break;
            default: break;
          }
        }
        state.detector.events.push_back(std::move(event));
        break;
      }
      case kTagHpActive: {
        TlvReader inner(rec->payload);
        std::uint8_t kind = 0;
        net::NodeId ship = net::kInvalidNode;
        while (inner.HasNext()) {
          auto f = inner.Next();
          if (!f.ok()) return f.status();
          if (f->tag == kTagHaKind) {
            kind = static_cast<std::uint8_t>(f->AsU32());
          }
          if (f->tag == kTagHaShip) {
            ship = static_cast<net::NodeId>(f->AsU64());
          }
        }
        state.detector.active.emplace_back(kind, ship);
        break;
      }
      case kTagHpPrevCounters: {
        TlvReader inner(rec->payload);
        net::NodeId ship = net::kInvalidNode;
        std::uint64_t executions = 0, misses = 0;
        while (inner.HasNext()) {
          auto f = inner.Next();
          if (!f.ok()) return f.status();
          if (f->tag == kTagHcShip) {
            ship = static_cast<net::NodeId>(f->AsU64());
          }
          if (f->tag == kTagHcExecutions) executions = f->AsU64();
          if (f->tag == kTagHcMisses) misses = f->AsU64();
        }
        state.detector.prev_code_counters.emplace_back(
            ship, std::make_pair(executions, misses));
        break;
      }
      default:
        break;  // forward compatibility
    }
  }
  if (rng_words != state.rng_state.size()) {
    return InvalidArgument("health section has " + std::to_string(rng_words) +
                           " rng words, want " +
                           std::to_string(state.rng_state.size()));
  }
  plane_.RestoreState(std::move(state));
  return OkStatus();
}

}  // namespace viator::genesis
