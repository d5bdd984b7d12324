#include "genesis/sections.h"

#include <optional>
#include <utility>

#include "base/archive.h"
#include "base/tlv.h"

namespace viator::genesis {
namespace {

// Shared validation helpers -------------------------------------------------

Status BadPayload(const char* what) {
  return InvalidArgument(std::string("genesis section payload: ") + what);
}

// Every section payload is itself a checksummed TLV stream; loads verify the
// inner checksum too (defense in depth under the section digest).
Status OpenReader(std::span<const std::byte> payload, TlvReader& reader) {
  reader = TlvReader(payload);
  return reader.Verify();
}

}  // namespace

// ---- Clock ----------------------------------------------------------------

namespace {
constexpr TlvTag kTagNow = 0x01;
constexpr TlvTag kTagDispatched = 0x02;
constexpr TlvTag kTagScheduleOrdinal = 0x03;
}  // namespace

std::vector<std::byte> SaveClock(const sim::Simulator& simulator) {
  TlvWriter w;
  w.PutU64(kTagNow, simulator.now());
  w.PutU64(kTagDispatched, simulator.dispatched());
  w.PutU64(kTagScheduleOrdinal, simulator.schedule_ordinal());
  return w.Finish();
}

Status LoadClock(std::span<const std::byte> payload,
                 sim::Simulator& simulator) {
  TlvReader r({});
  if (Status s = OpenReader(payload, r); !s.ok()) return s;
  sim::TimePoint now = 0;
  std::uint64_t dispatched = 0;
  // Snapshots from before the stable tie-break ordinal carry no ordinal tag;
  // restoring them leaves the counter where the fresh simulator put it.
  std::uint64_t ordinal = sim::Simulator::kKeepScheduleOrdinal;
  while (r.HasNext()) {
    auto rec = r.Next();
    if (!rec.ok()) return rec.status();
    if (rec->tag == kTagNow) now = rec->AsU64();
    if (rec->tag == kTagDispatched) dispatched = rec->AsU64();
    if (rec->tag == kTagScheduleOrdinal) ordinal = rec->AsU64();
  }
  return simulator.RestoreClock(now, dispatched, ordinal);
}

// ---- Stats ----------------------------------------------------------------

namespace {
constexpr TlvTag kTagCounter = 0x01;
constexpr TlvTag kTagGauge = 0x02;
constexpr TlvTag kTagHistogram = 0x03;
constexpr TlvTag kTagSeries = 0x04;
// inner
constexpr TlvTag kTagName = 0x01;
constexpr TlvTag kTagValueU64 = 0x02;
constexpr TlvTag kTagValueD = 0x03;
constexpr TlvTag kTagHistCount = 0x04;
constexpr TlvTag kTagHistSum = 0x05;
constexpr TlvTag kTagHistSumSq = 0x06;
constexpr TlvTag kTagHistMin = 0x07;
constexpr TlvTag kTagHistMax = 0x08;
constexpr TlvTag kTagHistZeros = 0x09;
constexpr TlvTag kTagHistBucket = 0x0A;
constexpr TlvTag kTagSample = 0x0B;
// Added with fractional histogram buckets and bounded series; absent tags
// read back as the legacy defaults, so old snapshots stay loadable.
constexpr TlvTag kTagSeriesStride = 0x0C;
constexpr TlvTag kTagSeriesTicks = 0x0D;
constexpr TlvTag kTagHistOrigin = 0x0E;
constexpr TlvTag kTagSampleTime = 0x01;
constexpr TlvTag kTagSampleValue = 0x02;
}  // namespace

std::vector<std::byte> SaveStats(const sim::StatsRegistry& stats) {
  TlvWriter w;
  for (const auto& [name, counter] : stats.counters()) {
    TlvWriter inner;
    inner.PutString(kTagName, name);
    inner.PutU64(kTagValueU64, counter.value());
    w.PutNested(kTagCounter, inner.Finish());
  }
  for (const auto& [name, gauge] : stats.gauges()) {
    TlvWriter inner;
    inner.PutString(kTagName, name);
    inner.PutDouble(kTagValueD, gauge.value());
    w.PutNested(kTagGauge, inner.Finish());
  }
  for (const auto& [name, hist] : stats.histograms()) {
    const sim::Histogram::RawState raw = hist.SaveState();
    TlvWriter inner;
    inner.PutString(kTagName, name);
    inner.PutU64(kTagHistCount, raw.count);
    inner.PutDouble(kTagHistSum, raw.sum);
    inner.PutDouble(kTagHistSumSq, raw.sum_sq);
    inner.PutDouble(kTagHistMin, raw.min);
    inner.PutDouble(kTagHistMax, raw.max);
    inner.PutU64(kTagHistZeros, raw.zeros);
    inner.PutU64(kTagHistOrigin,
                 static_cast<std::uint64_t>(
                     static_cast<std::int64_t>(raw.bucket_origin)));
    for (std::uint64_t bucket : raw.buckets) {
      inner.PutU64(kTagHistBucket, bucket);
    }
    w.PutNested(kTagHistogram, inner.Finish());
  }
  for (const auto& [name, series] : stats.series()) {
    TlvWriter inner;
    inner.PutString(kTagName, name);
    inner.PutU64(kTagSeriesStride, series.stride());
    inner.PutU64(kTagSeriesTicks, series.ticks());
    for (const auto& sample : series.samples()) {
      TlvWriter sw;
      sw.PutU64(kTagSampleTime, sample.time);
      sw.PutDouble(kTagSampleValue, sample.value);
      inner.PutNested(kTagSample, sw.Finish());
    }
    w.PutNested(kTagSeries, inner.Finish());
  }
  return w.Finish();
}

Status LoadStats(std::span<const std::byte> payload,
                 sim::StatsRegistry& stats) {
  TlvReader r({});
  if (Status s = OpenReader(payload, r); !s.ok()) return s;
  while (r.HasNext()) {
    auto rec = r.Next();
    if (!rec.ok()) return rec.status();
    TlvReader inner(rec->payload);
    switch (rec->tag) {
      case kTagCounter: {
        std::string name;
        std::uint64_t value = 0;
        while (inner.HasNext()) {
          auto f = inner.Next();
          if (!f.ok()) return f.status();
          if (f->tag == kTagName) name = f->AsString();
          if (f->tag == kTagValueU64) value = f->AsU64();
        }
        if (name.empty()) return BadPayload("unnamed counter");
        auto& counter = stats.GetCounter(name);
        counter.Reset();
        counter.Add(value);
        break;
      }
      case kTagGauge: {
        std::string name;
        double value = 0.0;
        while (inner.HasNext()) {
          auto f = inner.Next();
          if (!f.ok()) return f.status();
          if (f->tag == kTagName) name = f->AsString();
          if (f->tag == kTagValueD) value = f->AsDouble();
        }
        if (name.empty()) return BadPayload("unnamed gauge");
        stats.GetGauge(name).Set(value);
        break;
      }
      case kTagHistogram: {
        std::string name;
        sim::Histogram::RawState raw;
        while (inner.HasNext()) {
          auto f = inner.Next();
          if (!f.ok()) return f.status();
          switch (f->tag) {
            case kTagName: name = f->AsString(); break;
            case kTagHistCount: raw.count = f->AsU64(); break;
            case kTagHistSum: raw.sum = f->AsDouble(); break;
            case kTagHistSumSq: raw.sum_sq = f->AsDouble(); break;
            case kTagHistMin: raw.min = f->AsDouble(); break;
            case kTagHistMax: raw.max = f->AsDouble(); break;
            case kTagHistZeros: raw.zeros = f->AsU64(); break;
            case kTagHistOrigin:
              raw.bucket_origin = static_cast<std::int32_t>(
                  static_cast<std::int64_t>(f->AsU64()));
              break;
            case kTagHistBucket: raw.buckets.push_back(f->AsU64()); break;
            default: break;
          }
        }
        if (name.empty()) return BadPayload("unnamed histogram");
        stats.GetHistogram(name).RestoreState(raw);
        break;
      }
      case kTagSeries: {
        std::string name;
        std::vector<sim::TimeSeries::Sample> samples;
        std::uint64_t stride = 0;  // 0 = legacy payload without the tag
        std::uint64_t ticks = 0;
        bool has_ticks = false;
        while (inner.HasNext()) {
          auto f = inner.Next();
          if (!f.ok()) return f.status();
          if (f->tag == kTagName) name = f->AsString();
          if (f->tag == kTagSeriesStride) stride = f->AsU64();
          if (f->tag == kTagSeriesTicks) {
            ticks = f->AsU64();
            has_ticks = true;
          }
          if (f->tag == kTagSample) {
            TlvReader sr(f->payload);
            sim::TimeSeries::Sample sample{0, 0.0};
            while (sr.HasNext()) {
              auto sf = sr.Next();
              if (!sf.ok()) return sf.status();
              if (sf->tag == kTagSampleTime) sample.time = sf->AsU64();
              if (sf->tag == kTagSampleValue) sample.value = sf->AsDouble();
            }
            samples.push_back(sample);
          }
        }
        if (name.empty()) return BadPayload("unnamed time series");
        if (!has_ticks) ticks = samples.size();  // legacy: one tick per kept
        stats.GetTimeSeries(name).RestoreState(
            std::move(samples), stride == 0 ? 1 : stride, ticks);
        break;
      }
      default:
        break;
    }
  }
  return OkStatus();
}

// ---- Trace ----------------------------------------------------------------

namespace {
constexpr TlvTag kTagEntry = 0x01;
constexpr TlvTag kTagEntryTime = 0x01;
constexpr TlvTag kTagEntryLevel = 0x02;
constexpr TlvTag kTagEntryComponent = 0x03;
constexpr TlvTag kTagEntryMessage = 0x04;
}  // namespace

std::vector<std::byte> SaveTrace(const sim::TraceSink& trace) {
  TlvWriter w;
  for (const auto& entry : trace.entries()) {
    TlvWriter inner;
    inner.PutU64(kTagEntryTime, entry.time);
    inner.PutU32(kTagEntryLevel, static_cast<std::uint32_t>(entry.level));
    inner.PutString(kTagEntryComponent, entry.component);
    inner.PutString(kTagEntryMessage, entry.message);
    w.PutNested(kTagEntry, inner.Finish());
  }
  return w.Finish();
}

Status LoadTrace(std::span<const std::byte> payload, sim::TraceSink& trace) {
  TlvReader r({});
  if (Status s = OpenReader(payload, r); !s.ok()) return s;
  trace.Clear();
  while (r.HasNext()) {
    auto rec = r.Next();
    if (!rec.ok()) return rec.status();
    if (rec->tag != kTagEntry) continue;
    TlvReader inner(rec->payload);
    sim::TraceSink::Entry entry{0, sim::TraceLevel::kDebug, "", ""};
    while (inner.HasNext()) {
      auto f = inner.Next();
      if (!f.ok()) return f.status();
      switch (f->tag) {
        case kTagEntryTime: entry.time = f->AsU64(); break;
        case kTagEntryLevel: {
          const std::uint32_t level = f->AsU32();
          if (level > static_cast<std::uint32_t>(sim::TraceLevel::kError)) {
            return BadPayload("trace level out of range");
          }
          entry.level = static_cast<sim::TraceLevel>(level);
          break;
        }
        case kTagEntryComponent: entry.component = f->AsString(); break;
        case kTagEntryMessage: entry.message = f->AsString(); break;
        default: break;
      }
    }
    trace.RestoreEntry(std::move(entry));
  }
  return OkStatus();
}

// ---- Decision state ---------------------------------------------------------

namespace {

// Takes one section's field list out of WanderingNetwork::VisitState and runs
// it through `archive`.
template <class Archive>
struct OneSection {
  std::uint32_t id;
  Archive& archive;

  template <class Fn>
  void Part(std::uint32_t section, Fn&& fields) {
    if (section == id) fields(archive);
  }
};

}  // namespace

SectionRecord SaveSection(std::uint32_t id, wli::WanderingNetwork& network) {
  SectionRecord section;
  section.id = id;
  switch (id) {
    case kSectionClock: section.payload = SaveClock(network.simulator()); break;
    case kSectionStats: section.payload = SaveStats(network.stats()); break;
    case kSectionTrace: section.payload = SaveTrace(network.trace()); break;
    case kSectionMemPeaks: section.payload = SaveMemPeaks(network); break;
    case kSectionLatency: section.payload = SaveLatency(network); break;
    default: {
      // The encoder's stream chain already is the payload's digest.
      TlvEncoder encoder;
      OneSection<TlvEncoder> fields{id, encoder};
      network.VisitState(fields);
      section.payload = encoder.Finish(&section.digest);
      return section;
    }
  }
  section.digest = HashBytes(section.payload);
  return section;
}

Status LoadSection(std::uint32_t id, std::span<const std::byte> payload,
                   wli::WanderingNetwork& network) {
  switch (id) {
    case kSectionClock: return LoadClock(payload, network.simulator());
    case kSectionStats: return LoadStats(payload, network.stats());
    case kSectionTrace: return LoadTrace(payload, network.trace());
    case kSectionMemPeaks: return LoadMemPeaks(payload, network);
    case kSectionLatency: return LoadLatency(payload, network);
    default: {
      TlvDecoder decoder(payload);
      OneSection<TlvDecoder> section{id, decoder};
      if (decoder.ok()) network.VisitState(section);
      return decoder.status();
    }
  }
}

// ---- Memory watermarks ------------------------------------------------------

namespace {
constexpr TlvTag kTagPeakQueueHeapBytes = 0x01;
constexpr TlvTag kTagPeakPoolRetainedBytes = 0x02;
}  // namespace

std::vector<std::byte> SaveMemPeaks(const wli::WanderingNetwork& network) {
  auto& mutable_network = const_cast<wli::WanderingNetwork&>(network);
  TlvWriter w;
  w.PutU64(kTagPeakQueueHeapBytes,
           mutable_network.simulator().queue_peak_heap_bytes());
  w.PutU64(kTagPeakPoolRetainedBytes,
           network.shuttle_pool().peak_retained_bytes());
  return w.Finish();
}

Status LoadMemPeaks(std::span<const std::byte> payload,
                    wli::WanderingNetwork& network) {
  TlvReader r({});
  if (Status s = OpenReader(payload, r); !s.ok()) return s;
  std::uint64_t queue_peak = 0;
  std::optional<std::uint64_t> pool_peak;
  while (r.HasNext()) {
    auto rec = r.Next();
    if (!rec.ok()) return rec.status();
    if (rec->tag == kTagPeakQueueHeapBytes) queue_peak = rec->AsU64();
    if (rec->tag == kTagPeakPoolRetainedBytes) pool_peak = rec->AsU64();
  }
  // This section loads last, after every pending event has been
  // rescheduled, so the monotone restore folds the saved peak into whatever
  // the rebuild itself already reached. Pre-observatory snapshots have no
  // section at all and simply keep the fresh world's own watermarks.
  network.simulator().RestoreQueuePeakHeapBytes(queue_peak);
  if (pool_peak.has_value()) {
    network.shuttle_pool().RestorePeakRetainedBytes(
        static_cast<std::size_t>(*pool_peak));
  }
  return OkStatus();
}

// ---- Latency Observatory ---------------------------------------------------

namespace {
// One kTagLatSketch nested record per non-empty sketch; the window delivery
// sketch rides under its own tag so a mid-window capture still round-trips.
constexpr TlvTag kTagLatSketch = 0x01;
constexpr TlvTag kTagLatWindowSketch = 0x02;
// inner
constexpr TlvTag kTagLatStage = 0x01;
constexpr TlvTag kTagLatIndex = 0x02;
constexpr TlvTag kTagLatCount = 0x03;
constexpr TlvTag kTagLatSum = 0x04;
// Sparse bucket pairs: an index immediately followed by its occupancy.
constexpr TlvTag kTagLatBucketIdx = 0x05;
constexpr TlvTag kTagLatBucketN = 0x06;

std::vector<std::byte> EncodeLatSketch(
    const telemetry::lat::LatencySketch& sketch, std::uint32_t stage,
    std::uint32_t index) {
  TlvWriter inner;
  inner.PutU32(kTagLatStage, stage);
  inner.PutU32(kTagLatIndex, index);
  inner.PutU64(kTagLatCount, sketch.count());
  inner.PutU64(kTagLatSum, sketch.sum());
  const auto& buckets = sketch.buckets();
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    inner.PutU32(kTagLatBucketIdx, static_cast<std::uint32_t>(i));
    inner.PutU64(kTagLatBucketN, buckets[i]);
  }
  return inner.Finish();
}

Status DecodeLatSketch(std::span<const std::byte> payload,
                       telemetry::lat::LatencySketch& sketch,
                       std::uint32_t& stage, std::uint32_t& index) {
  TlvReader inner(payload);
  sketch.Reset();
  std::uint64_t count = 0, sum = 0;
  // kNoIndex until a bucket index arrives. (A std::optional here trips
  // GCC's -Wmaybe-uninitialized under -fsanitize=thread.)
  constexpr std::uint64_t kNoIndex = ~std::uint64_t{0};
  std::uint64_t pending_idx = kNoIndex;
  while (inner.HasNext()) {
    auto f = inner.Next();
    if (!f.ok()) return f.status();
    switch (f->tag) {
      case kTagLatStage: stage = f->AsU32(); break;
      case kTagLatIndex: index = f->AsU32(); break;
      case kTagLatCount: count = f->AsU64(); break;
      case kTagLatSum: sum = f->AsU64(); break;
      case kTagLatBucketIdx: pending_idx = f->AsU32(); break;
      case kTagLatBucketN:
        if (pending_idx == kNoIndex) {
          return BadPayload("latency bucket occupancy without an index");
        }
        sketch.RestoreBucket(static_cast<std::uint32_t>(pending_idx),
                             f->AsU64());
        pending_idx = kNoIndex;
        break;
      default: break;
    }
  }
  sketch.RestoreTotals(count, sum);
  return OkStatus();
}
}  // namespace

std::vector<std::byte> SaveLatency(const wli::WanderingNetwork& network) {
  const telemetry::lat::Lane& lane = network.lat_lane();
  TlvWriter w;
  for (std::size_t stage = 0;
       stage < static_cast<std::size_t>(telemetry::lat::Stage::kCount);
       ++stage) {
    const auto s = static_cast<telemetry::lat::Stage>(stage);
    for (std::size_t index = 0; index < telemetry::lat::StageClassCount(s);
         ++index) {
      const telemetry::lat::LatencySketch& sketch = lane.Sketch(s, index);
      if (sketch.empty()) continue;
      w.PutNested(kTagLatSketch,
                  EncodeLatSketch(sketch, static_cast<std::uint32_t>(stage),
                                  static_cast<std::uint32_t>(index)));
    }
  }
  if (!lane.window_sketch().empty()) {
    w.PutNested(kTagLatWindowSketch,
                EncodeLatSketch(lane.window_sketch(), 0, 0));
  }
  return w.Finish();
}

Status LoadLatency(std::span<const std::byte> payload,
                   wli::WanderingNetwork& network) {
  TlvReader r({});
  if (Status s = OpenReader(payload, r); !s.ok()) return s;
  telemetry::lat::Lane& lane = network.lat_lane();
  lane.Reset();
  while (r.HasNext()) {
    auto rec = r.Next();
    if (!rec.ok()) return rec.status();
    if (rec->tag == kTagLatSketch) {
      telemetry::lat::LatencySketch sketch;
      std::uint32_t stage = 0, index = 0;
      if (Status s = DecodeLatSketch(rec->payload, sketch, stage, index);
          !s.ok()) {
        return s;
      }
      const auto st = static_cast<telemetry::lat::Stage>(stage);
      if (stage >= static_cast<std::uint32_t>(telemetry::lat::Stage::kCount) ||
          index >= telemetry::lat::StageClassCount(st)) {
        return BadPayload("latency sketch coordinates out of range");
      }
      lane.MutableSketch(st, index) = sketch;
    } else if (rec->tag == kTagLatWindowSketch) {
      std::uint32_t stage = 0, index = 0;
      telemetry::lat::LatencySketch sketch;
      if (Status s = DecodeLatSketch(rec->payload, sketch, stage, index);
          !s.ok()) {
        return s;
      }
      lane.mutable_window_sketch() = sketch;
    }
  }
  return OkStatus();
}

}  // namespace viator::genesis
