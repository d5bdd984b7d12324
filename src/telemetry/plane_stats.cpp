#include "telemetry/plane_stats.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdarg>
#include <cstddef>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <string_view>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace viator::telemetry {

namespace perf {

const char* MetricName(Metric metric) {
  switch (metric) {
    case Metric::kSimDispatch: return "perf.sim_dispatch";
    case Metric::kRngDraw: return "perf.rng_draw";
    case Metric::kRouteNextHop: return "perf.route_next_hop";
    case Metric::kGatewayRoute: return "perf.gateway_route";
    case Metric::kMailboxPush: return "perf.mailbox_push";
    case Metric::kMailboxDrain: return "perf.mailbox_drain";
    case Metric::kExecutorWindow: return "perf.executor_window";
    case Metric::kExecutorPost: return "perf.executor_post";
    case Metric::kBarrierWait: return "perf.barrier_wait";
    case Metric::kMergeWindow: return "perf.merge_window";
    case Metric::kRouteCacheHit: return "perf.route_cache_hit";
    case Metric::kRouteCacheMiss: return "perf.route_cache_miss";
    case Metric::kRouteCacheFill: return "perf.route_cache_fill";
    case Metric::kCount: break;
  }
  return "perf.unknown";
}

}  // namespace perf

namespace mem {

const char* DomainName(Domain domain) {
  switch (domain) {
    case Domain::kShuttlePool: return "mem.shuttle_pool";
    case Domain::kCalendarQueue: return "mem.calendar_queue";
    case Domain::kRouteCache: return "mem.route_cache";
    case Domain::kFlatMap: return "mem.flat_map";
    case Domain::kStatsRegistry: return "mem.stats_registry";
    case Domain::kJournalRing: return "mem.journal_ring";
    case Domain::kMailbox: return "mem.mailbox";
    case Domain::kGenesisBuffer: return "mem.genesis_buffer";
    case Domain::kFactsGenome: return "mem.facts_genome";
    case Domain::kCount: break;
  }
  return "mem.unknown";
}

}  // namespace mem

namespace {

// ---- shared publish/format plumbing ---------------------------------------

/// One gauge of a published row: dotted suffix under the row's base name.
struct GaugeValue {
  const char* suffix;  // e.g. ".live_bytes"
  double value;
};

/// Publishes `<base><suffix> = value` gauges. Gauges (not counters) on
/// purpose, following the profiler.* precedent: published values are
/// point-in-time mirrors of the aggregate, so re-publishing after more
/// windows overwrites instead of double-counting.
void PublishGaugeRow(sim::StatsRegistry& stats, std::string_view base,
                     std::initializer_list<GaugeValue> fields) {
  std::string name;
  for (const GaugeValue& field : fields) {
    name.assign(base);
    name.append(field.suffix);
    stats.GetGauge(name).Set(field.value);
  }
}

/// Appends one printf-formatted report line (bounded line buffer).
[[gnu::format(printf, 2, 3)]] void AppendLine(std::string& out,
                                             const char* fmt, ...) {
  char line[192];
  std::va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(line, sizeof(line), fmt, args);
  va_end(args);
  if (n > 0) {
    out.append(line, std::min<std::size_t>(static_cast<std::size_t>(n),
                                           sizeof(line) - 1));
  }
}

// ---- latency mirror ---------------------------------------------------------

using lat::LatencySketch;
using lat::Stage;

/// Dotted metric name of one (stage, class) sketch: "lat.delivery.data_ns".
std::string SketchName(Stage stage, std::size_t index) {
  std::string name = lat::StageName(stage);
  name.push_back('.');
  name.append(stage == Stage::kExec ? lat::RoleName(index)
                                    : lat::ClassName(index));
  name.append("_ns");
  return name;
}

/// Histogram bucket (0..191) holding integer value `v >= 1`: the
/// half-exponent e with 2^(e/2) <= v < 2^((e+1)/2), shifted by the origin.
/// Pure integer arithmetic — v >= 2^(msb + 1/2) iff v^2 >= 2^(2*msb+1) —
/// so the mirror is platform-deterministic like the sketch itself.
std::size_t HistogramBucketFor(std::uint64_t v) {
  const std::uint32_t msb =
      static_cast<std::uint32_t>(std::bit_width(v) - 1);
  const bool upper_half =
      msb < 32 ? (unsigned __int128)v * v >=
                     ((unsigned __int128)1 << (2 * msb + 1))
               : true;  // representatives this large always clamp below
  std::size_t e = 2 * static_cast<std::size_t>(msb) + (upper_half ? 1 : 0);
  // Index = half-exponent - origin; origin is -64.
  std::size_t index =
      e + static_cast<std::size_t>(-sim::Histogram::kBucketOrigin);
  if (index >= 192) index = 191;
  return index;
}

/// Re-expresses one sketch as exact Histogram internal state: count/sum are
/// exact; min/max/sum_sq and the bucket placement use each sketch bucket's
/// representative value (documented approximation, docs/LATENCY.md).
void MirrorSketch(sim::StatsRegistry& stats, const std::string& name,
                  const LatencySketch& sketch) {
  sim::Histogram::RawState raw;
  raw.count = sketch.count();
  raw.sum = static_cast<double>(sketch.sum());
  raw.min = static_cast<double>(sketch.MinValue());
  raw.max = static_cast<double>(sketch.MaxValue());
  raw.zeros = sketch.buckets()[0];  // only value 0 maps below 2^-32
  raw.bucket_origin = sim::Histogram::kBucketOrigin;
  raw.buckets.assign(192, 0);
  double sum_sq = 0.0;
  for (std::size_t i = 1; i < LatencySketch::kBucketCount; ++i) {
    const std::uint64_t n = sketch.buckets()[i];
    if (n == 0) continue;
    const std::uint64_t rep = LatencySketch::BucketRepresentative(i);
    raw.buckets[HistogramBucketFor(rep)] += n;
    sum_sq += static_cast<double>(n) * static_cast<double>(rep) *
              static_cast<double>(rep);
  }
  raw.sum_sq = sum_sq;
  stats.GetHistogram(name).RestoreState(raw);
}

}  // namespace

void SwitchPlanes(unsigned planes) {
  perf::Plane::SetEnabled((planes & kPerfPlane) != 0);
  mem::Plane::SetEnabled((planes & kMemPlane) != 0);
  lat::Plane::SetEnabled((planes & kLatPlane) != 0);
}

// ---- cycle plane ------------------------------------------------------------

void PublishPerfStats(sim::StatsRegistry& stats,
                      const perf::Plane::Block& aggregate) {
  for (std::size_t i = 0; i < perf::kMetricCount; ++i) {
    const perf::Counter& c = aggregate[i];
    PublishGaugeRow(
        stats, perf::MetricName(static_cast<perf::Metric>(i)),
        {{".calls", static_cast<double>(c.calls)},
         {".cycles", static_cast<double>(c.cycles)},
         {".self_cycles", static_cast<double>(c.self_cycles)},
         {".max_cycles", static_cast<double>(c.max_cycles)}});
  }
}

std::string FormatPerfReport(const perf::Plane::Block& aggregate) {
  std::uint64_t total_self = 0;
  for (const perf::Counter& c : aggregate) total_self += c.self_cycles;

  std::string report;
  std::string rows;
  AppendLine(report, "%-22s %12s %16s %10s %12s %16s %7s\n", "probe", "calls",
             "cycles", "cyc/call", "max", "self", "share");
  for (std::size_t i = 0; i < perf::kMetricCount; ++i) {
    const perf::Counter& c = aggregate[i];
    if (c.calls == 0) continue;
    const double per_call =
        static_cast<double>(c.cycles) / static_cast<double>(c.calls);
    const double share =
        total_self == 0
            ? 0.0
            : 100.0 * static_cast<double>(c.self_cycles) /
                  static_cast<double>(total_self);
    AppendLine(rows, "%-22s %12llu %16llu %10.1f %12llu %16llu %6.1f%%\n",
               perf::MetricName(static_cast<perf::Metric>(i)),
               static_cast<unsigned long long>(c.calls),
               static_cast<unsigned long long>(c.cycles), per_call,
               static_cast<unsigned long long>(c.max_cycles),
               static_cast<unsigned long long>(c.self_cycles), share);
  }
  return report + (rows.empty()
                       ? "(no probes fired: counters disabled or nothing ran)\n"
                       : rows);
}

// ---- byte plane -------------------------------------------------------------

void PublishMemStats(sim::StatsRegistry& stats,
                     const mem::Plane::Block& aggregate) {
  for (std::size_t i = 0; i < mem::kDomainCount; ++i) {
    const mem::Counter& c = aggregate[i];
    PublishGaugeRow(
        stats, mem::DomainName(static_cast<mem::Domain>(i)),
        {{".live_bytes", static_cast<double>(c.live_bytes)},
         {".peak_bytes", static_cast<double>(c.peak_bytes)},
         {".allocs", static_cast<double>(c.allocs)},
         {".frees", static_cast<double>(c.frees)},
         {".alloc_bytes", static_cast<double>(c.alloc_bytes)},
         {".free_bytes", static_cast<double>(c.free_bytes)}});
  }
}

void PublishProcStats(sim::StatsRegistry& stats, std::uint64_t rss_bytes,
                      std::uint64_t maxrss_bytes) {
  stats.GetGauge("proc.rss_bytes").Set(static_cast<double>(rss_bytes));
  stats.GetGauge("proc.maxrss_bytes").Set(static_cast<double>(maxrss_bytes));
}

std::uint64_t ReadRssBytes() {
#if defined(__linux__)
  // /proc/self/statm: size resident shared text lib data dt, in pages.
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size_pages = 0;
  unsigned long long resident_pages = 0;
  const int matched =
      std::fscanf(f, "%llu %llu", &size_pages, &resident_pages);
  std::fclose(f);
  if (matched != 2) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  if (page <= 0) return 0;
  return static_cast<std::uint64_t>(resident_pages) *
         static_cast<std::uint64_t>(page);
#else
  return 0;
#endif
}

std::uint64_t ReadMaxRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  // ru_maxrss is bytes on Darwin, kilobytes on Linux/BSD.
  return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
#endif
#else
  return 0;
#endif
}

std::string FormatMemReport(const mem::Plane::Block& aggregate,
                            std::uint64_t maxrss_bytes) {
  mem::Counter total;
  std::string report;
  std::string rows;
  AppendLine(report, "%-22s %14s %14s %10s %10s %14s\n", "domain", "live",
             "peak", "allocs", "frees", "alloc bytes");
  for (std::size_t i = 0; i < mem::kDomainCount; ++i) {
    const mem::Counter& c = aggregate[i];
    total.Merge(c);
    if (c.allocs == 0 && c.frees == 0) continue;
    AppendLine(rows, "%-22s %14" PRId64 " %14" PRId64 " %10" PRIu64
               " %10" PRIu64 " %14" PRIu64 "\n",
               mem::DomainName(static_cast<mem::Domain>(i)), c.live_bytes,
               c.peak_bytes, c.allocs, c.frees, c.alloc_bytes);
  }
  if (rows.empty()) {
    return report +
           "(no allocations recorded: counters disabled or nothing ran)\n";
  }
  AppendLine(rows,
             "%-22s %14" PRId64 " %14" PRId64 " %10" PRIu64 " %10" PRIu64
             " %14" PRIu64 "\n",
             "total", total.live_bytes, total.peak_bytes, total.allocs,
             total.frees, total.alloc_bytes);
  if (maxrss_bytes != 0) {
    const double coverage =
        100.0 *
        static_cast<double>(total.live_bytes > 0 ? total.live_bytes : 0) /
        static_cast<double>(maxrss_bytes);
    AppendLine(rows,
               "coverage: %" PRId64 " live of %" PRIu64
               " maxrss bytes (%.1f%%)\n",
               total.live_bytes, maxrss_bytes, coverage);
  }
  return report + rows;
}

// ---- latency plane ----------------------------------------------------------

void PublishLatStats(sim::StatsRegistry& stats, const lat::Lane& lane) {
  for (std::size_t s = 0; s < lat::kStageCount; ++s) {
    const Stage stage = static_cast<Stage>(s);
    for (std::size_t c = 0; c < lat::StageClassCount(stage); ++c) {
      const LatencySketch& sketch = lane.Sketch(stage, c);
      if (sketch.empty()) continue;
      MirrorSketch(stats, SketchName(stage, c), sketch);
    }
  }
  PublishGaugeRow(
      stats, "lat",
      {{".delivered", static_cast<double>(lane.DeliveredCount())},
       {".dropped", static_cast<double>(lane.DroppedCount())}});
}

std::string FormatLatReport(const lat::Lane& lane) {
  std::string report;
  std::string rows;
  AppendLine(report, "%-28s %10s %12s %12s %12s %12s\n", "stage", "count",
             "p50_ns", "p95_ns", "p99_ns", "max_ns");
  for (std::size_t s = 0; s < lat::kStageCount; ++s) {
    const Stage stage = static_cast<Stage>(s);
    for (std::size_t c = 0; c < lat::StageClassCount(stage); ++c) {
      const LatencySketch& sketch = lane.Sketch(stage, c);
      if (sketch.empty()) continue;
      AppendLine(rows, "%-28s %10" PRIu64 " %12" PRIu64 " %12" PRIu64
                 " %12" PRIu64 " %12" PRIu64 "\n",
                 SketchName(stage, c).c_str(), sketch.count(),
                 sketch.ValueAtQuantile(0.50), sketch.ValueAtQuantile(0.95),
                 sketch.ValueAtQuantile(0.99), sketch.MaxValue());
    }
  }
  if (rows.empty()) {
    return report +
           "(no shuttle lifecycles recorded: plane disabled or nothing ran)\n";
  }
  AppendLine(rows, "delivered: %" PRIu64 "  dropped: %" PRIu64
             "  in-flight: %zu\n",
             lane.DeliveredCount(), lane.DroppedCount(), lane.open_flights());
  return report + rows;
}

}  // namespace viator::telemetry
