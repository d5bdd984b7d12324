// Upper-layer helpers over the three measurement planes (cycle:
// perf_counters.h, byte: mem_counters.h, time: latency_plane.h): each plane
// publishes its aggregate into a StatsRegistry — which flows through every
// exporter, Prometheus included — and renders a fixed-width human report.
// Split from the plane headers so base/sim/net can embed probes without
// linking viator_telemetry.
//
// Publication writes gauges (Set, not Add) or restores histogram state, so
// it is idempotent: safe to call after every window batch. Read aggregates
// (Plane::Aggregate) only while instrumented threads are quiescent.
#pragma once

#include <cstdint>
#include <string>

#include "sim/stats.h"
#include "telemetry/latency_plane.h"
#include "telemetry/mem_counters.h"
#include "telemetry/perf_counters.h"

namespace viator::telemetry {

/// Names a set of planes for SwitchPlanes.
enum PlaneSet : unsigned {
  kNoPlanes = 0,
  kPerfPlane = 1,
  kMemPlane = 2,
  kLatPlane = 4,
  kAllPlanes = 7,
};

/// Sets every plane's runtime switch: on for the planes in `planes`, off
/// for the rest.
void SwitchPlanes(unsigned planes);

// ---- cycle plane ------------------------------------------------------------

/// Four gauges per probe: `perf.<probe>.{calls,cycles,self_cycles,
/// max_cycles}`.
void PublishPerfStats(sim::StatsRegistry& stats,
                      const perf::Plane::Block& aggregate);

/// Fixed-width cost table: calls, cycles, cycles/call, max, self cycles and
/// their share of all self cycles (nested scopes are not double-counted, so
/// the shares sum to 100%). Probes with zero calls are omitted.
std::string FormatPerfReport(const perf::Plane::Block& aggregate);

// ---- byte plane -------------------------------------------------------------

/// Six gauges per domain: `mem.<domain>.{live_bytes,peak_bytes,allocs,frees,
/// alloc_bytes,free_bytes}`.
void PublishMemStats(sim::StatsRegistry& stats,
                     const mem::Plane::Block& aggregate);

/// Process-level gauges for the coverage line: `proc.rss_bytes` and
/// `proc.maxrss_bytes`. Split from the readers so golden tests can publish
/// fixed values.
void PublishProcStats(sim::StatsRegistry& stats, std::uint64_t rss_bytes,
                      std::uint64_t maxrss_bytes);

/// Current resident set size from /proc/self/statm (0 where unavailable).
std::uint64_t ReadRssBytes();

/// Peak resident set size from getrusage(RUSAGE_SELF) (0 where unavailable).
std::uint64_t ReadMaxRssBytes();

/// Fixed-width attribution table: live, peak, allocs, frees, alloc bytes
/// per domain plus a total row. Domains with no traffic are omitted. When
/// `maxrss_bytes` is nonzero a coverage line (total live vs maxrss)
/// follows the table.
std::string FormatMemReport(const mem::Plane::Block& aggregate,
                            std::uint64_t maxrss_bytes = 0);

// ---- latency plane ----------------------------------------------------------

/// Mirrors a lane's cumulative sketches into `stats`: one histogram per
/// non-empty (stage, class) sketch named `lat.<stage>.<class>_ns` (the exec
/// stage is classed by service role), with exact count/sum and the sketch
/// buckets re-expressed in the Histogram's half-power-of-two geometry via
/// each bucket's representative value, plus `lat.delivered`/`lat.dropped`
/// gauges. Aggregate shard lanes with Lane::MergeInto first.
void PublishLatStats(sim::StatsRegistry& stats, const lat::Lane& lane);

/// Fixed-width quantile table: count/p50/p95/p99/max per non-empty
/// (stage, class) sketch plus a delivered/dropped/in-flight trailer.
std::string FormatLatReport(const lat::Lane& lane);

}  // namespace viator::telemetry
