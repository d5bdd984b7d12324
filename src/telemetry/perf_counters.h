// Cycle-level performance counters for the hot paths of the simulation core,
// in the style of nginx-vod's ngx_perf_counters: a fixed enum of probe
// points on the shared per-thread plane core (telemetry/plane.h) and an
// rdtsc-based cycle clock with a steady_clock fallback. Cost and
// determinism contract: docs/PERF.md.
//
// Timed scopes nest: each thread keeps a stack of its armed Timers, so a
// scope records both its total cycles and its self cycles (total minus the
// totals of the scopes nested directly inside it). Self cycles partition
// the measured time, which is what FormatPerfReport's share column divides.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "telemetry/plane.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace viator::telemetry::perf {

/// The instrumented hot paths. Extend here, name in MetricName(), probe at
/// the call site — the aggregation, export and report layers pick new
/// entries up automatically.
enum class Metric : std::uint8_t {
  kSimDispatch = 0,   // one simulator event: pop, tombstone check, callback
  kRngDraw,           // one raw xoshiro draw (counted, not timed)
  kRouteNextHop,      // per-hop next-hop lookup in WanderingNetwork::Dispatch
  kGatewayRoute,      // boundary-handler routing of a cross-shard shuttle
  kMailboxPush,       // stripe lock acquire + deposit of one handoff
  kMailboxDrain,      // barrier drain + deterministic sort of all stripes
  kExecutorWindow,    // one shard's RunUntil(window_end) on its worker
  kExecutorPost,      // post-window task (per-shard state hash)
  kBarrierWait,       // caller blocked waiting for the window's last shard
  kMergeWindow,       // single-threaded handoff merge at the barrier
  kRouteCacheHit,     // NextHop answered from a live cached row (counted)
  kRouteCacheMiss,    // NextHop had to (re)fill a row (counted)
  kRouteCacheFill,    // one full first-hop BFS filling a cache row
  kCount,
};

inline constexpr std::size_t kMetricCount =
    static_cast<std::size_t>(Metric::kCount);

/// Stable dotted metric name ("perf.sim_dispatch"), the exporters' key.
const char* MetricName(Metric metric);

/// One probe point's accumulated cost on one thread.
struct Counter {
  std::uint64_t calls = 0;
  std::uint64_t cycles = 0;       // total, nested scopes included
  std::uint64_t self_cycles = 0;  // total minus directly nested scopes
  std::uint64_t max_cycles = 0;

  void Merge(const Counter& other) {
    calls += other.calls;
    cycles += other.cycles;
    self_cycles += other.self_cycles;
    if (other.max_cycles > max_cycles) max_cycles = other.max_cycles;
  }
};

/// The cycle plane: switch, per-thread blocks, Aggregate/ResetAll.
using Plane = plane::Counters<Counter, kMetricCount>;

/// Cycle clock: rdtsc where available (x86-64; ~20 cycles, monotonic enough
/// for deltas on any post-2008 part with constant_tsc), otherwise
/// steady_clock nanoseconds. Units are "ticks" either way — ratios and
/// shares are meaningful, absolute values are host-specific diagnostics.
inline std::uint64_t Cycles() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Counting probe body (untimed): one branch off, branch + increment on.
inline void Count(Metric metric) {
  if (!Plane::Enabled()) return;
  ++Plane::Local()[static_cast<std::size_t>(metric)].calls;
}

/// Records one timed sample of `cycles` total, `self_cycles` of them spent
/// outside nested scopes.
inline void Record(Metric metric, std::uint64_t cycles,
                   std::uint64_t self_cycles) {
  if (!Plane::Enabled()) return;
  Counter& c = Plane::Local()[static_cast<std::size_t>(metric)];
  ++c.calls;
  c.cycles += cycles;
  c.self_cycles += self_cycles;
  if (cycles > c.max_cycles) c.max_cycles = cycles;
}

/// RAII timed probe: samples Cycles() on entry and exit. The enabled check
/// happens once, at construction — flipping the switch mid-scope loses or
/// keeps that one sample, never corrupts. An armed Timer links itself onto
/// its thread's scope stack and charges its total to the enclosing armed
/// Timer, which subtracts it from its own self time.
class Timer {
 public:
  explicit Timer(Metric metric) : metric_(metric), armed_(Plane::Enabled()) {
    if (!armed_) return;
    parent_ = current_;
    current_ = this;
    child_cycles_ = 0;
    start_ = Cycles();
  }
  ~Timer() {
    if (!armed_) return;
    const std::uint64_t total = Cycles() - start_;
    current_ = parent_;
    if (parent_ != nullptr) parent_->child_cycles_ += total;
    Record(metric_, total, total > child_cycles_ ? total - child_cycles_ : 0);
  }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

 private:
  static inline thread_local Timer* current_ = nullptr;

  // Only an armed Timer sets (and reads) the fields below, so the off path
  // costs the flag load and nothing else.
  Metric metric_;
  bool armed_;
  Timer* parent_;
  std::uint64_t child_cycles_;
  std::uint64_t start_;
};

}  // namespace viator::telemetry::perf

// The probe macros instrumented code uses. With VIATOR_PLANES=0 they expand
// to nothing at all — the compiled-out contract.
#if VIATOR_PLANES
#define VIATOR_PERF_CAT2(a, b) a##b
#define VIATOR_PERF_CAT(a, b) VIATOR_PERF_CAT2(a, b)
#define VIATOR_PERF_SCOPE(metric)                    \
  ::viator::telemetry::perf::Timer VIATOR_PERF_CAT(  \
      viator_perf_timer_, __LINE__)(::viator::telemetry::perf::Metric::metric)
#define VIATOR_PERF_COUNT(metric) \
  ::viator::telemetry::perf::Count(::viator::telemetry::perf::Metric::metric)
#else
#define VIATOR_PERF_SCOPE(metric) ((void)0)
#define VIATOR_PERF_COUNT(metric) ((void)0)
#endif
