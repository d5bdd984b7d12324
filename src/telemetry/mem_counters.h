// Byte-level memory attribution for the allocator-owning layers of the
// simulation core: a fixed enum of accounting domains on the shared
// per-thread plane core (telemetry/plane.h), and alloc/free probes that
// cost one predicted branch when the plane is off. Cost and determinism
// contract: docs/PERF.md. Unlike perf cycles, the *byte* values are
// deterministic functions of the workload (capacity growth follows the same
// doubling schedule every run), which is what lets
// bench/baselines/BENCH_planes.json pin them exactly.
//
// Aggregation semantics: live/alloc/free byte sums are order-independent and
// exact at any thread count (a shuttle pooled on shard A and reacquired on
// shard B contributes +N on one thread's block and -N on another's; the sum
// is right even though each block alone may go negative). Summed peaks are
// an upper bound on the true process-wide peak — exact when one thread does
// the touching, which is true for every pinned baseline tier.
#pragma once

#include <cstddef>
#include <cstdint>

#include "telemetry/plane.h"

namespace viator::telemetry::mem {

/// The accounted allocation domains. Extend here, name in DomainName(),
/// probe at the owning allocator — the aggregation, export and report
/// layers pick new entries up automatically.
enum class Domain : std::uint8_t {
  kShuttlePool = 0,  // pooled shuttle shells retained by wli::ShuttlePool
  kCalendarQueue,    // event-slot pool + calendar bucket heap storage
  kRouteCache,       // first-hop route cache rows on net::Topology
  kFlatMap,          // base::FlatMap/FlatNameMap backing stores (routing, ...)
  kStatsRegistry,    // StatsRegistry metric tables (a FlatNameMap tenant)
  kJournalRing,      // decision-journal record ring + window-hash log
  kMailbox,          // striped cross-shard handoff mailboxes
  kGenesisBuffer,    // snapshot encode/decode scratch buffers
  kFactsGenome,      // per-node FactStore hash tables
  kCount,
};

inline constexpr std::size_t kDomainCount =
    static_cast<std::size_t>(Domain::kCount);

/// Stable dotted domain name ("mem.shuttle_pool"), the exporters' key.
const char* DomainName(Domain domain);

/// One domain's accumulated traffic on one thread. `live_bytes` is signed:
/// a block whose thread frees memory another thread charged goes negative,
/// and only the cross-thread sum is meaningful.
struct Counter {
  std::int64_t live_bytes = 0;
  std::int64_t peak_bytes = 0;
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t free_bytes = 0;

  void Merge(const Counter& other) {
    live_bytes += other.live_bytes;
    peak_bytes += other.peak_bytes;
    allocs += other.allocs;
    frees += other.frees;
    alloc_bytes += other.alloc_bytes;
    free_bytes += other.free_bytes;
  }
};

/// The byte plane: switch, per-thread blocks, Aggregate/ResetAll.
using Plane = plane::Counters<Counter, kDomainCount>;

/// Charges `bytes` to `domain`: the owning allocator took that much more
/// heap (a capacity growth, a pooled shell retained, a row filled).
inline void OnAlloc(Domain domain, std::size_t bytes) {
  if (!Plane::Enabled()) return;
  Counter& c = Plane::Local()[static_cast<std::size_t>(domain)];
  ++c.allocs;
  c.alloc_bytes += bytes;
  c.live_bytes += static_cast<std::int64_t>(bytes);
  if (c.live_bytes > c.peak_bytes) c.peak_bytes = c.live_bytes;
}

/// Releases `bytes` from `domain` (a shrink, an eviction, a destructor).
inline void OnFree(Domain domain, std::size_t bytes) {
  if (!Plane::Enabled()) return;
  Counter& c = Plane::Local()[static_cast<std::size_t>(domain)];
  ++c.frees;
  c.free_bytes += bytes;
  c.live_bytes -= static_cast<std::int64_t>(bytes);
}

/// Capacity-delta helper for the common "container may have regrown" site:
/// charges or releases the difference, and is free when nothing changed.
inline void OnResize(Domain domain, std::size_t old_bytes,
                     std::size_t new_bytes) {
  if (new_bytes > old_bytes) {
    OnAlloc(domain, new_bytes - old_bytes);
  } else if (old_bytes > new_bytes) {
    OnFree(domain, old_bytes - new_bytes);
  }
}

/// An object-owned running charge against one domain: Add/Sub mirror every
/// byte into the global counters, the destructor returns the balance, a
/// copy re-charges its own balance and a move transfers it — so objects
/// holding one can be copied, moved and destroyed without ever leaking or
/// double-freeing attributed bytes. Value reads (`value()`) are always-on
/// and deterministic; only the global mirroring obeys Plane::Enabled().
///
/// `kMirror` defaults to this translation unit's VIATOR_PLANES value;
/// baking it into the type keeps -DVIATOR_PLANES=0 units (the compiled-out
/// test) from violating the ODR against library units built with probes
/// on — the two configurations instantiate distinct types.
template <Domain D, bool kMirror = (VIATOR_PLANES != 0)>
class ChargedBytes {
 public:
  ChargedBytes() = default;
  explicit ChargedBytes(std::size_t bytes) { Add(bytes); }
  ChargedBytes(const ChargedBytes& other) { Add(other.value_); }
  ChargedBytes& operator=(const ChargedBytes& other) {
    if (this != &other) Set(other.value_);
    return *this;
  }
  ChargedBytes(ChargedBytes&& other) noexcept : value_(other.value_) {
    other.value_ = 0;
  }
  ChargedBytes& operator=(ChargedBytes&& other) noexcept {
    if (this != &other) {
      Set(0);
      value_ = other.value_;
      other.value_ = 0;
    }
    return *this;
  }
  ~ChargedBytes() { Set(0); }

  void Add(std::size_t bytes) {
    if constexpr (kMirror) {
      if (bytes != 0) OnAlloc(D, bytes);
    }
    value_ += bytes;
  }
  void Sub(std::size_t bytes) {
    if constexpr (kMirror) {
      if (bytes != 0) OnFree(D, bytes);
    }
    value_ -= bytes;
  }
  void Set(std::size_t bytes) {
    if (bytes > value_) {
      Add(bytes - value_);
    } else if (bytes < value_) {
      Sub(value_ - bytes);
    }
  }
  std::size_t value() const { return value_; }

 private:
  std::size_t value_ = 0;
};

}  // namespace viator::telemetry::mem

// The probe macros instrumented code uses. With VIATOR_PLANES=0 they expand
// to nothing at all — the compiled-out contract. Arguments are only
// evaluated when the plane is compiled in, so byte expressions must stay
// side-effect free.
#if VIATOR_PLANES
#define VIATOR_MEM_ALLOC(domain, bytes)       \
  ::viator::telemetry::mem::OnAlloc(          \
      ::viator::telemetry::mem::Domain::domain, (bytes))
#define VIATOR_MEM_FREE(domain, bytes)        \
  ::viator::telemetry::mem::OnFree(           \
      ::viator::telemetry::mem::Domain::domain, (bytes))
#define VIATOR_MEM_RESIZE(domain, old_bytes, new_bytes)  \
  ::viator::telemetry::mem::OnResize(                    \
      ::viator::telemetry::mem::Domain::domain, (old_bytes), (new_bytes))
#else
#define VIATOR_MEM_ALLOC(domain, bytes) ((void)0)
#define VIATOR_MEM_FREE(domain, bytes) ((void)0)
#define VIATOR_MEM_RESIZE(domain, old_bytes, new_bytes) ((void)0)
#endif
