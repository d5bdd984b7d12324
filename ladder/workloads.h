// The three workloads of the ladder.
//
// A workload runs in passes. One pass builds a fresh world from the seed,
// runs untimed warm-up steps, a fixed number of timed steps, then drains
// untimed and checks its invariants. Every pass of one seed does the same
// simulated work, so its outcome fingerprint and its allocation count
// repeat exactly; ladder.cpp repeats passes until the run's time budget is
// spent and compares them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "tracer.h"

namespace ladder {

/// Simulated outcome of one pass. Host-independent: a change that only
/// speeds the simulator up must leave every field identical.
struct Fingerprint {
  std::uint64_t events = 0;           // simulator events dispatched
  std::uint64_t injected = 0;         // data shuttles the benchmark injected
  std::uint64_t delivered = 0;        // ... consumed at their destination
  std::uint64_t frames = 0;           // fabric frames delivered
  std::uint64_t vm_instructions = 0;  // WanderScript instructions executed
  std::uint64_t route_fills = 0;      // route-cache row fills (BFS runs)
  std::uint64_t snapshot_bytes = 0;   // bytes of every CaptureFull

  bool operator==(const Fingerprint&) const = default;
  std::string ToString() const;
};

/// Work counted over the timed steps of one pass (traced runs read the
/// route and VM fields through their probes; the rest come from public
/// counters in every run).
struct LayerCounts {
  std::uint64_t route_fills = 0;
  std::uint64_t route_fill_ns = 0;  // inclusive time of the filling calls
  std::uint64_t route_hits = 0;
  std::uint64_t route_evictions = 0;
  std::uint64_t route_invalidations = 0;
  std::uint64_t route_cache_peak_bytes = 0;
  std::uint64_t queue_peak = 0;
  std::uint64_t fabric_frames = 0;
  std::uint64_t fabric_bytes = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t vm_executions = 0;
  std::uint64_t vm_instructions = 0;
  std::uint64_t code_misses = 0;
  std::uint64_t captures = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t restore_ns = 0;  // RestoreFull of each world's last checkpoint
  std::uint64_t restores = 0;
};

struct PassOptions {
  std::uint64_t seed = 1;
  bool smoke = false;        // reduced-size world for the ladder's tests
  std::size_t threads = 1;   // sharded-mesh executor threads
  Tracer* tracer = nullptr;  // non-null: traced pass
  bool setup_only = false;   // build the world, time that, and return
};

struct PassResult {
  double setup_s = 0.0;
  std::vector<double> step_ms;  // host time of each timed step
  double timed_s = 0.0;         // wall of the whole timed phase
  std::uint64_t timed_events = 0;
  std::uint64_t timed_allocs = 0;
  Fingerprint fingerprint;
  /// Final state hash. Compared only within one build (thread counts,
  /// restore), never across commits: digest coverage may legitimately grow.
  std::uint64_t state_hash = 0;
  LayerCounts counts;
  std::vector<std::string> errors;  // failed invariants
};

struct Workload {
  const char* name;
  const char* why;
  PassResult (*run)(const PassOptions&);
  /// Whether a threads=N pass must reproduce the threads=1 fingerprint.
  bool sharded;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(std::string_view name);

}  // namespace ladder
