// Memory-growth anomaly gate: a deterministic monotone-growth detector over
// per-domain byte series from the Memory Observatory (telemetry/mem_counters.h).
//
// The health plane's other rules watch the network's traffic; this one
// watches the simulator's own memory domains. Once per window the harness
// feeds each domain's live-byte sample into Observe(). A domain that grows
// strictly for `consecutive_windows` windows AND has gained more than
// `slack_bytes` since the run of growth began raises one `mem_growth`
// HealthEvent. The episode stays active (no re-raise) until the series goes
// flat or shrinks, mirroring AnomalyDetector's (kind, key) episode dedup.
//
// Determinism contract: the detector consumes only deterministic inputs
// (domain byte counters are exact under the single-writer windows the shard
// runtime guarantees) and keeps no wall-clock state, so the same series
// raises the same events at the same windows on every run.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "health/health.h"
#include "telemetry/mem_counters.h"

namespace viator::health {

struct MemGrowthConfig {
  /// Strictly-growing windows required before a domain is suspicious.
  std::uint32_t consecutive_windows = 4;
  /// Net growth over the current run must exceed this many bytes — absorbs
  /// warm-up growth of pools that legitimately expand toward steady state.
  std::uint64_t slack_bytes = 1 << 16;
};

class MemGrowthDetector {
 public:
  explicit MemGrowthDetector(const MemGrowthConfig& config = {})
      : config_(config) {}

  /// Feeds one window's live-byte sample for `domain`. Returns the freshly
  /// raised event, if any. HealthEvent::ship carries the domain index (this
  /// detector keys episodes by memory domain, not by ship); `value` is the
  /// net growth of the current run in bytes, `threshold` the slack.
  std::optional<HealthEvent> Observe(telemetry::mem::Domain domain,
                                     std::uint64_t live_bytes,
                                     sim::TimePoint now);

  /// Convenience sweep: feeds every domain's live bytes from an aggregated
  /// counter block (negative per-thread transients clamp to zero). Returns
  /// only the events newly raised by this sweep.
  std::vector<HealthEvent> ObserveBlock(
      const telemetry::mem::Plane::Block& aggregate, sim::TimePoint now);

  /// Every event raised since construction, in raise order.
  const std::vector<HealthEvent>& events() const { return events_; }

  const MemGrowthConfig& config() const { return config_; }

 private:
  struct DomainState {
    bool seen = false;           // first sample only seeds the series
    bool active = false;         // episode already reported
    std::uint32_t growing = 0;   // length of the current strict-growth run
    std::uint64_t last_bytes = 0;
    std::uint64_t run_start_bytes = 0;  // sample before the run began
  };

  MemGrowthConfig config_;
  std::array<DomainState, telemetry::mem::kDomainCount> domains_{};
  std::vector<HealthEvent> events_;
};

}  // namespace viator::health
