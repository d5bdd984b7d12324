#include "health/mem_growth.h"

#include <string>

namespace viator::health {

std::optional<HealthEvent> MemGrowthDetector::Observe(
    telemetry::mem::Domain domain, std::uint64_t live_bytes,
    sim::TimePoint now) {
  DomainState& state = domains_[static_cast<std::size_t>(domain)];
  if (!state.seen) {
    state.seen = true;
    state.last_bytes = live_bytes;
    state.run_start_bytes = live_bytes;
    return std::nullopt;
  }

  if (live_bytes > state.last_bytes) {
    if (state.growing == 0) state.run_start_bytes = state.last_bytes;
    ++state.growing;
  } else {
    // Flat or shrinking: the run is over and so is any active episode.
    state.growing = 0;
    state.run_start_bytes = live_bytes;
    state.active = false;
  }
  state.last_bytes = live_bytes;

  const std::uint64_t growth = live_bytes - state.run_start_bytes;
  if (state.active || state.growing < config_.consecutive_windows ||
      growth <= config_.slack_bytes) {
    return std::nullopt;
  }

  state.active = true;
  HealthEvent event;
  event.time = now;
  event.kind = HealthEventKind::kMemGrowth;
  event.ship = static_cast<net::NodeId>(domain);  // domain index, not a ship
  event.value = static_cast<double>(growth);
  event.threshold = static_cast<double>(config_.slack_bytes);
  event.detail = std::string(telemetry::mem::DomainName(domain)) + " grew " +
                 std::to_string(growth) + " bytes over " +
                 std::to_string(state.growing) + " windows";
  events_.push_back(event);
  return event;
}

std::vector<HealthEvent> MemGrowthDetector::ObserveBlock(
    const telemetry::mem::Plane::Block& aggregate, sim::TimePoint now) {
  std::vector<HealthEvent> fresh;
  for (std::size_t d = 0; d < telemetry::mem::kDomainCount; ++d) {
    const auto& counter = aggregate[d];
    const std::uint64_t live =
        counter.live_bytes > 0
            ? static_cast<std::uint64_t>(counter.live_bytes)
            : 0;
    if (auto event = Observe(static_cast<telemetry::mem::Domain>(d), live, now);
        event.has_value()) {
      fresh.push_back(std::move(*event));
    }
  }
  return fresh;
}

}  // namespace viator::health
