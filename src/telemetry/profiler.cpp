#include "telemetry/profiler.h"

#include <algorithm>
#include <iomanip>
#include <vector>

#include "base/strings.h"
#include "telemetry/plane_stats.h"

namespace viator::telemetry {

void Profiler::Attach(sim::Simulator& simulator) {
  Detach();
  simulator_ = &simulator;
  simulator_->SetDispatchObserver(
      [this](const char* component, sim::TimePoint /*when*/,
             sim::Duration virtual_gap, std::uint64_t wall_ns) {
        auto it = costs_.find(std::string_view(component));
        if (it == costs_.end()) {
          it = costs_.emplace(component, ComponentCost{}).first;
        }
        ComponentCost& cost = it->second;
        ++cost.calls;
        cost.wall_ns.Record(static_cast<double>(wall_ns));
        cost.virtual_ns += virtual_gap;
      });
}

void Profiler::Detach() {
  if (simulator_ != nullptr) {
    simulator_->SetDispatchObserver(nullptr);
    simulator_ = nullptr;
  }
}

void Profiler::RecordSection(std::string_view component,
                             std::uint64_t wall_ns) {
  auto it = costs_.find(component);
  if (it == costs_.end()) {
    it = costs_.emplace(std::string(component), ComponentCost{}).first;
  }
  ComponentCost& cost = it->second;
  ++cost.calls;
  cost.wall_ns.Record(static_cast<double>(wall_ns));
}

void Profiler::Report(std::ostream& out) const {
  std::vector<const std::pair<const std::string, ComponentCost>*> rows;
  rows.reserve(costs_.size());
  for (const auto& entry : costs_) rows.push_back(&entry);
  std::sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
    if (a->second.wall_ns.sum() != b->second.wall_ns.sum()) {
      return a->second.wall_ns.sum() > b->second.wall_ns.sum();
    }
    return a->first < b->first;
  });
  TablePrinter table({"component", "calls", "wall total", "wall mean",
                      "wall p99", "virtual total"});
  for (const auto* row : rows) {
    const ComponentCost& c = row->second;
    table.AddRow({row->first, std::to_string(c.calls),
                  FormatNanos(static_cast<std::uint64_t>(c.wall_ns.sum())),
                  FormatNanos(static_cast<std::uint64_t>(c.wall_ns.mean())),
                  FormatNanos(static_cast<std::uint64_t>(c.wall_ns.Quantile(0.99))),
                  FormatNanos(c.virtual_ns)});
  }
  table.Print(out);
}

void Profiler::WriteJson(std::ostream& out) const {
  out << "{\n";
  bool first = true;
  for (const auto& [name, cost] : costs_) {
    if (!first) out << ",\n";
    first = false;
    out << "  \"" << name << "\": {\"calls\": " << cost.calls
        << ", \"wall_ns_total\": "
        << static_cast<std::uint64_t>(cost.wall_ns.sum())
        << ", \"wall_ns_mean\": "
        << static_cast<std::uint64_t>(cost.wall_ns.mean())
        << ", \"wall_ns_p99\": "
        << static_cast<std::uint64_t>(cost.wall_ns.Quantile(0.99))
        << ", \"virtual_ns\": " << cost.virtual_ns << "}";
  }
  out << "\n}\n";
}

void Profiler::PublishStats(sim::StatsRegistry& stats) const {
  if (simulator_ != nullptr) {
    stats.GetGauge("profiler.queue_depth")
        .Set(static_cast<double>(simulator_->queue_depth()));
    stats.GetGauge("profiler.queue_depth_max")
        .Set(static_cast<double>(simulator_->max_queue_depth()));
  }
  for (const auto& [name, cost] : costs_) {
    stats.GetGauge("profiler.events." + name)
        .Set(static_cast<double>(cost.calls));
  }
  // Process-level memory gauges ride along with every profiler publication
  // so dashboards can plot attributed domain bytes against the real RSS.
  PublishProcStats(stats, ReadRssBytes(), ReadMaxRssBytes());
}

}  // namespace viator::telemetry
