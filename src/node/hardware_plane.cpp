#include "node/hardware_plane.h"

#include <algorithm>

namespace viator::node {

sim::Duration HardwarePlane::InstallLatency(std::uint32_t gates) const {
  return timing_.base_latency +
         timing_.per_kilogate * ((gates + 999) / 1000);
}

Result<sim::Duration> HardwarePlane::Install(const HardwareModule& module) {
  if (FindModule(module.module_id) != nullptr) {
    return Status(AlreadyExists("module id already installed"));
  }
  if (occupied_.size() >= slots_) {
    return Status(ResourceExhausted("no free hardware slot"));
  }
  if (gates_used_ + module.gate_count > total_gates_) {
    return Status(ResourceExhausted("gate budget exhausted"));
  }
  occupied_.push_back(Slot{module, false});
  gates_used_ += module.gate_count;
  ++reconfigurations_;
  return InstallLatency(module.gate_count);
}

Status HardwarePlane::Recount() {
  std::uint64_t gates = 0;
  for (std::size_t i = 0; i < occupied_.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (occupied_[j].module.module_id == occupied_[i].module.module_id) {
        return AlreadyExists("module id already installed");
      }
    }
    gates += occupied_[i].module.gate_count;
  }
  if (occupied_.size() > slots_) {
    return ResourceExhausted("no free hardware slot");
  }
  if (gates > total_gates_) return ResourceExhausted("gate budget exhausted");
  gates_used_ = static_cast<std::uint32_t>(gates);
  return OkStatus();
}

Result<sim::Duration> HardwarePlane::Remove(std::uint32_t module_id) {
  const auto it = std::find_if(
      occupied_.begin(), occupied_.end(),
      [module_id](const Slot& s) { return s.module.module_id == module_id; });
  if (it == occupied_.end()) {
    return Status(NotFound("module not installed"));
  }
  const sim::Duration latency = InstallLatency(it->module.gate_count) / 2;
  gates_used_ -= it->module.gate_count;
  occupied_.erase(it);
  ++reconfigurations_;
  return latency;
}

Status HardwarePlane::ActivateDriver(std::uint32_t module_id,
                                     Digest resident_driver) {
  for (Slot& slot : occupied_) {
    if (slot.module.module_id != module_id) continue;
    if (slot.module.driver_digest != resident_driver) {
      return PermissionDenied("driver digest mismatch");
    }
    slot.driver_active = true;
    return OkStatus();
  }
  return NotFound("module not installed");
}

double HardwarePlane::SpeedupFor(SecondLevelClass cls) const {
  double best = 1.0;
  for (const Slot& slot : occupied_) {
    if (slot.module.accelerates == cls && slot.driver_active) {
      best = std::max(best, slot.module.speedup);
    }
  }
  return best;
}

bool HardwarePlane::HasModuleFor(SecondLevelClass cls) const {
  return std::any_of(occupied_.begin(), occupied_.end(), [cls](const Slot& s) {
    return s.module.accelerates == cls;
  });
}

const HardwarePlane::Slot* HardwarePlane::FindModule(
    std::uint32_t module_id) const {
  for (const Slot& slot : occupied_) {
    if (slot.module.module_id == module_id) return &slot;
  }
  return nullptr;
}

Result<sim::Duration> HardwarePlane::DockNetbot(const Netbot& netbot) {
  auto install = Install(netbot.module);
  if (!install.ok()) return install.status();
  return *install + timing_.netbot_dock_overhead;
}

}  // namespace viator::node
