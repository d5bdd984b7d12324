#include "tracer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>

#include "alloc_count.h"

namespace ladder {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kLoop: return "bench.loop";
    case Layer::kSim: return "sim.self";
    case Layer::kDispatch: return "core.dispatch";
    case Layer::kRoute: return "net.route";
    case Layer::kVm: return "vm.exec";
    case Layer::kPulse: return "core.pulse";
    case Layer::kGossip: return "services.gossip";
    case Layer::kCapture: return "genesis.capture";
    case Layer::kMerge: return "shard.merge";
    case Layer::kHash: return "shard.hash";
    case Layer::kCount: break;
  }
  return "?";
}

void Tracer::Advance() {
  const std::uint64_t now = NowNs();
  const std::uint64_t allocs = AllocCount();
  if (!stack_.empty()) {
    stack_.back().self_ns += now - last_ns_;
    stack_.back().self_allocs += allocs - last_allocs_;
  }
  last_ns_ = now;
  last_allocs_ = allocs;
}

void Tracer::Enter(Layer layer, bool span) {
  Advance();
  if (origin_ns_ == 0) origin_ns_ = last_ns_;
  stack_.push_back(Frame{layer, span, last_ns_, 0, 0});
}

Tracer::Frame Tracer::Pop() {
  Advance();
  Frame frame = stack_.back();
  stack_.pop_back();
  last_inclusive_ns_ = last_ns_ - frame.start_ns;
  if (frame.span) {
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(Span{frame.layer,
                            static_cast<std::uint32_t>(stack_.size()),
                            frame.start_ns - origin_ns_, last_inclusive_ns_,
                            frame.self_ns});
    } else {
      ++spans_dropped_;
    }
  }
  return frame;
}

void Tracer::Exit() {
  const Frame frame = Pop();
  self_ns_[static_cast<std::size_t>(frame.layer)] += frame.self_ns;
  self_allocs_[static_cast<std::size_t>(frame.layer)] += frame.self_allocs;
}

void Tracer::ExitAs(Layer as) {
  const Frame frame = Pop();
  self_ns_[static_cast<std::size_t>(as)] += frame.self_ns;
  self_allocs_[static_cast<std::size_t>(as)] += frame.self_allocs;
}

void Tracer::ExitSplit(Layer other, std::uint64_t moved_ns) {
  const Frame frame = Pop();
  const std::uint64_t moved = std::min(moved_ns, frame.self_ns);
  self_ns_[static_cast<std::size_t>(other)] += moved;
  self_ns_[static_cast<std::size_t>(frame.layer)] += frame.self_ns - moved;
  self_allocs_[static_cast<std::size_t>(frame.layer)] += frame.self_allocs;
}

std::uint64_t Tracer::total_self_ns() const {
  return std::accumulate(self_ns_.begin(), self_ns_.end(), std::uint64_t{0});
}

std::uint64_t Tracer::total_self_allocs() const {
  return std::accumulate(self_allocs_.begin(), self_allocs_.end(),
                         std::uint64_t{0});
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"self_us\":%.3f,"
                 "\"depth\":%u}}",
                 i == 0 ? "" : ",", LayerName(s.layer),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3,
                 static_cast<double>(s.self_ns) / 1e3, s.depth);
  }
  std::fprintf(out, "\n],\"spans_dropped\":%zu}\n", spans_dropped_);
  return std::fclose(out) == 0;
}

}  // namespace ladder
