// Self-time tracer of the ladder's traced run.
//
// The benchmark brackets every call it makes into a simulator layer with
// Enter/Exit, and the simulators' dispatch hook/observer bracket each event
// callback the same way. Each transition reads the clock and the allocation
// counter once and books the interval since the previous transition to the
// innermost open frame, so per-layer self times (and self allocations) sum
// exactly to the time spent inside root frames. Coarse frames (steps, layer
// calls, windows) are also kept as spans in memory and written out at the
// end of the run; per-event and per-route frames are only aggregated.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace ladder {

enum class Layer : std::uint8_t {
  kLoop,      // the benchmark's own step loop: input generation, glue
  kSim,       // simulator loop outside event callbacks
  kDispatch,  // event callbacks and Inject calls that are not route or VM
  kRoute,     // Topology::NextHop, through a timing NextHopChooser
  kVm,        // event callbacks that executed WanderScript code
  kPulse,     // WanderingNetwork::Pulse
  kGossip,    // GossipService::RunRound
  kCapture,   // GenesisManager::CaptureFull
  kMerge,     // ShardedNetwork::RunWindows outside shard event time
  kHash,      // ShardedNetwork::StateHash
  kCount,
};

const char* LayerName(Layer layer);

class Tracer {
 public:
  static constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
  static constexpr std::size_t kMaxSpans = 200000;
  static constexpr std::size_t kMaxDepth = 64;

  // Storage is reserved up front so that the tracer allocates nothing while
  // it runs: every traced pass then repeats the same allocation count.
  Tracer() {
    stack_.reserve(kMaxDepth);
    spans_.reserve(kMaxSpans);
  }

  /// Opens a frame. `span` = false keeps it out of the span log (used for
  /// the per-event and per-route frames, which are too many to keep).
  void Enter(Layer layer, bool span = true);

  /// Closes the innermost frame, booking its self time under its own layer
  /// (or under `as`, for event frames classified only once they finish).
  void Exit();
  void ExitAs(Layer as);

  /// Closes the innermost frame and books up to `moved_ns` of its self time
  /// under `other` instead (the shard window frame hands the simulator's
  /// loop time, known only after the window ran, to kSim).
  void ExitSplit(Layer other, std::uint64_t moved_ns);

  /// Inclusive wall time of the frame closed last.
  std::uint64_t last_inclusive_ns() const { return last_inclusive_ns_; }

  std::uint64_t self_ns(Layer layer) const {
    return self_ns_[static_cast<std::size_t>(layer)];
  }
  std::uint64_t self_allocs(Layer layer) const {
    return self_allocs_[static_cast<std::size_t>(layer)];
  }
  std::uint64_t total_self_ns() const;
  std::uint64_t total_self_allocs() const;
  std::size_t depth() const { return stack_.size(); }

  /// Writes the span log as Chrome trace-event JSON. Returns false on I/O
  /// failure.
  bool WriteSpans(const std::string& path) const;

 private:
  struct Frame {
    Layer layer;
    bool span;
    std::uint64_t start_ns;
    std::uint64_t self_ns;
    std::uint64_t self_allocs;
  };
  struct Span {
    Layer layer;
    std::uint32_t depth;
    std::uint64_t start_ns;
    std::uint64_t dur_ns;
    std::uint64_t self_ns;
  };

  void Advance();
  Frame Pop();

  std::vector<Frame> stack_;
  std::uint64_t last_ns_ = 0;
  std::uint64_t last_allocs_ = 0;
  std::uint64_t last_inclusive_ns_ = 0;
  std::array<std::uint64_t, kLayers> self_ns_{};
  std::array<std::uint64_t, kLayers> self_allocs_{};
  std::vector<Span> spans_;
  std::size_t spans_dropped_ = 0;
  std::uint64_t origin_ns_ = 0;
};

/// Monotonic host clock in nanoseconds.
std::uint64_t NowNs();

}  // namespace ladder
