// The one measurement-plane core the cycle (perf_counters.h), byte
// (mem_counters.h) and latency (latency_plane.h) planes sit on: a runtime
// switch per plane, a leaked-singleton registry of per-thread counter blocks
// (no sharing, no atomics on the hot path), and the single compile-out
// switch VIATOR_PLANES that every plane's probe macros obey.
//
// Cost and determinism contract (docs/PERF.md, "The measurement-plane core
// and its cost contract"):
//  - compile-time off (-DVIATOR_PLANES=0): every probe macro of every plane
//    expands to nothing (tests/test_planes_compiled_out.cpp);
//  - runtime off (the default): one relaxed atomic load + predicted branch
//    per probe;
//  - runtime on: a few additions against this thread's private block (or,
//    for latency, against the network's Lane).
// Plane values never feed a simulation decision, never enter snapshots,
// journals or hashes: planes-on and planes-off runs of one seed make
// bit-identical decisions (gated by bench_planes).
//
// Self-contained (std only) so base/ and sim/ can embed probes without
// linking viator_telemetry.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#if !defined(VIATOR_PLANES)
#define VIATOR_PLANES 1
#endif

namespace viator::telemetry::plane {

/// One plane's runtime switch; `Tag` gives each plane its own flag. Off
/// (default): every probe costs one predicted branch.
template <typename Tag>
class Switch {
 public:
  static bool Enabled() { return on_.load(std::memory_order_relaxed); }
  static void SetEnabled(bool on) {
    on_.store(on, std::memory_order_relaxed);
  }

 private:
  static inline std::atomic<bool> on_{false};
};

/// Per-thread counter blocks of `N` `Counter`s, plus the plane's switch.
/// `Counter` supplies the merge rule: `void Merge(const Counter&)`.
///
/// A block is written only by its owning thread. Aggregate() and ResetAll()
/// read and zero every block under the registry lock, so callers must only
/// use them while the writing threads are quiescent (e.g. at a window
/// barrier); the executor's own synchronization then orders the accesses.
/// Blocks of finished threads are kept, so their counts stay in the
/// aggregate; the registry is leaked so probes stay valid during static
/// destruction.
template <typename Counter, std::size_t N>
class Counters : public Switch<Counters<Counter, N>> {
 public:
  using Block = std::array<Counter, N>;

  /// The calling thread's block, attached on first use.
  static Block& Local() {
    thread_local Block* block = Instance().Attach();
    return *block;
  }

  /// Every thread's blocks merged with Counter::Merge.
  static Block Aggregate() {
    Registry& r = Instance();
    Block total{};
    std::lock_guard<std::mutex> lock(r.mutex);
    for (const auto& block : r.blocks) {
      for (std::size_t i = 0; i < N; ++i) total[i].Merge((*block)[i]);
    }
    return total;
  }

  /// The scenario reset hook: zeroes every block, including those of
  /// threads that have exited, so successive scenarios in one process start
  /// clean.
  static void ResetAll() {
    Registry& r = Instance();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (const auto& block : r.blocks) block->fill(Counter{});
  }

 private:
  struct Registry {
    Block* Attach() {
      auto block = std::make_unique<Block>();
      Block* raw = block.get();
      std::lock_guard<std::mutex> lock(mutex);
      blocks.push_back(std::move(block));
      return raw;
    }
    std::mutex mutex;
    std::vector<std::unique_ptr<Block>> blocks;
  };

  static Registry& Instance() {
    static Registry* instance = new Registry;  // intentionally leaked
    return *instance;
  }
};

}  // namespace viator::telemetry::plane
