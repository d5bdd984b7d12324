// Heap-allocation counter of the ladder binary.
//
// alloc_count.cpp replaces the global operator new family; every successful
// allocation from any thread bumps one relaxed atomic. With the simulator
// stepped on one thread the count over a timed phase is exact and repeats
// from run to run, which is what makes allocs_per_event gateable.
#pragma once

#include <cstdint>

namespace ladder {

/// Allocations made through operator new since process start.
std::uint64_t AllocCount();

}  // namespace ladder
