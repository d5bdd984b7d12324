// Snapshot section codecs, in one table: SaveSection/LoadSection per id.
//
// The decision-state sections are the field lists of
// WanderingNetwork::VisitState (base/archive.h): TlvEncoder writes them and
// the strict TlvDecoder reads them back, so a snapshot and the state hash
// walk the same fields. The simulator and telemetry sections (clock, stats,
// trace, memory peaks, latency) keep the hand-written codecs below.
//
// Loads are strict: malformed payloads yield Status errors without
// crashing, though a failed load may leave a partially-restored subsystem
// behind — GenesisManager::RestoreFull therefore validates the whole
// container before applying any section.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "base/status.h"
#include "core/wandering_network.h"
#include "genesis/section_ids.h"
#include "genesis/snapshot.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace viator::genesis {

/// Every built-in section, in capture order, which is also restore order:
/// substrate (topology, clock) first, then code, then ships (AddShip forks
/// the network RNG and installs fabric handlers), then engine state, and
/// only then the RNG streams the earlier steps perturbed. The memory peaks
/// come after every pending event has been rescheduled, so the monotone
/// queue-peak restore sits on top of the rebuild.
inline constexpr std::uint32_t kSectionOrder[] = {
    kSectionTopology,  kSectionClock,      kSectionRepository,
    kSectionShips,     kSectionPlacements, kSectionLedger,
    kSectionReputation, kSectionClusters,  kSectionDemand,
    kSectionOverlays,  kSectionMorphing,   kSectionFeedback,
    kSectionNetworkCounters, kSectionNetworkRng, kSectionFabric,
    kSectionStats,     kSectionTrace,      kSectionMemPeaks,
    kSectionLatency,
};

/// Built-in section `id`: its payload (a finished TLV stream) and digest.
SectionRecord SaveSection(std::uint32_t id, wli::WanderingNetwork& network);

/// Validates and applies the payload of built-in section `id`. Topology and
/// ships require a network that has none yet.
Status LoadSection(std::uint32_t id, std::span<const std::byte> payload,
                   wli::WanderingNetwork& network);

// ---- Simulator and telemetry sections -------------------------------------

std::vector<std::byte> SaveClock(const sim::Simulator& simulator);
Status LoadClock(std::span<const std::byte> payload, sim::Simulator& simulator);

std::vector<std::byte> SaveStats(const sim::StatsRegistry& stats);
Status LoadStats(std::span<const std::byte> payload, sim::StatsRegistry& stats);

std::vector<std::byte> SaveTrace(const sim::TraceSink& trace);
Status LoadTrace(std::span<const std::byte> payload, sim::TraceSink& trace);

/// Memory watermarks (calendar-queue heap peak, shuttle-pool retained
/// peak). Advisory telemetry, kept out of the decision-state sections: see
/// the kSectionMemPeaks note in section_ids.h.
std::vector<std::byte> SaveMemPeaks(const wli::WanderingNetwork& network);
Status LoadMemPeaks(std::span<const std::byte> payload,
                    wli::WanderingNetwork& network);

/// Latency Observatory sketches (every per-(stage, class) quantile sketch
/// plus the window delivery sketch, sparse buckets + exact integer totals).
/// Advisory telemetry like the peaks, but integer-exact: the section
/// round-trips bit-identically. See the kSectionLatency note in
/// section_ids.h.
std::vector<std::byte> SaveLatency(const wli::WanderingNetwork& network);
Status LoadLatency(std::span<const std::byte> payload,
                   wli::WanderingNetwork& network);

}  // namespace viator::genesis
