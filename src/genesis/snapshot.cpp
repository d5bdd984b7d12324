#include "genesis/snapshot.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "base/strings.h"
#include "base/tlv.h"

namespace viator::genesis {
namespace {

// Outer container tags.
constexpr TlvTag kTagMagic = 0x01;
constexpr TlvTag kTagFormatVersion = 0x02;
constexpr TlvTag kTagKind = 0x03;
constexpr TlvTag kTagSequence = 0x04;
constexpr TlvTag kTagBaseSequence = 0x05;
constexpr TlvTag kTagSnapTime = 0x06;
constexpr TlvTag kTagScenarioTag = 0x07;
constexpr TlvTag kTagSectionCount = 0x08;
constexpr TlvTag kTagSection = 0x10;

// Section record inner tags.
constexpr TlvTag kTagSectionId = 0x01;
constexpr TlvTag kTagSectionVersion = 0x02;
constexpr TlvTag kTagSectionDigest = 0x03;
constexpr TlvTag kTagSectionPayload = 0x04;

Result<SectionRecord> ParseSection(std::span<const std::byte> bytes) {
  TlvReader reader(bytes);
  SectionRecord section;
  bool have_id = false, have_digest = false, have_payload = false;
  while (reader.HasNext()) {
    auto rec = reader.Next();
    if (!rec.ok()) return rec.status();
    switch (rec->tag) {
      case kTagSectionId:
        section.id = rec->AsU32();
        have_id = true;
        break;
      case kTagSectionVersion:
        section.version = rec->AsU32();
        break;
      case kTagSectionDigest:
        section.digest = rec->AsU64();
        have_digest = true;
        break;
      case kTagSectionPayload:
        section.payload.assign(rec->payload.begin(), rec->payload.end());
        have_payload = true;
        break;
      default:
        break;  // forward-compatible skip
    }
  }
  if (!have_id || !have_digest || !have_payload) {
    return Status(InvalidArgument("snapshot section missing id/digest/payload"));
  }
  if (HashBytes(section.payload) != section.digest) {
    return Status(InvalidArgument("snapshot section '" +
                                  SectionName(section.id) +
                                  "' digest mismatch (payload corrupted)"));
  }
  return section;
}

}  // namespace

std::string SectionName(std::uint32_t id) {
  switch (id) {
    case kSectionClock: return "clock";
    case kSectionNetworkRng: return "network-rng";
    case kSectionStats: return "stats";
    case kSectionTrace: return "trace";
    case kSectionTopology: return "topology";
    case kSectionFabric: return "fabric";
    case kSectionRepository: return "repository";
    case kSectionShips: return "ships";
    case kSectionPlacements: return "placements";
    case kSectionLedger: return "ledger";
    case kSectionReputation: return "reputation";
    case kSectionClusters: return "clusters";
    case kSectionDemand: return "demand";
    case kSectionOverlays: return "overlays";
    case kSectionMorphing: return "morphing";
    case kSectionFeedback: return "feedback";
    case kSectionNetworkCounters: return "network-counters";
    case kSectionMemPeaks: return "mem-peaks";
    case kSectionLatency: return "latency";
    default:
      if (id >= kExtraSectionBase) {
        return "extra:" + std::to_string(id);
      }
      return "unknown:" + std::to_string(id);
  }
}

void SnapshotBuilder::AddSection(SectionRecord section) {
  mem_bytes_.Add(section.payload.capacity());
  sections_.push_back(std::move(section));
}

std::vector<std::byte> SnapshotBuilder::Finish() const {
  // A section record's body: id, version, digest and payload records, then
  // its checksum trailer.
  constexpr std::size_t kSectionFields =
      3 * kTlvHeaderSize + 4 + 4 + 8 + kTlvHeaderSize;
  std::size_t size = 3 * (kTlvHeaderSize + 4) + 5 * (kTlvHeaderSize + 8) +
                     kTlvTrailerSize;
  for (const SectionRecord& section : sections_) {
    size += kTlvHeaderSize + kSectionFields + section.payload.size() +
            kTlvTrailerSize;
  }
  std::vector<std::byte> out;
  out.reserve(size);
  AppendTlvWord(out, kTagMagic, kSnapshotMagic, 8);
  AppendTlvWord(out, kTagFormatVersion, header_.format_version, 4);
  AppendTlvWord(out, kTagKind, static_cast<std::uint32_t>(header_.kind), 4);
  AppendTlvWord(out, kTagSequence, header_.sequence, 8);
  AppendTlvWord(out, kTagBaseSequence, header_.base_sequence, 8);
  AppendTlvWord(out, kTagSnapTime, header_.snap_time, 8);
  AppendTlvWord(out, kTagScenarioTag, header_.scenario_tag, 8);
  AppendTlvWord(out, kTagSectionCount, sections_.size(), 4);

  // chains[0] is the section record's checksum, chains[1] the stream's;
  // `hashed` is how far the stream chain has read.
  Digest chains[2] = {0, kFnvOffsetBasis};
  std::size_t hashed = 0;
  for (const SectionRecord& section : sections_) {
    AppendTlvHeader(out, kTagSection,
                    static_cast<std::uint32_t>(kSectionFields +
                                               section.payload.size() +
                                               kTlvTrailerSize));
    const std::size_t body = out.size();
    chains[1] = HashCombine(chains[1],
                            std::span(out).subspan(hashed, body - hashed));
    AppendTlvWord(out, kTagSectionId, section.id, 4);
    AppendTlvWord(out, kTagSectionVersion, section.version, 4);
    AppendTlvWord(out, kTagSectionDigest, section.digest, 8);
    AppendTlvHeader(out, kTagSectionPayload,
                    static_cast<std::uint32_t>(section.payload.size()));
    out.insert(out.end(), section.payload.begin(), section.payload.end());
    chains[0] = kFnvOffsetBasis;
    HashCombineEach(chains, std::span(out).subspan(body));
    hashed = out.size();
    AppendTlvWord(out, kTlvChecksumTag, chains[0], 8);
  }
  chains[1] = HashCombine(chains[1], std::span(out).subspan(hashed));
  AppendTlvWord(out, kTlvChecksumTag, chains[1], 8);
  return out;
}

const SectionRecord* ParsedSnapshot::Find(std::uint32_t id) const {
  for (const SectionRecord& section : sections) {
    if (section.id == id) return &section;
  }
  return nullptr;
}

Result<ParsedSnapshot> ParseSnapshot(std::span<const std::byte> bytes) {
  TlvReader reader(bytes);
  if (Status s = reader.Verify(); !s.ok()) return s;

  ParsedSnapshot snapshot;
  bool have_magic = false, have_version = false, have_count = false;
  std::uint32_t declared_count = 0;
  while (reader.HasNext()) {
    auto rec = reader.Next();
    if (!rec.ok()) return rec.status();
    switch (rec->tag) {
      case kTagMagic:
        if (rec->AsU64() != kSnapshotMagic) {
          return Status(InvalidArgument("not a genesis snapshot (bad magic)"));
        }
        have_magic = true;
        break;
      case kTagFormatVersion:
        snapshot.header.format_version = rec->AsU32();
        have_version = true;
        break;
      case kTagKind: {
        const std::uint32_t kind = rec->AsU32();
        if (kind > static_cast<std::uint32_t>(SnapshotKind::kDelta)) {
          return Status(InvalidArgument("unknown snapshot kind"));
        }
        snapshot.header.kind = static_cast<SnapshotKind>(kind);
        break;
      }
      case kTagSequence: snapshot.header.sequence = rec->AsU64(); break;
      case kTagBaseSequence:
        snapshot.header.base_sequence = rec->AsU64();
        break;
      case kTagSnapTime: snapshot.header.snap_time = rec->AsU64(); break;
      case kTagScenarioTag:
        snapshot.header.scenario_tag = rec->AsU64();
        break;
      case kTagSectionCount:
        declared_count = rec->AsU32();
        have_count = true;
        break;
      case kTagSection: {
        auto section = ParseSection(rec->payload);
        if (!section.ok()) return section.status();
        for (const SectionRecord& existing : snapshot.sections) {
          if (existing.id == section->id) {
            return Status(InvalidArgument("duplicate snapshot section '" +
                                          SectionName(section->id) + "'"));
          }
        }
        snapshot.sections.push_back(*std::move(section));
        break;
      }
      default:
        break;  // forward-compatible skip
    }
  }
  if (!have_magic) {
    return Status(InvalidArgument("not a genesis snapshot (no magic record)"));
  }
  if (!have_version ||
      snapshot.header.format_version != kFormatVersion) {
    return Status(InvalidArgument(
        "unsupported snapshot format version " +
        std::to_string(snapshot.header.format_version) + " (expected " +
        std::to_string(kFormatVersion) + ")"));
  }
  if (!have_count || declared_count != snapshot.sections.size()) {
    return Status(InvalidArgument("snapshot section count mismatch"));
  }
  return snapshot;
}

Status VerifySnapshot(std::span<const std::byte> bytes) {
  return ParseSnapshot(bytes).status();
}

Result<std::vector<std::byte>> MergeDelta(std::span<const std::byte> base,
                                          std::span<const std::byte> delta) {
  auto base_snap = ParseSnapshot(base);
  if (!base_snap.ok()) return base_snap.status();
  auto delta_snap = ParseSnapshot(delta);
  if (!delta_snap.ok()) return delta_snap.status();
  if (base_snap->header.kind != SnapshotKind::kFull) {
    return Status(FailedPrecondition("merge base is not a full snapshot"));
  }
  if (delta_snap->header.kind != SnapshotKind::kDelta) {
    return Status(FailedPrecondition("merge delta is not a delta snapshot"));
  }
  if (delta_snap->header.base_sequence != base_snap->header.sequence) {
    return Status(FailedPrecondition(
        "delta bases on sequence " +
        std::to_string(delta_snap->header.base_sequence) +
        " but the given full snapshot is sequence " +
        std::to_string(base_snap->header.sequence)));
  }

  SnapshotHeader merged = delta_snap->header;
  merged.kind = SnapshotKind::kFull;
  merged.base_sequence = 0;
  SnapshotBuilder builder(merged);
  for (const SectionRecord& section : base_snap->sections) {
    const SectionRecord* replacement = delta_snap->Find(section.id);
    builder.AddSection(replacement ? *replacement : section);
  }
  for (const SectionRecord& section : delta_snap->sections) {
    if (base_snap->Find(section.id) == nullptr) builder.AddSection(section);
  }
  return builder.Finish();
}

Result<std::string> InspectSnapshot(std::span<const std::byte> bytes) {
  auto snapshot = ParseSnapshot(bytes);
  if (!snapshot.ok()) return snapshot.status();

  std::ostringstream out;
  const SnapshotHeader& h = snapshot->header;
  out << "genesis snapshot: "
      << (h.kind == SnapshotKind::kFull ? "full" : "delta")
      << " v" << h.format_version << " seq " << h.sequence;
  if (h.kind == SnapshotKind::kDelta) {
    out << " (base seq " << h.base_sequence << ")";
  }
  out << "\n  snap time: " << FormatNanos(h.snap_time)
      << "\n  scenario tag: " << h.scenario_tag
      << "\n  total size: " << FormatBytes(bytes.size())
      << "\n  sections: " << snapshot->sections.size() << "\n";

  TablePrinter table({"section", "id", "ver", "bytes", "digest"});
  for (const SectionRecord& section : snapshot->sections) {
    table.AddRow({SectionName(section.id), std::to_string(section.id),
                  std::to_string(section.version),
                  std::to_string(section.payload.size()),
                  DigestToHex(section.digest)});
  }
  out << table.ToString();
  return out.str();
}

Result<std::string> DiffSnapshots(std::span<const std::byte> a,
                                  std::span<const std::byte> b) {
  auto snap_a = ParseSnapshot(a);
  if (!snap_a.ok()) return snap_a.status();
  auto snap_b = ParseSnapshot(b);
  if (!snap_b.ok()) return snap_b.status();

  std::map<std::uint32_t, const SectionRecord*> in_a, in_b;
  for (const SectionRecord& s : snap_a->sections) in_a[s.id] = &s;
  for (const SectionRecord& s : snap_b->sections) in_b[s.id] = &s;

  std::ostringstream out;
  TablePrinter table({"section", "state", "bytes a", "bytes b"});
  std::size_t changed = 0;
  for (const auto& [id, sec_a] : in_a) {
    const auto it = in_b.find(id);
    if (it == in_b.end()) {
      table.AddRow({SectionName(id), "removed",
                    std::to_string(sec_a->payload.size()), "-"});
      ++changed;
    } else if (it->second->digest != sec_a->digest) {
      table.AddRow({SectionName(id), "changed",
                    std::to_string(sec_a->payload.size()),
                    std::to_string(it->second->payload.size())});
      ++changed;
    }
  }
  for (const auto& [id, sec_b] : in_b) {
    if (in_a.find(id) == in_a.end()) {
      table.AddRow({SectionName(id), "added", "-",
                    std::to_string(sec_b->payload.size())});
      ++changed;
    }
  }
  out << changed << " section(s) differ (" << in_a.size() << " in a, "
      << in_b.size() << " in b)\n";
  if (changed > 0) out << table.ToString();
  return out.str();
}

}  // namespace viator::genesis
