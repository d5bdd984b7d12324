#include "core/knowledge.h"

#include <algorithm>

#include "base/tlv.h"

namespace viator::wli {
namespace {

// TLV tags for the knowledge-quantum container.
constexpr TlvTag kTagFunctionId = 0x10;
constexpr TlvTag kTagName = 0x11;
constexpr TlvTag kTagRole = 0x12;
constexpr TlvTag kTagClass = 0x13;
constexpr TlvTag kTagProgram = 0x14;
constexpr TlvTag kTagFactKey = 0x15;
constexpr TlvTag kTagVersion = 0x16;
constexpr TlvTag kTagFactSnapshotKey = 0x20;
constexpr TlvTag kTagFactSnapshotValue = 0x21;
constexpr TlvTag kTagFactSnapshotWeight = 0x22;

}  // namespace

std::vector<std::byte> EncodeKnowledgeQuantum(const KnowledgeQuantum& kq) {
  std::vector<std::byte> out;
  EncodeKnowledgeQuantum(kq, out);
  return out;
}

void EncodeKnowledgeQuantum(const KnowledgeQuantum& kq,
                            std::vector<std::byte>& out) {
  TlvWriter writer(std::move(out));
  writer.PutU64(kTagFunctionId, kq.function.id);
  writer.PutString(kTagName, kq.function.name);
  writer.PutU32(kTagRole, static_cast<std::uint32_t>(kq.function.role));
  writer.PutU32(kTagClass, static_cast<std::uint32_t>(kq.function.cls));
  writer.PutU64(kTagProgram, kq.function.program_digest);
  writer.PutU32(kTagVersion, kq.version);
  for (FactKey key : kq.function.fact_keys) {
    writer.PutU64(kTagFactKey, key);
  }
  for (const FactSnapshot& snap : kq.facts) {
    writer.PutU64(kTagFactSnapshotKey, snap.key);
    writer.PutU64(kTagFactSnapshotValue,
                  static_cast<std::uint64_t>(snap.value));
    writer.PutDouble(kTagFactSnapshotWeight, snap.weight);
  }
  out = writer.Finish();
}

Result<KnowledgeQuantum> DecodeKnowledgeQuantum(
    std::span<const std::byte> bytes) {
  TlvReader reader(bytes);
  if (Status s = reader.Verify(); !s.ok()) return s;
  KnowledgeQuantum kq;
  FactSnapshot pending;
  int pending_fields = 0;
  while (reader.HasNext()) {
    auto rec = reader.Next();
    if (!rec.ok()) return rec.status();
    switch (rec->tag) {
      case kTagFunctionId: kq.function.id = rec->AsU64(); break;
      case kTagName: kq.function.name = rec->AsString(); break;
      case kTagRole:
        kq.function.role = static_cast<node::FirstLevelRole>(rec->AsU32());
        break;
      case kTagClass:
        kq.function.cls = static_cast<node::SecondLevelClass>(rec->AsU32());
        break;
      case kTagProgram: kq.function.program_digest = rec->AsU64(); break;
      case kTagVersion: kq.version = rec->AsU32(); break;
      case kTagFactKey: kq.function.fact_keys.push_back(rec->AsU64()); break;
      case kTagFactSnapshotKey:
        pending = FactSnapshot{};
        pending.key = rec->AsU64();
        pending_fields = 1;
        break;
      case kTagFactSnapshotValue:
        pending.value = static_cast<std::int64_t>(rec->AsU64());
        ++pending_fields;
        break;
      case kTagFactSnapshotWeight:
        pending.weight = rec->AsDouble();
        ++pending_fields;
        if (pending_fields == 3) kq.facts.push_back(pending);
        break;
      default:
        break;  // forward-compatible skip
    }
  }
  if (static_cast<std::size_t>(kq.function.role) >=
          static_cast<std::size_t>(node::FirstLevelRole::kRoleCount) ||
      static_cast<std::size_t>(kq.function.cls) >=
          static_cast<std::size_t>(node::SecondLevelClass::kClassCount)) {
    return Status(InvalidArgument("knowledge quantum has invalid role/class"));
  }
  return kq;
}

bool FunctionAlive(const NetFunction& function, const FactStore& store) {
  return std::all_of(
      function.fact_keys.begin(), function.fact_keys.end(),
      [&store](FactKey key) { return store.Find(key) != nullptr; });
}

void FunctionTable::Install(NetFunction function) {
  for (NetFunction& existing : functions_) {
    if (existing.id == function.id) {
      existing = std::move(function);
      return;
    }
  }
  functions_.push_back(std::move(function));
}

bool FunctionTable::Remove(FunctionId id) {
  const auto it = std::find_if(
      functions_.begin(), functions_.end(),
      [id](const NetFunction& f) { return f.id == id; });
  if (it == functions_.end()) return false;
  functions_.erase(it);
  return true;
}

const NetFunction* FunctionTable::Find(FunctionId id) const {
  for (const NetFunction& f : functions_) {
    if (f.id == id) return &f;
  }
  return nullptr;
}

std::size_t FunctionTable::Expire(const FactStore& store) {
  const std::size_t before = functions_.size();
  functions_.erase(
      std::remove_if(functions_.begin(), functions_.end(),
                     [&store](const NetFunction& f) {
                       return !f.fact_keys.empty() &&
                              !FunctionAlive(f, store);
                     }),
      functions_.end());
  return before - functions_.size();
}

std::vector<const NetFunction*> FunctionTable::ForRole(
    node::FirstLevelRole role) const {
  std::vector<const NetFunction*> out;
  for (const NetFunction& f : functions_) {
    if (f.role == role) out.push_back(&f);
  }
  return out;
}

}  // namespace viator::wli
