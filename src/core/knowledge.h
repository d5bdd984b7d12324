// Net functions and knowledge quanta (PMP, Def. 3(2)).
//
// "A net function can be based on one or more facts. The combination of net
// function and facts is called a knowledge quantum (kq). Knowledge quanta
// are a new type of capsules which are distributed via shuttles."
//
// A NetFunction binds a first/second-level role to a processing routine and
// the facts that justify its existence; its lifetime is the lifetime of its
// facts. A KnowledgeQuantum snapshots a function plus the current values of
// its facts for transport in a shuttle's genetic section.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/hash.h"
#include "base/status.h"
#include "core/facts.h"
#include "node/profile.h"

namespace viator::wli {

using FunctionId = std::uint64_t;

/// A deployable network function: what the ships wander.
struct NetFunction {
  FunctionId id = 0;
  std::string name;
  node::FirstLevelRole role = node::FirstLevelRole::kCaching;
  node::SecondLevelClass cls = node::SecondLevelClass::kSupplementary;
  Digest program_digest = 0;       // processing routine (0 = native handler)
  std::vector<FactKey> fact_keys;  // facts this function is based on
};

/// Fact snapshot inside a knowledge quantum.
struct FactSnapshot {
  FactKey key = 0;
  std::int64_t value = 0;
  double weight = 1.0;
};

/// A knowledge quantum: net function + the facts it is based on.
struct KnowledgeQuantum {
  NetFunction function;
  std::vector<FactSnapshot> facts;
  std::uint32_t version = 1;
};

/// Serializes a KQ into TLV bytes for a shuttle genome.
std::vector<std::byte> EncodeKnowledgeQuantum(const KnowledgeQuantum& kq);
/// The same bytes written into `out`, reusing its capacity.
void EncodeKnowledgeQuantum(const KnowledgeQuantum& kq,
                            std::vector<std::byte>& out);

/// Parses one KQ back; validates the checksum trailer.
Result<KnowledgeQuantum> DecodeKnowledgeQuantum(
    std::span<const std::byte> bytes);

/// "The lifetime of a knowledge quantum is defined by the lifetime of its
/// network function", and the function lives while its facts live: true iff
/// every fact key of `function` is present in `store`. Functions without
/// facts are unconditioned (infrastructure functions) and always alive.
bool FunctionAlive(const NetFunction& function, const FactStore& store);

/// Registry of the functions a ship currently hosts. Expire() removes the
/// ones whose facts died (the PMP churn mechanism).
class FunctionTable {
 public:
  /// Installs or replaces a function ("a modification of a net function is
  /// determined by a new set of knowledge quanta").
  void Install(NetFunction function);

  bool Remove(FunctionId id);
  const NetFunction* Find(FunctionId id) const;
  const std::vector<NetFunction>& functions() const { return functions_; }

  /// Removes every function whose facts are gone; returns how many died.
  std::size_t Expire(const FactStore& store);

  /// Functions currently filling a given first-level role.
  std::vector<const NetFunction*> ForRole(node::FirstLevelRole role) const;

  /// Snapshot fields (base/archive.h), under the ship record's tags: one
  /// knowledge-quantum record (EncodeKnowledgeQuantum's tags, no fact
  /// snapshots) per function.
  template <class A>
  void Visit(A& a) {
    a.Each(0x15, functions_, [](auto& r, auto& function) {
      r.U64(0x10, function.id);
      r.Str(0x11, function.name);
      r.Enum(0x12, function.role,
             static_cast<std::uint32_t>(node::FirstLevelRole::kRoleCount),
             "net function role out of range");
      r.Enum(0x13, function.cls,
             static_cast<std::uint32_t>(node::SecondLevelClass::kClassCount),
             "net function class out of range");
      r.U64(0x14, function.program_digest);
      std::uint32_t version = 1;
      r.U32(0x16, version);
      r.U64s(0x15, function.fact_keys);
    });
  }

 private:
  std::vector<NetFunction> functions_;
};

}  // namespace viator::wli
