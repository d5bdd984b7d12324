// Content-addressed program storage and the per-ship code cache.
//
// The network-wide CodeRepository is the authoritative store (an origin a
// code-shuttle can always be fetched from); each ship keeps a bounded
// CodeCache in front of it. Demand loading follows the ANTS scheme: a
// shuttle references its processing routine by digest; on a cache miss the
// ship requests the program from the previous hop / origin and queues the
// shuttle until code arrives. The transfer itself is performed by the core
// layer (code-request / code-reply shuttles); these classes provide the
// storage semantics and hit/miss accounting that experiment E11 reports.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "base/hash.h"
#include "base/status.h"
#include "vm/program.h"
#include "vm/verifier.h"

namespace viator::vm {

/// Authoritative digest → program store. Install verifies the program first:
/// the repository never serves unverifiable code.
class CodeRepository {
 public:
  /// Verifies and stores `program`. Idempotent for identical content.
  Result<Digest> Install(Program program);

  /// Looks a program up by digest.
  const Program* Find(Digest digest) const;

  std::size_t size() const { return programs_.size(); }

  /// Snapshot fields (base/archive.h): one program image per stored program,
  /// in ascending digest order. Loading installs each one, so a restored
  /// repository is verified like a published one.
  template <class A>
  void Visit(A& a) {
    if constexpr (A::kLoading) {
      a.ForRecords(0x01, [this](auto& r) {
        auto program = Program::Deserialize(r.bytes());
        if (!program.ok()) return r.Fail(program.status());
        if (auto digest = Install(*std::move(program)); !digest.ok()) {
          r.Fail(digest.status());
        }
      });
    } else {
      a.ImageSet(0x01, programs_,
                 [](const auto& entry) -> const Program& {
                   return entry.second;
                 });
    }
  }

 private:
  std::unordered_map<Digest, Program> programs_;
};

/// Bounded LRU cache of programs resident on one ship. Capacity is counted
/// in serialized bytes, mirroring the NodeOS memory quota for code.
class CodeCache {
 public:
  explicit CodeCache(std::size_t capacity_bytes = 64 * 1024)
      : capacity_(capacity_bytes) {}

  /// Inserts (or refreshes) a program, evicting LRU entries to fit. Programs
  /// larger than the whole cache are rejected with kResourceExhausted.
  Status Put(const Program& program);

  /// Cache lookup; bumps recency and the hit/miss counters.
  const Program* Get(Digest digest);

  /// Lookup without recency/stat side effects.
  bool Contains(Digest digest) const;

  /// Snapshot fields (base/archive.h), under the ship record's tags: the
  /// resident program images from most to least recently used, then the
  /// hit/miss counters. Loading Put()s the images oldest first, so the LRU
  /// order and byte usage come back.
  template <class A>
  void Visit(A& a) {
    if constexpr (A::kLoading) {
      std::vector<Program> programs;
      a.ForRecords(0x17, [&programs](auto& r) {
        auto program = Program::Deserialize(r.bytes());
        if (!program.ok()) return r.Fail(program.status());
        programs.push_back(*std::move(program));
      });
      for (auto it = programs.rbegin(); it != programs.rend() && a.ok(); ++it) {
        if (Status status = Put(*it); !status.ok()) a.Fail(status);
      }
    } else {
      a.Images(0x17, lru_, [this](Digest digest) -> const Program& {
        return entries_.find(digest)->second.program;
      });
    }
    a.U64(0x18, hits_);
    a.U64(0x19, misses_);
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::size_t bytes_used() const { return bytes_used_; }
  std::size_t entry_count() const { return entries_.size(); }

 private:
  struct Entry {
    Program program;
    std::size_t bytes;
    std::list<Digest>::iterator lru_it;
  };

  std::size_t capacity_;
  std::size_t bytes_used_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::list<Digest> lru_;  // front = most recent
  std::unordered_map<Digest, Entry> entries_;
};

}  // namespace viator::vm
