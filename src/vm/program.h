// A WanderScript program: instructions + 64-bit constant pool + identity.
//
// Programs are immutable once built and content-addressed by the digest of
// their canonical serialization; the digest is what shuttles reference and
// what the demand code-distribution protocol requests (ANTS-style).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/hash.h"
#include "base/status.h"
#include "vm/isa.h"

namespace viator::vm {

class Program {
 public:
  Program() = default;
  Program(std::string name, std::vector<Instruction> code,
          std::vector<std::int64_t> constants = {});

  const std::string& name() const { return name_; }
  const std::vector<Instruction>& code() const { return code_; }
  const std::vector<std::int64_t>& constants() const { return constants_; }

  /// Content digest over the canonical serialization. Computed lazily once,
  /// together with WireSize().
  Digest digest() const;

  /// Canonical TLV serialization (what travels inside code shuttles).
  std::vector<std::byte> Serialize() const;

  /// Parses a serialized program; validates framing and checksum.
  static Result<Program> Deserialize(std::span<const std::byte> bytes);

  /// Wire size of the serialized form in bytes (shuttle payload accounting).
  /// Computed lazily once, together with digest().
  std::size_t WireSize() const;

  bool empty() const { return code_.empty(); }

 private:
  std::string name_;
  std::vector<Instruction> code_;
  std::vector<std::int64_t> constants_;
  // Serializes once and caches what digest() and WireSize() report.
  void Measure() const;

  mutable Digest cached_digest_ = 0;
  mutable std::size_t cached_wire_size_ = 0;
  mutable bool measured_ = false;
};

}  // namespace viator::vm
