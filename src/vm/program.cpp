#include "vm/program.h"

#include "base/tlv.h"

namespace viator::vm {
namespace {

// TLV tags for the program container.
constexpr TlvTag kTagName = 1;
constexpr TlvTag kTagCode = 2;
constexpr TlvTag kTagConstant = 3;

}  // namespace

Program::Program(std::string name, std::vector<Instruction> code,
                 std::vector<std::int64_t> constants)
    : name_(std::move(name)),
      code_(std::move(code)),
      constants_(std::move(constants)) {}

std::vector<std::byte> Program::Serialize() const {
  TlvWriter writer;
  writer.PutString(kTagName, name_);
  std::vector<std::byte> code_bytes;
  code_bytes.reserve(code_.size() * 5);
  for (const Instruction& ins : code_) {
    code_bytes.push_back(static_cast<std::byte>(ins.opcode));
    const auto operand = static_cast<std::uint32_t>(ins.operand);
    for (int i = 0; i < 4; ++i) {
      code_bytes.push_back(
          static_cast<std::byte>((operand >> (8 * i)) & 0xff));
    }
  }
  writer.PutBytes(kTagCode, code_bytes);
  for (std::int64_t c : constants_) {
    writer.PutU64(kTagConstant, static_cast<std::uint64_t>(c));
  }
  return writer.Finish();
}

Result<Program> Program::Deserialize(std::span<const std::byte> bytes) {
  TlvReader reader(bytes);
  if (Status verify = reader.Verify(); !verify.ok()) return verify;
  Program program;
  while (reader.HasNext()) {
    auto rec = reader.Next();
    if (!rec.ok()) return rec.status();
    switch (rec->tag) {
      case kTagName:
        program.name_ = rec->AsString();
        break;
      case kTagCode: {
        const auto& payload = rec->payload;
        if (payload.size() % 5 != 0) {
          return Status(InvalidArgument("malformed code section"));
        }
        program.code_.reserve(payload.size() / 5);
        for (std::size_t at = 0; at < payload.size(); at += 5) {
          Instruction ins;
          ins.opcode = static_cast<Opcode>(payload[at]);
          std::uint32_t operand = 0;
          for (int i = 0; i < 4; ++i) {
            operand |= static_cast<std::uint32_t>(payload[at + 1 + i])
                       << (8 * i);
          }
          ins.operand = static_cast<std::int32_t>(operand);
          program.code_.push_back(ins);
        }
        break;
      }
      case kTagConstant:
        program.constants_.push_back(static_cast<std::int64_t>(rec->AsU64()));
        break;
      default:
        break;  // forward compatibility: unknown tags are skipped
    }
  }
  return program;
}

void Program::Measure() const {
  if (measured_) return;
  const std::vector<std::byte> image = Serialize();
  cached_digest_ = HashBytes(image);
  cached_wire_size_ = image.size();
  measured_ = true;
}

Digest Program::digest() const {
  Measure();
  return cached_digest_;
}

std::size_t Program::WireSize() const {
  Measure();
  return cached_wire_size_;
}

}  // namespace viator::vm
