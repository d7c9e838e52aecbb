#include "sim/decode.hpp"

#include <map>
#include <mutex>

#include "common/error.hpp"

namespace copift::sim {

using isa::RegClass;

DecodedProgram::DecodedProgram(std::shared_ptr<const rvasm::Program> program)
    : program_(std::move(program)) {
  if (!program_) throw Error("DecodedProgram requires a non-null program");
  text_base_ = program_->text_base;
  ops_.reserve(program_->text.size());
  for (const isa::Instr& instr : program_->text) {
    const isa::InstrInfo& meta = instr.meta();
    MicroOp op;
    op.instr = &instr;
    op.imm = instr.imm;
    op.mnemonic = instr.mnemonic;
    op.unit = meta.unit;
    op.rd = instr.rd;
    op.rs1 = instr.rs1;
    op.rs2 = instr.rs2;
    op.rs3 = instr.rs3;
    op.fpu_class = meta.fpu_class;
    op.sb_rd = meta.rd_class == RegClass::kInt ? instr.rd : 0;
    op.sb_rs1 = meta.rs1_class == RegClass::kInt ? instr.rs1 : 0;
    op.sb_rs2 = meta.rs2_class == RegClass::kInt ? instr.rs2 : 0;
    if (meta.writes_int_rf()) op.flags |= MicroOp::kWritesIntRf;
    if (meta.rs1_class == RegClass::kInt) op.flags |= MicroOp::kRs1Int;
    if (meta.rs1_class == RegClass::kFp) op.fp_regs |= MicroOp::kFpRs1;
    if (meta.rs2_class == RegClass::kFp) op.fp_regs |= MicroOp::kFpRs2;
    if (meta.rs3_class == RegClass::kFp) op.fp_regs |= MicroOp::kFpRs3;
    if (meta.rd_class == RegClass::kFp) op.fp_regs |= MicroOp::kFpRd;
    ops_.push_back(op);
  }
}

std::shared_ptr<const DecodedProgram> DecodedProgram::get(
    const std::shared_ptr<const rvasm::Program>& program) {
  if (!program) throw Error("DecodedProgram requires a non-null program");
  // Keyed on program identity; entries self-expire when the last cluster
  // using a program releases its decoded table. A recycled address whose
  // weak_ptr has expired is simply rebuilt.
  static std::mutex mutex;
  static std::map<const rvasm::Program*, std::weak_ptr<const DecodedProgram>> cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto& slot = cache[program.get()];
  if (auto cached = slot.lock()) {
    if (&cached->program() == program.get()) return cached;
  }
  auto decoded = std::make_shared<const DecodedProgram>(program);
  slot = decoded;
  // Opportunistically drop expired slots so the cache stays bounded by the
  // number of live programs.
  for (auto it = cache.begin(); it != cache.end();) {
    it = it->second.expired() ? cache.erase(it) : std::next(it);
  }
  return decoded;
}

void DecodedProgram::bad_text_address(std::uint32_t pc) const {
  if (pc < text_base_ || (pc - text_base_) / 4 >= ops_.size()) {
    throw SimError("address outside text section: " + std::to_string(pc));
  }
  throw SimError("misaligned text address");
}

}  // namespace copift::sim
