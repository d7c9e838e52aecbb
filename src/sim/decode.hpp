// Decode-once instruction cache: the per-PC micro-op table the cycle loop
// indexes instead of re-deriving instruction metadata every cycle.
//
// The assembler already hands the simulator predecoded `isa::Instr`s, but the
// issue path still paid per cycle for `Program::text_index` (bounds checks +
// division), the `info(mnemonic)` metadata lookup, and the register-class
// comparisons of the scoreboard busy check — and it paid them again on every
// stall cycle of the same instruction. A DecodedProgram flattens all of that
// into one MicroOp per instruction, built exactly once per program:
// scoreboard operand indices are pre-resolved (0 for non-integer operands, so
// the busy check is three array loads), the execution unit and offload flags
// are copied out of the InstrInfo table, and the micro-op carries a pointer
// to its backing Instr for the tracer and the FPU. The FP side uses the same
// table: the offload FIFO and the FREP buffer carry MicroOp pointers, and the
// FPU class and FP-register operand set are the FPSS issue descriptor.
//
// DecodedProgram::get() extends the assemble-once ProgramCache idea down into
// the simulator: decoded tables are shared by every cluster running the same
// program (a parameter sweep decodes each kernel once), keyed on program
// identity and dropped when the last user releases them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/instr.hpp"
#include "rvasm/program.hpp"

namespace copift::sim {

/// One pre-decoded instruction, resolved for the issue hot path.
struct MicroOp {
  const isa::Instr* instr = nullptr;  // backing instruction (tracer, FPU)
  std::int32_t imm = 0;
  isa::Mnemonic mnemonic = isa::Mnemonic::kEcall;
  isa::ExecUnit unit = isa::ExecUnit::kSys;
  isa::FpuClass fpu_class = isa::FpuClass::kNone;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::uint8_t rs3 = 0;
  // Scoreboard indices: the operand's register number when it lives in the
  // integer RF, else 0. x0 is never marked busy, so `ready_[sb_*] > now`
  // reproduces the class-checked busy test with three unconditional loads.
  std::uint8_t sb_rd = 0;
  std::uint8_t sb_rs1 = 0;
  std::uint8_t sb_rs2 = 0;
  std::uint8_t flags = 0;
  // FP issue descriptor: which operands live in the FP RF (the FPSS tests
  // readiness, SSR lane bindings and writeback bookings against these).
  std::uint8_t fp_regs = 0;

  static constexpr std::uint8_t kWritesIntRf = 1U << 0;  // offloaded, writes int RF
  static constexpr std::uint8_t kRs1Int = 1U << 1;       // rs1 read from the int RF

  static constexpr std::uint8_t kFpRs1 = 1U << 0;
  static constexpr std::uint8_t kFpRs2 = 1U << 1;
  static constexpr std::uint8_t kFpRs3 = 1U << 2;
  static constexpr std::uint8_t kFpRd = 1U << 3;

  [[nodiscard]] bool writes_int_rf() const noexcept { return (flags & kWritesIntRf) != 0; }
  [[nodiscard]] bool rs1_is_int() const noexcept { return (flags & kRs1Int) != 0; }
  [[nodiscard]] bool fp_rd() const noexcept { return (fp_regs & kFpRd) != 0; }
};

/// Immutable per-program micro-op table. Holds a strong reference to the
/// backing program (MicroOps point into its text).
class DecodedProgram {
 public:
  explicit DecodedProgram(std::shared_ptr<const rvasm::Program> program);

  /// Shared decode-once lookup: returns the cached table for `program`,
  /// building it on first use. Thread-safe (sweeps decode concurrently).
  static std::shared_ptr<const DecodedProgram> get(
      const std::shared_ptr<const rvasm::Program>& program);

  /// Micro-op index for a text address; throws SimError on addresses
  /// outside the text section or misaligned ones (a wild jump is a
  /// simulator fault, so Cluster::run appends where it happened).
  [[nodiscard]] std::uint32_t index_of(std::uint32_t pc) const {
    const std::uint32_t offset = pc - text_base_;
    if (pc >= text_base_ && offset / 4 < ops_.size() && (pc & 3U) == 0) [[likely]] {
      return offset / 4;
    }
    bad_text_address(pc);
  }

  [[nodiscard]] const MicroOp& op(std::uint32_t index) const noexcept { return ops_[index]; }
  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(ops_.size());
  }
  [[nodiscard]] const rvasm::Program& program() const noexcept { return *program_; }

 private:
  [[noreturn]] void bad_text_address(std::uint32_t pc) const;

  std::shared_ptr<const rvasm::Program> program_;
  std::vector<MicroOp> ops_;
  std::uint32_t text_base_ = 0;
};

}  // namespace copift::sim
