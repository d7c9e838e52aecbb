// RV32IM integer semantics: the one evaluator of ALU, mul/div and branch
// outcomes. The simulator's integer core executes with it and rvlint's
// dataflow folds constants with it, so the linter cannot disagree with the
// core it models. Timing is not modelled here: latency comes from the
// instruction's ExecUnit.
#pragma once

#include <cstdint>

#include "isa/mnemonic.hpp"

namespace copift::isa {

/// Result of an integer ALU, mul or div instruction (ExecUnit kIntAlu, kMul,
/// kDiv) with source values `a` (rs1) and `b` (rs2), immediate `imm` and the
/// instruction's own address `pc`. Follows the RV32M spec: x / 0 = -1,
/// x % 0 = x, INT_MIN / -1 = INT_MIN, INT_MIN % -1 = 0; shift amounts use
/// their low five bits. Returns 0 for any other mnemonic.
[[nodiscard]] constexpr std::uint32_t alu_result(Mnemonic m, std::uint32_t a, std::uint32_t b,
                                                 std::int32_t imm, std::uint32_t pc) noexcept {
  const auto sa = static_cast<std::int32_t>(a);
  const auto sb = static_cast<std::int32_t>(b);
  const auto ui = static_cast<std::uint32_t>(imm);
  const auto high = [](std::int64_t product) {
    return static_cast<std::uint32_t>(static_cast<std::uint64_t>(product) >> 32);
  };
  const bool overflow = a == 0x8000'0000U && sb == -1;  // INT_MIN / -1
  switch (m) {
    case Mnemonic::kLui: return ui << 12;
    case Mnemonic::kAuipc: return pc + (ui << 12);
    case Mnemonic::kAddi: return a + ui;
    case Mnemonic::kSlti: return sa < imm ? 1 : 0;
    case Mnemonic::kSltiu: return a < ui ? 1 : 0;
    case Mnemonic::kXori: return a ^ ui;
    case Mnemonic::kOri: return a | ui;
    case Mnemonic::kAndi: return a & ui;
    case Mnemonic::kSlli: return a << (ui & 31);
    case Mnemonic::kSrli: return a >> (ui & 31);
    case Mnemonic::kSrai: return static_cast<std::uint32_t>(sa >> (ui & 31));
    case Mnemonic::kAdd: return a + b;
    case Mnemonic::kSub: return a - b;
    case Mnemonic::kSll: return a << (b & 31);
    case Mnemonic::kSlt: return sa < sb ? 1 : 0;
    case Mnemonic::kSltu: return a < b ? 1 : 0;
    case Mnemonic::kXor: return a ^ b;
    case Mnemonic::kSrl: return a >> (b & 31);
    case Mnemonic::kSra: return static_cast<std::uint32_t>(sa >> (b & 31));
    case Mnemonic::kOr: return a | b;
    case Mnemonic::kAnd: return a & b;
    case Mnemonic::kMul: return a * b;
    case Mnemonic::kMulh: return high(std::int64_t{sa} * sb);
    case Mnemonic::kMulhsu: return high(std::int64_t{sa} * std::int64_t{b});
    case Mnemonic::kMulhu:
      return static_cast<std::uint32_t>((std::uint64_t{a} * b) >> 32);
    case Mnemonic::kDiv:
      return b == 0 ? ~0U : overflow ? a : static_cast<std::uint32_t>(sa / sb);
    case Mnemonic::kDivu: return b == 0 ? ~0U : a / b;
    case Mnemonic::kRem:
      return b == 0 ? a : overflow ? 0 : static_cast<std::uint32_t>(sa % sb);
    case Mnemonic::kRemu: return b == 0 ? a : a % b;
    default: return 0;
  }
}

/// Whether a conditional branch with source values `a` (rs1) and `b` (rs2)
/// is taken; false for any other mnemonic.
[[nodiscard]] constexpr bool branch_taken(Mnemonic m, std::uint32_t a, std::uint32_t b) noexcept {
  const auto sa = static_cast<std::int32_t>(a);
  const auto sb = static_cast<std::int32_t>(b);
  switch (m) {
    case Mnemonic::kBeq: return a == b;
    case Mnemonic::kBne: return a != b;
    case Mnemonic::kBlt: return sa < sb;
    case Mnemonic::kBge: return sa >= sb;
    case Mnemonic::kBltu: return a < b;
    case Mnemonic::kBgeu: return a >= b;
    default: return false;
  }
}

}  // namespace copift::isa
