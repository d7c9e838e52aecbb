#include "isa/instr.hpp"

#include <gtest/gtest.h>

#include <random>

#include "common/error.hpp"
#include "isa/eval.hpp"
#include "isa/reg.hpp"

namespace copift::isa {
namespace {

// Golden encodings cross-checked against GNU binutils output.
TEST(IsaGolden, BaseInteger) {
  // addi a0, a1, 42
  EXPECT_EQ(encode({Mnemonic::kAddi, 10, 11, 0, 0, 42}), 0x02A58513u);
  // add s0, s1, s2
  EXPECT_EQ(encode({Mnemonic::kAdd, 8, 9, 18, 0, 0}), 0x01248433u);
  // sub t0, t1, t2
  EXPECT_EQ(encode({Mnemonic::kSub, 5, 6, 7, 0, 0}), 0x407302B3u);
  // lw a0, 16(sp)
  EXPECT_EQ(encode({Mnemonic::kLw, 10, 2, 0, 0, 16}), 0x01012503u);
  // sw a0, -4(s0)
  EXPECT_EQ(encode({Mnemonic::kSw, 0, 8, 10, 0, -4}), 0xFEA42E23u);
  // lui a0, 0x12345
  EXPECT_EQ(encode({Mnemonic::kLui, 10, 0, 0, 0, 0x12345}), 0x12345537u);
  // jal ra, +8
  EXPECT_EQ(encode({Mnemonic::kJal, 1, 0, 0, 0, 8}), 0x008000EFu);
  // beq a0, a1, -4
  EXPECT_EQ(encode({Mnemonic::kBeq, 0, 10, 11, 0, -4}), 0xFEB50EE3u);
  // mul a0, a1, a2
  EXPECT_EQ(encode({Mnemonic::kMul, 10, 11, 12, 0, 0}), 0x02C58533u);
  // ecall
  EXPECT_EQ(encode({Mnemonic::kEcall, 0, 0, 0, 0, 0}), 0x00000073u);
}

TEST(IsaGolden, FloatingPoint) {
  // fld fa3, 0(a3): rd=f13 rs1=x13
  EXPECT_EQ(encode({Mnemonic::kFld, 13, 13, 0, 0, 0}), 0x0006B687u);
  // fsd fa4, 8(a4)
  EXPECT_EQ(encode({Mnemonic::kFsd, 0, 14, 14, 0, 8}), 0x00E73427u);
  // fadd.d fa0, fa1, fa2 (rm = dyn)
  EXPECT_EQ(encode({Mnemonic::kFaddD, 10, 11, 12, 0, 0}), 0x02C5F553u);
  // fmadd.d fa4, fa2, fa1, fa4: rs3 at bits 31:27, fmt=01
  EXPECT_EQ(encode({Mnemonic::kFmaddD, 14, 12, 11, 14, 0}), 0x72B67743u);
  // flt.d a0, fa0, fa1
  EXPECT_EQ(encode({Mnemonic::kFltD, 10, 10, 11, 0, 0}), 0xA2B51553u);
  // fcvt.d.wu fa0, a1
  EXPECT_EQ(encode({Mnemonic::kFcvtDWu, 10, 11, 0, 0, 0}), 0xD215F553u);
  // fcvt.w.d a0, fa1
  EXPECT_EQ(encode({Mnemonic::kFcvtWD, 10, 11, 0, 0, 0}), 0xC205F553u);
}

TEST(IsaRoundTrip, EveryMnemonicRandomOperands) {
  std::mt19937 rng(7);
  for (std::size_t m = 0; m < kNumMnemonics; ++m) {
    const auto mnemonic = static_cast<Mnemonic>(m);
    const auto& meta = info(mnemonic);
    for (int trial = 0; trial < 50; ++trial) {
      Instr instr;
      instr.mnemonic = mnemonic;
      instr.rd = static_cast<std::uint8_t>(rng() % 32);
      instr.rs1 = static_cast<std::uint8_t>(rng() % 32);
      instr.rs2 = static_cast<std::uint8_t>(rng() % 32);
      instr.rs3 = static_cast<std::uint8_t>(rng() % 32);
      switch (meta.format) {
        case Format::kI:
        case Format::kILoad:
        case Format::kS:
          instr.imm = static_cast<std::int32_t>(rng() % 4096) - 2048;
          break;
        case Format::kB:
          instr.imm = (static_cast<std::int32_t>(rng() % 4096) - 2048) * 2;
          break;
        case Format::kIShift:
          instr.imm = static_cast<std::int32_t>(rng() % 32);
          break;
        case Format::kU:
          instr.imm = static_cast<std::int32_t>(rng() % (1 << 20));
          break;
        case Format::kJ:
          instr.imm = (static_cast<std::int32_t>(rng() % (1 << 20)) - (1 << 19)) * 2;
          break;
        case Format::kICsr:
        case Format::kICsrImm:
        case Format::kRs1Imm:
        case Format::kRdImm:
          instr.imm = static_cast<std::int32_t>(rng() % 4096);
          break;
        default:
          instr.imm = 0;
          break;
      }
      // Zero out operand fields the format does not encode.
      switch (meta.format) {
        case Format::kFixed: instr.rd = instr.rs1 = instr.rs2 = instr.rs3 = 0; break;
        case Format::kRdOnly: instr.rs1 = instr.rs2 = instr.rs3 = 0; break;
        case Format::kRs1Only: instr.rd = instr.rs2 = instr.rs3 = 0; break;
        case Format::kRdRs1: instr.rs2 = instr.rs3 = 0; break;
        case Format::kRs1Imm: instr.rd = instr.rs2 = instr.rs3 = 0; break;
        case Format::kRdImm: instr.rs1 = instr.rs2 = instr.rs3 = 0; break;
        case Format::kU:
        case Format::kJ: instr.rs1 = instr.rs2 = instr.rs3 = 0; break;
        case Format::kI:
        case Format::kILoad:
        case Format::kIShift:
        case Format::kICsr:
        case Format::kICsrImm: instr.rs2 = instr.rs3 = 0; break;
        case Format::kS:
        case Format::kB: instr.rd = instr.rs3 = 0; break;
        case Format::kR:
        case Format::kRFpRm: instr.rs3 = 0; break;
        case Format::kRFp1Rm:
        case Format::kRFp1: instr.rs2 = instr.rs3 = 0; break;
        case Format::kR4: break;
      }
      const std::uint32_t word = encode(instr);
      const Instr decoded = decode(word);
      EXPECT_EQ(decoded, instr) << meta.name << " word=0x" << std::hex << word;
    }
  }
}

TEST(IsaDecode, RejectsGarbage) {
  EXPECT_THROW(decode(0x00000000u), EncodingError);
  EXPECT_THROW(decode(0xFFFFFFFFu), EncodingError);
}

TEST(IsaMeta, OffloadClassification) {
  EXPECT_TRUE(info(Mnemonic::kFaddD).offloaded());
  EXPECT_TRUE(info(Mnemonic::kFld).offloaded());
  EXPECT_TRUE(info(Mnemonic::kFsd).offloaded());
  EXPECT_TRUE(info(Mnemonic::kFltDCop).offloaded());
  EXPECT_FALSE(info(Mnemonic::kAdd).offloaded());
  EXPECT_FALSE(info(Mnemonic::kFrepO).offloaded());
  EXPECT_FALSE(info(Mnemonic::kScfgwi).offloaded());
  EXPECT_FALSE(info(Mnemonic::kCopiftBarrier).offloaded());
}

TEST(IsaMeta, IntRfBridges) {
  // The paper's dual-issue blockers: FP ops touching the integer RF.
  EXPECT_TRUE(info(Mnemonic::kFltD).writes_int_rf());
  EXPECT_TRUE(info(Mnemonic::kFcvtWD).writes_int_rf());
  EXPECT_TRUE(info(Mnemonic::kFclassD).writes_int_rf());
  EXPECT_TRUE(info(Mnemonic::kFmvXW).writes_int_rf());
  EXPECT_TRUE(info(Mnemonic::kFcvtDW).reads_int_rf());
  EXPECT_TRUE(info(Mnemonic::kFld).reads_int_rf());
  EXPECT_TRUE(info(Mnemonic::kFsd).reads_int_rf());
  // Their Xcopift replacements operate entirely on the FP RF.
  EXPECT_FALSE(info(Mnemonic::kFltDCop).writes_int_rf());
  EXPECT_FALSE(info(Mnemonic::kFcvtDWCop).reads_int_rf());
  EXPECT_FALSE(info(Mnemonic::kFcvtWDCop).writes_int_rf());
  EXPECT_FALSE(info(Mnemonic::kFclassDCop).writes_int_rf());
}

TEST(IsaMeta, XcopiftFlag) {
  unsigned count = 0;
  for (std::size_t m = 0; m < kNumMnemonics; ++m) {
    if (info(static_cast<Mnemonic>(m)).xcopift) ++count;
  }
  EXPECT_EQ(count, 8u);  // the paper's 8 re-encoded instructions
}

TEST(IsaMeta, NamesAreUniqueAndLookupWorks) {
  for (std::size_t m = 0; m < kNumMnemonics; ++m) {
    const auto mnemonic = static_cast<Mnemonic>(m);
    const auto found = mnemonic_by_name(name(mnemonic));
    ASSERT_TRUE(found.has_value()) << name(mnemonic);
    EXPECT_EQ(*found, mnemonic);
  }
  EXPECT_FALSE(mnemonic_by_name("bogus.instr").has_value());
}

TEST(IsaRegs, ParseAbiAndNumeric) {
  EXPECT_EQ(parse_int_reg("zero"), 0u);
  EXPECT_EQ(parse_int_reg("ra"), 1u);
  EXPECT_EQ(parse_int_reg("sp"), 2u);
  EXPECT_EQ(parse_int_reg("a0"), 10u);
  EXPECT_EQ(parse_int_reg("t6"), 31u);
  EXPECT_EQ(parse_int_reg("x13"), 13u);
  EXPECT_EQ(parse_int_reg("fp"), 8u);
  EXPECT_FALSE(parse_int_reg("x32").has_value());
  EXPECT_FALSE(parse_int_reg("fa0").has_value());
  EXPECT_EQ(parse_fp_reg("ft0"), 0u);
  EXPECT_EQ(parse_fp_reg("fa3"), 13u);
  EXPECT_EQ(parse_fp_reg("fs11"), 27u);
  EXPECT_EQ(parse_fp_reg("ft11"), 31u);
  EXPECT_EQ(parse_fp_reg("f5"), 5u);
  EXPECT_FALSE(parse_fp_reg("a0").has_value());
}

TEST(IsaRegs, EveryNameRoundTrips) {
  for (unsigned i = 0; i < kNumIntRegs; ++i) {
    EXPECT_EQ(parse_int_reg(int_reg_name(i)), i) << int_reg_name(i);
    EXPECT_EQ(parse_int_reg("x" + std::to_string(i)), i);
  }
  for (unsigned i = 0; i < kNumFpRegs; ++i) {
    EXPECT_EQ(parse_fp_reg(fp_reg_name(i)), i) << fp_reg_name(i);
    EXPECT_EQ(parse_fp_reg("f" + std::to_string(i)), i);
  }
  for (const char* bad : {"", "x", "f", "zer", "zeros", "t7", "s12", "a8", "s01", "a-1", "sp0",
                          "ft12", "fa8", "fs12", "fs01", "f32", "x32", "ra1", "fp1"}) {
    EXPECT_FALSE(parse_int_reg(bad).has_value()) << bad;
    EXPECT_FALSE(parse_fp_reg(bad).has_value()) << bad;
  }
}

TEST(IsaDisasm, ReadableOutput) {
  EXPECT_EQ(disassemble({Mnemonic::kAddi, 10, 11, 0, 0, 42}), "addi a0, a1, 42");
  EXPECT_EQ(disassemble({Mnemonic::kFmaddD, 14, 12, 11, 14, 0}),
            "fmadd.d fa4, fa2, fa1, fa4");
  EXPECT_EQ(disassemble({Mnemonic::kLw, 10, 2, 0, 0, 16}), "lw a0, 16(sp)");
  EXPECT_EQ(disassemble({Mnemonic::kCopiftBarrier, 0, 0, 0, 0, 0}), "copift.barrier");
}

// --- the shared RV32IM evaluator against the spec ----------------------------
// Compile-time checks: the simulator and rvlint both execute through
// alu_result/branch_taken, so a wrong result here fails the build.

constexpr std::uint32_t kIntMin = 0x8000'0000U;
constexpr std::uint32_t kIntMax = 0x7FFF'FFFFU;
constexpr std::uint32_t kAllOnes = 0xFFFF'FFFFU;  // -1

constexpr std::uint32_t rr(Mnemonic m, std::uint32_t a, std::uint32_t b) {
  return alu_result(m, a, b, 0, 0);
}
constexpr std::uint32_t ri(Mnemonic m, std::uint32_t a, std::int32_t imm) {
  return alu_result(m, a, 0, imm, 0);
}
constexpr std::uint32_t neg(std::uint32_t v) { return 0U - v; }

// Division by zero: the quotient is all ones, the remainder the dividend.
static_assert(rr(Mnemonic::kDiv, 7, 0) == kAllOnes);
static_assert(rr(Mnemonic::kDiv, kIntMin, 0) == kAllOnes);
static_assert(rr(Mnemonic::kDivu, 7, 0) == kAllOnes);
static_assert(rr(Mnemonic::kRem, neg(7), 0) == neg(7));
static_assert(rr(Mnemonic::kRemu, 7, 0) == 7);
// Signed overflow: INT_MIN / -1 = INT_MIN and INT_MIN % -1 = 0; the same
// bits divide as unsigned values in divu/remu.
static_assert(rr(Mnemonic::kDiv, kIntMin, kAllOnes) == kIntMin);
static_assert(rr(Mnemonic::kRem, kIntMin, kAllOnes) == 0);
static_assert(rr(Mnemonic::kDivu, kIntMin, kAllOnes) == 0);
static_assert(rr(Mnemonic::kRemu, kIntMin, kAllOnes) == kIntMin);
// Signed division truncates toward zero; the remainder takes the dividend's sign.
static_assert(rr(Mnemonic::kDiv, neg(7), 2) == neg(3));
static_assert(rr(Mnemonic::kRem, neg(7), 2) == neg(1));
static_assert(rr(Mnemonic::kRem, 7, neg(2)) == 1);

// High words of the 64-bit product, with negative operands: mulh reads both
// signed, mulhsu rs1 signed and rs2 unsigned, mulhu both unsigned.
static_assert(rr(Mnemonic::kMul, neg(3), 5) == neg(15));
static_assert(rr(Mnemonic::kMulh, kAllOnes, kAllOnes) == 0);         // -1 * -1 = 1
static_assert(rr(Mnemonic::kMulh, neg(2), 3) == kAllOnes);           // -6
static_assert(rr(Mnemonic::kMulh, kIntMin, kIntMin) == 0x4000'0000U);  // 2^62
static_assert(rr(Mnemonic::kMulhsu, kAllOnes, kAllOnes) == kAllOnes);  // -(2^32 - 1)
static_assert(rr(Mnemonic::kMulhsu, 2, kAllOnes) == 1);              // 2^33 - 2
static_assert(rr(Mnemonic::kMulhsu, kIntMin, kAllOnes) == kIntMin);  // -2^63 + 2^31
static_assert(rr(Mnemonic::kMulhu, kAllOnes, kAllOnes) == 0xFFFF'FFFEU);
static_assert(rr(Mnemonic::kMulhu, kIntMin, 2) == 1);
static_assert(rr(Mnemonic::kMulh, kIntMin, 2) == kAllOnes);

// Shift amounts use their low five bits: 32 shifts by 0, 33 by 1.
static_assert(rr(Mnemonic::kSll, 1, 32) == 1);
static_assert(rr(Mnemonic::kSll, 1, 33) == 2);
static_assert(rr(Mnemonic::kSrl, kIntMin, 63) == 1);
static_assert(rr(Mnemonic::kSra, kIntMin, 36) == 0xF800'0000U);
static_assert(rr(Mnemonic::kSrl, kIntMin, 36) == 0x0800'0000U);
static_assert(ri(Mnemonic::kSlli, 1, 35) == 8);
static_assert(ri(Mnemonic::kSrai, kIntMin, 31) == kAllOnes);

// slt compares signed, sltu unsigned: they disagree across the sign boundary.
static_assert(rr(Mnemonic::kSlt, kAllOnes, 0) == 1);
static_assert(rr(Mnemonic::kSltu, kAllOnes, 0) == 0);
static_assert(rr(Mnemonic::kSlt, kIntMax, kIntMin) == 0);
static_assert(rr(Mnemonic::kSltu, kIntMax, kIntMin) == 1);
static_assert(ri(Mnemonic::kSlti, kAllOnes, 0) == 1);
static_assert(ri(Mnemonic::kSltiu, kIntMin, -1) == 1);  // the immediate sign-extends to -1
static_assert(ri(Mnemonic::kSltiu, kAllOnes, -1) == 0);

// lui/auipc place the immediate in the upper 20 bits; auipc adds the pc.
static_assert(ri(Mnemonic::kLui, 0, 0x12345) == 0x1234'5000U);
static_assert(alu_result(Mnemonic::kAuipc, 0, 0, 1, 0x100) == 0x1100);

/// Whether `m` is taken on equal operands (5, 5), across the signed
/// boundary (-1 vs 1) and across the unsigned boundary (INT_MAX vs INT_MIN).
constexpr bool taken_on(Mnemonic m, bool equal, bool signed_cross, bool unsigned_cross) {
  return branch_taken(m, 5, 5) == equal && branch_taken(m, kAllOnes, 1) == signed_cross &&
         branch_taken(m, kIntMax, kIntMin) == unsigned_cross;
}
static_assert(taken_on(Mnemonic::kBeq, true, false, false));
static_assert(taken_on(Mnemonic::kBne, false, true, true));
static_assert(taken_on(Mnemonic::kBlt, false, true, false));
static_assert(taken_on(Mnemonic::kBge, true, false, true));
static_assert(taken_on(Mnemonic::kBltu, false, false, true));
static_assert(taken_on(Mnemonic::kBgeu, true, true, false));

}  // namespace
}  // namespace copift::isa
