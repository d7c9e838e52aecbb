#include "rvasm/assembler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/layout.hpp"
#include "fnv1a.hpp"
#include "isa/csr.hpp"
#include "registry_points.hpp"

namespace copift::rvasm {
namespace {

using isa::Mnemonic;

Program asms(const std::string& src) { return assemble(src); }

TEST(Asm, EmptyProgram) {
  const Program p = asms("");
  EXPECT_TRUE(p.text.empty());
  EXPECT_EQ(p.entry, kTextBase);
}

TEST(Asm, SimpleInstructions) {
  const Program p = asms("addi a0, a1, 42\nadd s0, s1, s2\n");
  ASSERT_EQ(p.text.size(), 2u);
  EXPECT_EQ(p.text[0].mnemonic, Mnemonic::kAddi);
  EXPECT_EQ(p.text[0].rd, 10);
  EXPECT_EQ(p.text[0].imm, 42);
  EXPECT_EQ(p.text[1].mnemonic, Mnemonic::kAdd);
}

TEST(Asm, CommentsAndBlankLines) {
  const Program p = asms("# full comment\n\n  addi x1, x0, 1  # trailing\n");
  EXPECT_EQ(p.text.size(), 1u);
}

TEST(Asm, LabelsForwardAndBackward) {
  const Program p = asms(R"(
top:
  addi a0, a0, 1
  beq a0, a1, done
  j top
done:
  ecall
)");
  ASSERT_EQ(p.text.size(), 4u);
  // beq at index 1 -> done at index 3: offset +8
  EXPECT_EQ(p.text[1].imm, 8);
  // j at index 2 -> top at index 0: offset -8
  EXPECT_EQ(p.text[2].mnemonic, Mnemonic::kJal);
  EXPECT_EQ(p.text[2].imm, -8);
  EXPECT_EQ(p.symbol("top"), kTextBase);
  EXPECT_EQ(p.symbol("done"), kTextBase + 12);
}

TEST(Asm, LabelOnSameLineAsCode) {
  const Program p = asms("start: addi a0, a0, 1\n");
  EXPECT_EQ(p.symbol("start"), kTextBase);
  EXPECT_EQ(p.text.size(), 1u);
}

TEST(Asm, LiSmallExpandsToAddi) {
  const Program p = asms("li a0, -7\n");
  ASSERT_EQ(p.text.size(), 1u);
  EXPECT_EQ(p.text[0].mnemonic, Mnemonic::kAddi);
  EXPECT_EQ(p.text[0].imm, -7);
  EXPECT_EQ(p.text[0].rs1, 0);
}

TEST(Asm, LiLargeExpandsToLuiAddi) {
  const Program p = asms("li a0, 0x12345678\n");
  ASSERT_EQ(p.text.size(), 2u);
  EXPECT_EQ(p.text[0].mnemonic, Mnemonic::kLui);
  EXPECT_EQ(p.text[1].mnemonic, Mnemonic::kAddi);
  // Reconstruct the value.
  const std::uint32_t v = (static_cast<std::uint32_t>(p.text[0].imm) << 12) +
                          static_cast<std::uint32_t>(p.text[1].imm);
  EXPECT_EQ(v, 0x12345678u);
}

TEST(Asm, LiNegativeBitPattern) {
  // The low 12 bits are zero, so li expands to a lone lui.
  const Program p = asms("li s0, 0xff800000\n");
  ASSERT_EQ(p.text.size(), 1u);
  EXPECT_EQ(p.text[0].mnemonic, Mnemonic::kLui);
  EXPECT_EQ(static_cast<std::uint32_t>(p.text[0].imm) << 12, 0xff800000u);
}

TEST(Asm, LaResolvesDataSymbol) {
  const Program p = asms(R"(
.data
buf: .space 16
.text
  la a0, buf
)");
  ASSERT_EQ(p.text.size(), 2u);
  const std::uint32_t v = (static_cast<std::uint32_t>(p.text[0].imm) << 12) +
                          static_cast<std::uint32_t>(p.text[1].imm);
  EXPECT_EQ(v, kTcdmBase);
}

TEST(Asm, DataDirectives) {
  const Program p = asms(R"(
.data
w: .word 1, 2, 0xdeadbeef
.align 3
d: .dword 0x0102030405060708
f: .float 1.5
.align 3
dd: .double -2.5
z: .space 3
.align 2
end: .word 9
)");
  EXPECT_EQ(p.symbol("w"), kTcdmBase);
  EXPECT_EQ(p.symbol("d"), kTcdmBase + 16);  // aligned to 8
  const auto at = [&](std::uint32_t addr) { return addr - kTcdmBase; };
  EXPECT_EQ(p.data[at(p.symbol("w"))], 1);
  EXPECT_EQ(p.data[at(p.symbol("w")) + 4], 2);
  std::uint64_t dv = 0;
  for (int i = 7; i >= 0; --i) dv = (dv << 8) | p.data[at(p.symbol("d")) + i];
  EXPECT_EQ(dv, 0x0102030405060708ull);
  std::uint32_t fv = 0;
  for (int i = 3; i >= 0; --i) fv = (fv << 8) | p.data[at(p.symbol("f")) + i];
  EXPECT_EQ(copift::bit_cast<float>(fv), 1.5f);
  std::uint64_t ddv = 0;
  for (int i = 7; i >= 0; --i) ddv = (ddv << 8) | p.data[at(p.symbol("dd")) + i];
  EXPECT_EQ(copift::bit_cast<double>(ddv), -2.5);
  EXPECT_EQ(p.symbol("end") % 4, 0u);
}

TEST(Asm, DwordNegativeDoubleBitPattern) {
  // Regression: 64-bit patterns with the sign bit set must assemble.
  const Program p = asms(".data\nv: .dword 0xbfe0000000000000\n");
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p.data[i];
  EXPECT_EQ(copift::bit_cast<double>(v), -0.5);
}

TEST(Asm, EquArithmetic) {
  const Program p = asms(".equ N, 8\n.equ M, N*4+2\naddi a0, x0, M\n");
  EXPECT_EQ(p.text[0].imm, 34);
}

TEST(Asm, MemOperandWithExpression) {
  const Program p = asms(".equ OFF, 8\nlw a0, OFF+4(sp)\n");
  EXPECT_EQ(p.text[0].imm, 12);
  EXPECT_EQ(p.text[0].rs1, 2);
}

TEST(Asm, HiLoRelocation) {
  const Program p = asms(R"(
.data
.space 0x234
var: .word 0
.text
  lui a0, %hi(var)
  addi a0, a0, %lo(var)
)");
  const std::uint32_t addr = p.symbol("var");
  const std::uint32_t v = (static_cast<std::uint32_t>(p.text[0].imm) << 12) +
                          static_cast<std::uint32_t>(p.text[1].imm);
  EXPECT_EQ(v, addr);
}

TEST(Asm, PseudoInstructions) {
  const Program p = asms(R"(
  nop
  mv a0, a1
  not a2, a3
  neg a4, a5
  seqz a6, a7
  snez t0, t1
  jr ra
  ret
  fmv.d fa0, fa1
  fneg.d fa2, fa3
  fabs.d fa4, fa5
  csrr t0, mcycle
  csrw region, t1
  csrsi ssr, 1
  csrci ssr, 1
)");
  EXPECT_EQ(p.text[0].mnemonic, Mnemonic::kAddi);   // nop
  EXPECT_EQ(p.text[1].mnemonic, Mnemonic::kAddi);   // mv
  EXPECT_EQ(p.text[2].mnemonic, Mnemonic::kXori);   // not
  EXPECT_EQ(p.text[3].mnemonic, Mnemonic::kSub);    // neg
  EXPECT_EQ(p.text[4].mnemonic, Mnemonic::kSltiu);  // seqz
  EXPECT_EQ(p.text[5].mnemonic, Mnemonic::kSltu);   // snez
  EXPECT_EQ(p.text[6].mnemonic, Mnemonic::kJalr);   // jr
  EXPECT_EQ(p.text[7].mnemonic, Mnemonic::kJalr);   // ret
  EXPECT_EQ(p.text[8].mnemonic, Mnemonic::kFsgnjD);
  EXPECT_EQ(p.text[9].mnemonic, Mnemonic::kFsgnjnD);
  EXPECT_EQ(p.text[10].mnemonic, Mnemonic::kFsgnjxD);
  EXPECT_EQ(p.text[11].mnemonic, Mnemonic::kCsrrs);
  EXPECT_EQ(p.text[11].imm, isa::kCsrMcycle);
  EXPECT_EQ(p.text[12].mnemonic, Mnemonic::kCsrrw);
  EXPECT_EQ(p.text[13].mnemonic, Mnemonic::kCsrrsi);
  EXPECT_EQ(p.text[13].imm, isa::kCsrSsr);
  EXPECT_EQ(p.text[14].mnemonic, Mnemonic::kCsrrci);
}

TEST(Asm, BranchPseudos) {
  const Program p = asms(R"(
x:
  beqz a0, x
  bnez a1, x
  bltz a2, x
  bgez a3, x
  bgtz a4, x
  blez a5, x
  bgt a0, a1, x
  ble a0, a1, x
)");
  EXPECT_EQ(p.text[0].mnemonic, Mnemonic::kBeq);
  EXPECT_EQ(p.text[1].mnemonic, Mnemonic::kBne);
  EXPECT_EQ(p.text[2].mnemonic, Mnemonic::kBlt);
  EXPECT_EQ(p.text[3].mnemonic, Mnemonic::kBge);
  EXPECT_EQ(p.text[4].mnemonic, Mnemonic::kBlt);  // swapped operands
  EXPECT_EQ(p.text[4].rs1, 0);
  EXPECT_EQ(p.text[6].mnemonic, Mnemonic::kBlt);
  EXPECT_EQ(p.text[6].rs1, 11);  // bgt swaps
  EXPECT_EQ(p.text[6].rs2, 10);
}

TEST(Asm, CustomExtensions) {
  const Program p = asms(R"(
  frep.o t0, 9
  frep.i t1, 2
  scfgwi a0, 61
  scfgri a1, 5
  dmsrc a2
  dmdst a3
  dmcpy a4, a5
  dmstat a6
  copift.barrier
  fcvt.d.wu.cop fa0, ft0
  flt.d.cop fa1, fa2, fa3
  fcvt.w.d.cop fa4, fa5
  feq.d.cop fa6, fa7, fs0
  fle.d.cop fs1, fs2, fs3
  fclass.d.cop ft1, ft2
)");
  EXPECT_EQ(p.text[0].mnemonic, Mnemonic::kFrepO);
  EXPECT_EQ(p.text[0].rs1, 5);
  EXPECT_EQ(p.text[0].imm, 9);
  EXPECT_EQ(p.text[2].mnemonic, Mnemonic::kScfgwi);
  EXPECT_EQ(p.text[2].imm, 61);
  EXPECT_EQ(p.text[8].mnemonic, Mnemonic::kCopiftBarrier);
  EXPECT_EQ(p.text[9].mnemonic, Mnemonic::kFcvtDWuCop);
  EXPECT_EQ(p.text[10].mnemonic, Mnemonic::kFltDCop);
}

TEST(Asm, DramSection) {
  const Program p = asms(R"(
.section .dram
big: .space 64
.text
  nop
)");
  EXPECT_EQ(p.symbol("big"), kDramBase);
  EXPECT_EQ(p.dram.size(), 64u);
}

TEST(Asm, EntryPointFromStart) {
  const Program p = asms("nop\n_start: ecall\n");
  EXPECT_EQ(p.entry, kTextBase + 4);
}

TEST(AsmErrors, UnknownMnemonic) {
  EXPECT_THROW(asms("frobnicate a0, a1\n"), AsmError);
}

TEST(AsmErrors, BadRegister) {
  EXPECT_THROW(asms("addi q0, a1, 0\n"), AsmError);
  EXPECT_THROW(asms("fadd.d a0, fa1, fa2\n"), AsmError);
}

TEST(AsmErrors, ImmediateOutOfRange) {
  EXPECT_THROW(asms("addi a0, a1, 5000\n"), AsmError);
  EXPECT_THROW(asms("slli a0, a1, 32\n"), AsmError);
}

TEST(AsmErrors, UndefinedSymbol) {
  EXPECT_THROW(asms("j nowhere\n"), AsmError);
}

TEST(AsmErrors, RedefinedLabel) {
  EXPECT_THROW(asms("x: nop\nx: nop\n"), AsmError);
}

TEST(AsmErrors, WrongOperandCount) {
  EXPECT_THROW(asms("add a0, a1\n"), AsmError);
  EXPECT_THROW(asms("ecall a0\n"), AsmError);
}

TEST(AsmErrors, LiWithLabelRejected) {
  EXPECT_THROW(asms("li a0, lbl\nlbl: nop\n"), AsmError);
}

TEST(AsmErrors, InstructionInDataSection) {
  EXPECT_THROW(asms(".data\naddi a0, a0, 1\n"), AsmError);
}

/// The line the AsmError for `src` names; fails the test when `src`
/// assembles (any other exception escapes and fails it too).
unsigned error_line(const std::string& src) {
  try {
    (void)assemble(src);
  } catch (const AsmError& e) {
    return e.line();
  }
  ADD_FAILURE() << "assembled without error:\n" << src;
  return 0;
}

TEST(AsmErrors, AlignArgumentOutsideZeroTo31) {
  EXPECT_EQ(error_line(".data\nx: .word 1\n.align 40\n"), 3u);
  EXPECT_EQ(error_line(".data\nx: .word 1\n.align -1\n"), 3u);
  EXPECT_EQ(error_line(".data\n.p2align 32\n"), 2u);
  EXPECT_EQ(error_line(".text\n.align 40\n"), 2u);
  EXPECT_NO_THROW(asms(".data\n.align 31\n"));  // already aligned: no padding
}

TEST(AsmErrors, DataPastItsMemoryFailsBeforeGrowing) {
  // .align 30 would pad 1 GiB into a 128 KiB TCDM.
  EXPECT_EQ(error_line(".data\nx: .word 1\n.align 30\n"), 3u);
  EXPECT_EQ(error_line(".section .dram\n.word 1\n.align 26\n"), 3u);
  EXPECT_EQ(error_line(".data\n.space 131073\n"), 2u);
  EXPECT_EQ(error_line(".data\n.space 0x7fffffffffffffff\n"), 2u);
  EXPECT_EQ(error_line(".data\n.space 131072\n.word 0\n"), 3u);
  EXPECT_EQ(error_line(".data\n.space 131068\n.dword 0\n"), 3u);
  EXPECT_EQ(error_line(".data\n.space 131068\n.double 1.0\n"), 3u);
  EXPECT_EQ(error_line(".section .dram\n.space 33554433\n"), 2u);
  EXPECT_EQ(asms(".data\n.space 131072\n").data.size(), kTcdmSize);  // exactly full is fine
}

TEST(AsmErrors, NegativeSpace) {
  EXPECT_EQ(error_line(".data\n.space -1\n"), 2u);
  EXPECT_EQ(error_line(".data\nx: .word 0\n.zero 2-10\n"), 3u);
}

TEST(AsmErrors, ExpressionArithmeticWrapsInSixtyFourBits) {
  // Overflowing sums, products and negations wrap instead of being signed
  // overflow; values that do not overflow are unchanged.
  const Program p = asms(
      "li a0, 0x7fffffffffffffff*4\n"
      "li a1, 0x7fffffffffffffff+1\n"
      "li a2, -0x8000000000000000\n"
      "li a3, 3*-7+100\n");
  EXPECT_EQ(p.text[0].mnemonic, Mnemonic::kAddi);
  EXPECT_EQ(p.text[0].imm, -4);  // 0xfff...fc
  EXPECT_EQ(p.text[1].mnemonic, Mnemonic::kLui);  // low 32 bits are 0: lui 0, no addi
  EXPECT_EQ(p.text[1].imm, 0);
  EXPECT_EQ(p.text[2].mnemonic, Mnemonic::kLui);
  EXPECT_EQ(p.text[3].imm, 79);
}

TEST(AsmErrors, FloatDirectivesConsumeTheWholeNumber) {
  EXPECT_EQ(error_line(".data\n.double abc\n"), 2u);
  EXPECT_EQ(error_line(".data\n.double 1.0q\n"), 2u);
  EXPECT_EQ(error_line(".data\n.double 1e999\n"), 2u);
  EXPECT_EQ(error_line(".data\nx: .word 0\n.float 2.5, -1e999\n"), 3u);
  EXPECT_EQ(error_line(".data\n.double 1.0,\n"), 2u);
  EXPECT_EQ(error_line(".double 1.0\n"), 1u);  // outside a data section
  // .float still rounds the parsed double to float.
  const Program p = asms(".data\n.float 0.1\n");
  std::uint32_t bits = 0;
  for (int i = 3; i >= 0; --i) bits = (bits << 8) | p.data[i];
  EXPECT_EQ(bits, copift::bit_cast<std::uint32_t>(static_cast<float>(0.1)));
}

TEST(AsmErrors, MalformedNumbers) {
  EXPECT_EQ(error_line("addi a0, a0, 0x\n"), 1u);
  EXPECT_EQ(error_line("addi a0, a0, 12ab\n"), 1u);
  EXPECT_EQ(error_line("li a0, 99999999999999999999\n"), 1u);  // above 2^64
}

TEST(AsmProgram, TextIndexChecks) {
  const Program p = asms("nop\nnop\n");
  EXPECT_EQ(p.text_index(kTextBase + 4), 1u);
  EXPECT_THROW((void)p.text_index(kTextBase + 8), Error);
  EXPECT_THROW((void)p.text_index(kTextBase + 2), Error);
}

// --- Pinned program images ----------------------------------------------------

using testing::Fnv1a;

std::uint64_t source_hash(const std::string& source) {
  Fnv1a h;
  h.bytes(source.data(), source.size());
  return h.value();
}

std::uint64_t image_hash(const Program& p) {
  Fnv1a h;
  h.u32(static_cast<std::uint32_t>(p.text_words.size()));
  for (const auto w : p.text_words) h.u32(w);
  for (const auto line : p.text_lines) h.u32(line);
  for (const auto& i : p.text) {
    h.u32(static_cast<std::uint32_t>(i.mnemonic));
    const unsigned char regs[4] = {i.rd, i.rs1, i.rs2, i.rs3};
    h.bytes(regs, sizeof(regs));
    h.u32(static_cast<std::uint32_t>(i.imm));
  }
  h.u32(static_cast<std::uint32_t>(p.data.size()));
  h.bytes(p.data.data(), p.data.size());
  h.u32(static_cast<std::uint32_t>(p.dram.size()));
  h.bytes(p.dram.data(), p.dram.size());
  for (const auto& [name, value] : p.symbols) {
    h.bytes(name.data(), name.size() + 1);  // with the terminating NUL
    h.u32(value);
  }
  h.u32(p.entry);
  return h.value();
}

struct PinnedImage {
  std::string_view point;
  std::uint64_t source;  // FNV-1a 64 of the generated assembly text
  std::uint64_t image;   // image_hash of the assembled Program
};

// Captured before codegen moved off std::ostringstream and the assembler off
// shared_ptr expression trees. A changed image hash changes what simulations
// run: update a row only when a program is meant to change. A source hash
// also moves when only a comment line of the generated text changes; show
// such a change is comment-only before re-pinning it.
constexpr PinnedImage kPinnedImages[] = {
    {"axpy/copift n=64 block=32 cores=1 tile=0", 0x5ffbd91fd224df87ULL, 0x1f359eef8310460aULL},
    {"axpy/copift n=64 block=32 cores=4 tile=0", 0x88a3aaf8eaa88929ULL, 0xc66451ed40f54885ULL},
    {"axpy/copift n=65536 block=32 cores=2 tile=1024", 0x3e86b086133f1425ULL, 0x1ffdcf3f8fab05b5ULL},
    {"axpy/baseline n=64 block=32 cores=1 tile=0", 0xbd92ffc23f1fe3a9ULL, 0x6d9d1cb6e73bad4dULL},
    {"axpy/baseline n=64 block=32 cores=4 tile=0", 0x23b3d9e0dabfdc3cULL, 0x2b25adb6be9dffe4ULL},
    {"axpy/baseline n=65536 block=32 cores=2 tile=1024", 0xeefe1a14e16c9f29ULL, 0xc1ec86b195a2ea38ULL},
    {"exp/copift n=64 block=16 cores=1 tile=0", 0x3f226488e4b7155eULL, 0x7a44cd5df85401e4ULL},
    {"exp/copift n=64 block=4 cores=4 tile=0", 0x5bd28cd33b3bafe0ULL, 0x754e0741141651b5ULL},
    {"exp/copift n=65536 block=64 cores=2 tile=1024", 0xb39e36ff528a0440ULL, 0x0124ec3f7be3e818ULL},
    {"exp/baseline n=64 block=96 cores=1 tile=0", 0x1608eb2bc5eec537ULL, 0xf673fa551ae1353cULL},
    {"exp/baseline n=64 block=96 cores=4 tile=0", 0x0253db8c63d339c4ULL, 0xbbbcf23404f2d7e5ULL},
    {"exp/baseline n=65536 block=96 cores=2 tile=1024", 0xcbb66c4edff7a1cbULL, 0x270314ff5c7be541ULL},
    {"log/copift n=64 block=16 cores=1 tile=0", 0xfd86987e5d90dae3ULL, 0x35e4cf87004de81cULL},
    {"log/copift n=64 block=4 cores=4 tile=0", 0x9331722302016197ULL, 0x16e38499180a47d7ULL},
    {"log/baseline n=64 block=96 cores=1 tile=0", 0x77b581481a04185eULL, 0x83d8ff5631650e61ULL},
    {"log/baseline n=64 block=96 cores=4 tile=0", 0x989bc35219910f3bULL, 0x3c02bda732ecdeacULL},
    {"pi_lcg/copift n=64 block=16 cores=1 tile=0", 0x213a98ef23c5dd55ULL, 0x5a580d06cbf1c39aULL},
    {"pi_lcg/copift n=64 block=8 cores=4 tile=0", 0x3454fa690e758678ULL, 0x46f10030a8a66944ULL},
    {"pi_lcg/baseline n=64 block=96 cores=1 tile=0", 0x9ca0eaef1292569dULL, 0x4e841a5f9270f196ULL},
    {"pi_lcg/baseline n=64 block=96 cores=4 tile=0", 0x66b5649395ff1824ULL, 0xe6a13ed6cca94828ULL},
    {"pi_xoshiro128p/copift n=64 block=16 cores=1 tile=0", 0x4f9022cbaf11f0d0ULL, 0xd58e4ba7381ec290ULL},
    {"pi_xoshiro128p/copift n=64 block=8 cores=4 tile=0", 0x32db998b3d31e7adULL, 0x7ab4ab3aed14c6f2ULL},
    {"pi_xoshiro128p/baseline n=64 block=96 cores=1 tile=0", 0x2975a1455bf3cc14ULL, 0x89a61f33109b8698ULL},
    {"pi_xoshiro128p/baseline n=64 block=96 cores=4 tile=0", 0xec332344d9127ed5ULL, 0x0067f07432816f8bULL},
    {"poly_lcg/copift n=64 block=16 cores=1 tile=0", 0xc379d9b6f5aafaf7ULL, 0xb6f5122f7f23e5d8ULL},
    {"poly_lcg/copift n=64 block=8 cores=4 tile=0", 0x923007a6138b124cULL, 0x37defc29000c20f9ULL},
    {"poly_lcg/baseline n=64 block=96 cores=1 tile=0", 0x47cef0324bd0098dULL, 0x247e45b0c44e0624ULL},
    {"poly_lcg/baseline n=64 block=96 cores=4 tile=0", 0xd25dafc6f5b9a954ULL, 0xe80531775d8e7f73ULL},
    {"poly_xoshiro128p/copift n=64 block=16 cores=1 tile=0", 0x18771245c08b8a96ULL, 0x884000fecd596ac8ULL},
    {"poly_xoshiro128p/copift n=64 block=8 cores=4 tile=0", 0x1d26ed26cabeb055ULL, 0x0ad761aad2f6226dULL},
    {"poly_xoshiro128p/baseline n=64 block=96 cores=1 tile=0", 0x7d02c88fc3db38f8ULL, 0x288ce3cdf7af398eULL},
    {"poly_xoshiro128p/baseline n=64 block=96 cores=4 tile=0", 0x142852ee0d8e3dbdULL, 0x6284d2829377bb38ULL},
    {"softmax/baseline n=64 block=32 cores=1 tile=0", 0x907df87a752ee874ULL, 0xb1b707213671708eULL},
};

TEST(AsmImages, EveryRegistryProgramImageIsPinned) {
  std::set<std::string_view> matched;
  for (const auto& point : testing::registry_points()) {
    const std::string source = point.source();
    const std::uint64_t src = source_hash(source);
    const std::uint64_t img = image_hash(assemble(source));
    char row[160];
    std::snprintf(row, sizeof(row), "{\"%s\", 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL},",
                  point.label.c_str(), src, img);
    const auto* pin = std::find_if(std::begin(kPinnedImages), std::end(kPinnedImages),
                                   [&](const PinnedImage& p) { return p.point == point.label; });
    if (pin == std::end(kPinnedImages)) {
      ADD_FAILURE() << "registry program without a pinned row: " << row;
      continue;
    }
    matched.insert(pin->point);
    EXPECT_EQ(src, pin->source) << "generated source changed: " << row;
    EXPECT_EQ(img, pin->image) << "assembled image changed: " << row;
  }
  EXPECT_EQ(matched.size(), std::size(kPinnedImages)) << "pinned rows with no registry program";
}

}  // namespace
}  // namespace copift::rvasm
