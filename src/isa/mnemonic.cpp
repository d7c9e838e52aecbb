#include "isa/mnemonic.hpp"

#include <array>

namespace copift::isa {

namespace {

// Opcode constants (RISC-V unprivileged spec, table 24.1).
constexpr std::uint32_t kLoad = 0x03, kLoadFp = 0x07, kMiscMem = 0x0F;
constexpr std::uint32_t kOpImm = 0x13, kAuipcOp = 0x17, kStoreOp = 0x23;
constexpr std::uint32_t kStoreFp = 0x27, kOp = 0x33, kLuiOp = 0x37;
constexpr std::uint32_t kMadd = 0x43, kMsub = 0x47, kNmsub = 0x4B, kNmadd = 0x4F;
constexpr std::uint32_t kOpFp = 0x53, kBranchOp = 0x63, kJalrOp = 0x67;
constexpr std::uint32_t kJalOp = 0x6F, kSystem = 0x73;
constexpr std::uint32_t kCustom0 = 0x0B;  // Xfrep
constexpr std::uint32_t kCustom1 = 0x2B;  // Xcopift (paper Section II-B)
constexpr std::uint32_t kCustom2 = 0x5B;  // Xssr + Xdma

struct Enc {
  std::uint32_t match;
  std::uint32_t mask;
};

constexpr Enc op(std::uint32_t opcode) { return {opcode, 0x7F}; }
constexpr Enc f3(Enc e, std::uint32_t v) { return {e.match | (v << 12), e.mask | 0x7000}; }
constexpr Enc f7(Enc e, std::uint32_t v) { return {e.match | (v << 25), e.mask | 0xFE000000}; }
constexpr Enc rs2f(Enc e, std::uint32_t v) { return {e.match | (v << 20), e.mask | 0x01F00000}; }
constexpr Enc fmt2(Enc e, std::uint32_t v) { return {e.match | (v << 25), e.mask | 0x06000000}; }
constexpr Enc whole(std::uint32_t w) { return {w, 0xFFFFFFFF}; }

constexpr RegClass N = RegClass::kNone;
constexpr RegClass I = RegClass::kInt;
constexpr RegClass F = RegClass::kFp;

constexpr InstrInfo mk(std::string_view nm, Format fmt, ExecUnit u, FpuClass fc,
                       RegClass rd, RegClass rs1, RegClass rs2, RegClass rs3,
                       Enc e, bool xcop = false) {
  InstrInfo x{};
  x.name = nm;
  x.format = fmt;
  x.unit = u;
  x.fpu_class = fc;
  x.rd_class = rd;
  x.rs1_class = rs1;
  x.rs2_class = rs2;
  x.rs3_class = rs3;
  x.xcopift = xcop;
  x.match = e.match;
  x.mask = e.mask;
  return x;
}

// Shorthand builders per recurring shape.
constexpr InstrInfo alu_r(std::string_view nm, std::uint32_t funct3, std::uint32_t funct7,
                          ExecUnit u = ExecUnit::kIntAlu) {
  return mk(nm, Format::kR, u, FpuClass::kNone, I, I, I, N, f7(f3(op(kOp), funct3), funct7));
}
constexpr InstrInfo alu_i(std::string_view nm, std::uint32_t funct3) {
  return mk(nm, Format::kI, ExecUnit::kIntAlu, FpuClass::kNone, I, I, N, N, f3(op(kOpImm), funct3));
}
constexpr InstrInfo shift_i(std::string_view nm, std::uint32_t funct3, std::uint32_t funct7) {
  return mk(nm, Format::kIShift, ExecUnit::kIntAlu, FpuClass::kNone, I, I, N, N,
            f7(f3(op(kOpImm), funct3), funct7));
}
constexpr InstrInfo load_i(std::string_view nm, std::uint32_t funct3) {
  return mk(nm, Format::kILoad, ExecUnit::kLoad, FpuClass::kNone, I, I, N, N, f3(op(kLoad), funct3));
}
constexpr InstrInfo store_i(std::string_view nm, std::uint32_t funct3) {
  return mk(nm, Format::kS, ExecUnit::kStore, FpuClass::kNone, N, I, I, N, f3(op(kStoreOp), funct3));
}
constexpr InstrInfo branch(std::string_view nm, std::uint32_t funct3) {
  return mk(nm, Format::kB, ExecUnit::kBranch, FpuClass::kNone, N, I, I, N,
            f3(op(kBranchOp), funct3));
}
constexpr InstrInfo csr_r(std::string_view nm, std::uint32_t funct3) {
  return mk(nm, Format::kICsr, ExecUnit::kCsr, FpuClass::kNone, I, I, N, N,
            f3(op(kSystem), funct3));
}
constexpr InstrInfo csr_i(std::string_view nm, std::uint32_t funct3) {
  return mk(nm, Format::kICsrImm, ExecUnit::kCsr, FpuClass::kNone, I, N, N, N,
            f3(op(kSystem), funct3));
}
constexpr InstrInfo fma(std::string_view nm, std::uint32_t opcode, std::uint32_t fmt) {
  return mk(nm, Format::kR4, ExecUnit::kFpu, FpuClass::kFma, F, F, F, F, fmt2(op(opcode), fmt));
}
constexpr InstrInfo fp_rr(std::string_view nm, std::uint32_t funct7, FpuClass fc) {
  return mk(nm, Format::kRFpRm, ExecUnit::kFpu, fc, F, F, F, N, f7(op(kOpFp), funct7));
}
constexpr InstrInfo fp_sgnj(std::string_view nm, std::uint32_t funct7, std::uint32_t funct3,
                            FpuClass fc) {
  return mk(nm, Format::kR, ExecUnit::kFpu, fc, F, F, F, N, f7(f3(op(kOpFp), funct3), funct7));
}
constexpr InstrInfo fp_cmp(std::string_view nm, std::uint32_t funct7, std::uint32_t funct3) {
  return mk(nm, Format::kR, ExecUnit::kFpu, FpuClass::kCmp, I, F, F, N,
            f7(f3(op(kOpFp), funct3), funct7));
}
constexpr InstrInfo fp_cvt(std::string_view nm, std::uint32_t funct7, std::uint32_t rs2field,
                           RegClass rd, RegClass rs1) {
  return mk(nm, Format::kRFp1Rm, ExecUnit::kFpu, FpuClass::kCvt, rd, rs1, N, N,
            rs2f(f7(op(kOpFp), funct7), rs2field));
}

constexpr std::array<InstrInfo, kNumMnemonics> build_table() {
  std::array<InstrInfo, kNumMnemonics> t{};
  auto set = [&t](Mnemonic m, InstrInfo x) { t[static_cast<std::size_t>(m)] = x; };

  // ---- RV32I ----
  set(Mnemonic::kLui, mk("lui", Format::kU, ExecUnit::kIntAlu, FpuClass::kNone, I, N, N, N, op(kLuiOp)));
  set(Mnemonic::kAuipc, mk("auipc", Format::kU, ExecUnit::kIntAlu, FpuClass::kNone, I, N, N, N, op(kAuipcOp)));
  set(Mnemonic::kJal, mk("jal", Format::kJ, ExecUnit::kJump, FpuClass::kNone, I, N, N, N, op(kJalOp)));
  set(Mnemonic::kJalr, mk("jalr", Format::kI, ExecUnit::kJump, FpuClass::kNone, I, I, N, N, f3(op(kJalrOp), 0)));
  set(Mnemonic::kBeq, branch("beq", 0b000));
  set(Mnemonic::kBne, branch("bne", 0b001));
  set(Mnemonic::kBlt, branch("blt", 0b100));
  set(Mnemonic::kBge, branch("bge", 0b101));
  set(Mnemonic::kBltu, branch("bltu", 0b110));
  set(Mnemonic::kBgeu, branch("bgeu", 0b111));
  set(Mnemonic::kLb, load_i("lb", 0b000));
  set(Mnemonic::kLh, load_i("lh", 0b001));
  set(Mnemonic::kLw, load_i("lw", 0b010));
  set(Mnemonic::kLbu, load_i("lbu", 0b100));
  set(Mnemonic::kLhu, load_i("lhu", 0b101));
  set(Mnemonic::kSb, store_i("sb", 0b000));
  set(Mnemonic::kSh, store_i("sh", 0b001));
  set(Mnemonic::kSw, store_i("sw", 0b010));
  set(Mnemonic::kAddi, alu_i("addi", 0b000));
  set(Mnemonic::kSlti, alu_i("slti", 0b010));
  set(Mnemonic::kSltiu, alu_i("sltiu", 0b011));
  set(Mnemonic::kXori, alu_i("xori", 0b100));
  set(Mnemonic::kOri, alu_i("ori", 0b110));
  set(Mnemonic::kAndi, alu_i("andi", 0b111));
  set(Mnemonic::kSlli, shift_i("slli", 0b001, 0b0000000));
  set(Mnemonic::kSrli, shift_i("srli", 0b101, 0b0000000));
  set(Mnemonic::kSrai, shift_i("srai", 0b101, 0b0100000));
  set(Mnemonic::kAdd, alu_r("add", 0b000, 0b0000000));
  set(Mnemonic::kSub, alu_r("sub", 0b000, 0b0100000));
  set(Mnemonic::kSll, alu_r("sll", 0b001, 0b0000000));
  set(Mnemonic::kSlt, alu_r("slt", 0b010, 0b0000000));
  set(Mnemonic::kSltu, alu_r("sltu", 0b011, 0b0000000));
  set(Mnemonic::kXor, alu_r("xor", 0b100, 0b0000000));
  set(Mnemonic::kSrl, alu_r("srl", 0b101, 0b0000000));
  set(Mnemonic::kSra, alu_r("sra", 0b101, 0b0100000));
  set(Mnemonic::kOr, alu_r("or", 0b110, 0b0000000));
  set(Mnemonic::kAnd, alu_r("and", 0b111, 0b0000000));
  set(Mnemonic::kFence, mk("fence", Format::kFixed, ExecUnit::kSys, FpuClass::kNone, N, N, N, N,
                           Enc{kMiscMem, 0x0000707F}));
  set(Mnemonic::kEcall, mk("ecall", Format::kFixed, ExecUnit::kSys, FpuClass::kNone, N, N, N, N,
                           whole(0x00000073)));
  set(Mnemonic::kEbreak, mk("ebreak", Format::kFixed, ExecUnit::kSys, FpuClass::kNone, N, N, N, N,
                            whole(0x00100073)));
  // ---- Zicsr ----
  set(Mnemonic::kCsrrw, csr_r("csrrw", 0b001));
  set(Mnemonic::kCsrrs, csr_r("csrrs", 0b010));
  set(Mnemonic::kCsrrc, csr_r("csrrc", 0b011));
  set(Mnemonic::kCsrrwi, csr_i("csrrwi", 0b101));
  set(Mnemonic::kCsrrsi, csr_i("csrrsi", 0b110));
  set(Mnemonic::kCsrrci, csr_i("csrrci", 0b111));
  // ---- M ----
  set(Mnemonic::kMul, alu_r("mul", 0b000, 0b0000001, ExecUnit::kMul));
  set(Mnemonic::kMulh, alu_r("mulh", 0b001, 0b0000001, ExecUnit::kMul));
  set(Mnemonic::kMulhsu, alu_r("mulhsu", 0b010, 0b0000001, ExecUnit::kMul));
  set(Mnemonic::kMulhu, alu_r("mulhu", 0b011, 0b0000001, ExecUnit::kMul));
  set(Mnemonic::kDiv, alu_r("div", 0b100, 0b0000001, ExecUnit::kDiv));
  set(Mnemonic::kDivu, alu_r("divu", 0b101, 0b0000001, ExecUnit::kDiv));
  set(Mnemonic::kRem, alu_r("rem", 0b110, 0b0000001, ExecUnit::kDiv));
  set(Mnemonic::kRemu, alu_r("remu", 0b111, 0b0000001, ExecUnit::kDiv));
  // ---- F ----
  set(Mnemonic::kFlw, mk("flw", Format::kILoad, ExecUnit::kFpLoad, FpuClass::kNone, F, I, N, N,
                         f3(op(kLoadFp), 0b010)));
  set(Mnemonic::kFsw, mk("fsw", Format::kS, ExecUnit::kFpStore, FpuClass::kNone, N, I, F, N,
                         f3(op(kStoreFp), 0b010)));
  set(Mnemonic::kFmaddS, fma("fmadd.s", kMadd, 0b00));
  set(Mnemonic::kFmsubS, fma("fmsub.s", kMsub, 0b00));
  set(Mnemonic::kFnmsubS, fma("fnmsub.s", kNmsub, 0b00));
  set(Mnemonic::kFnmaddS, fma("fnmadd.s", kNmadd, 0b00));
  set(Mnemonic::kFaddS, fp_rr("fadd.s", 0b0000000, FpuClass::kAdd));
  set(Mnemonic::kFsubS, fp_rr("fsub.s", 0b0000100, FpuClass::kAdd));
  set(Mnemonic::kFmulS, fp_rr("fmul.s", 0b0001000, FpuClass::kMul));
  set(Mnemonic::kFdivS, fp_rr("fdiv.s", 0b0001100, FpuClass::kDivSqrt));
  set(Mnemonic::kFsqrtS, fp_cvt("fsqrt.s", 0b0101100, 0b00000, F, F));
  set(Mnemonic::kFsgnjS, fp_sgnj("fsgnj.s", 0b0010000, 0b000, FpuClass::kMove));
  set(Mnemonic::kFsgnjnS, fp_sgnj("fsgnjn.s", 0b0010000, 0b001, FpuClass::kMove));
  set(Mnemonic::kFsgnjxS, fp_sgnj("fsgnjx.s", 0b0010000, 0b010, FpuClass::kMove));
  set(Mnemonic::kFminS, fp_sgnj("fmin.s", 0b0010100, 0b000, FpuClass::kMinMax));
  set(Mnemonic::kFmaxS, fp_sgnj("fmax.s", 0b0010100, 0b001, FpuClass::kMinMax));
  set(Mnemonic::kFcvtWS, fp_cvt("fcvt.w.s", 0b1100000, 0b00000, I, F));
  set(Mnemonic::kFcvtWuS, fp_cvt("fcvt.wu.s", 0b1100000, 0b00001, I, F));
  set(Mnemonic::kFmvXW, mk("fmv.x.w", Format::kRFp1, ExecUnit::kFpu, FpuClass::kMove, I, F, N, N,
                           rs2f(f7(f3(op(kOpFp), 0b000), 0b1110000), 0)));
  set(Mnemonic::kFeqS, fp_cmp("feq.s", 0b1010000, 0b010));
  set(Mnemonic::kFltS, fp_cmp("flt.s", 0b1010000, 0b001));
  set(Mnemonic::kFleS, fp_cmp("fle.s", 0b1010000, 0b000));
  set(Mnemonic::kFclassS, mk("fclass.s", Format::kRFp1, ExecUnit::kFpu, FpuClass::kClass, I, F, N, N,
                             rs2f(f7(f3(op(kOpFp), 0b001), 0b1110000), 0)));
  set(Mnemonic::kFcvtSW, fp_cvt("fcvt.s.w", 0b1101000, 0b00000, F, I));
  set(Mnemonic::kFcvtSWu, fp_cvt("fcvt.s.wu", 0b1101000, 0b00001, F, I));
  set(Mnemonic::kFmvWX, mk("fmv.w.x", Format::kRFp1, ExecUnit::kFpu, FpuClass::kMove, F, I, N, N,
                           rs2f(f7(f3(op(kOpFp), 0b000), 0b1111000), 0)));
  // ---- D ----
  set(Mnemonic::kFld, mk("fld", Format::kILoad, ExecUnit::kFpLoad, FpuClass::kNone, F, I, N, N,
                         f3(op(kLoadFp), 0b011)));
  set(Mnemonic::kFsd, mk("fsd", Format::kS, ExecUnit::kFpStore, FpuClass::kNone, N, I, F, N,
                         f3(op(kStoreFp), 0b011)));
  set(Mnemonic::kFmaddD, fma("fmadd.d", kMadd, 0b01));
  set(Mnemonic::kFmsubD, fma("fmsub.d", kMsub, 0b01));
  set(Mnemonic::kFnmsubD, fma("fnmsub.d", kNmsub, 0b01));
  set(Mnemonic::kFnmaddD, fma("fnmadd.d", kNmadd, 0b01));
  set(Mnemonic::kFaddD, fp_rr("fadd.d", 0b0000001, FpuClass::kAdd));
  set(Mnemonic::kFsubD, fp_rr("fsub.d", 0b0000101, FpuClass::kAdd));
  set(Mnemonic::kFmulD, fp_rr("fmul.d", 0b0001001, FpuClass::kMul));
  set(Mnemonic::kFdivD, fp_rr("fdiv.d", 0b0001101, FpuClass::kDivSqrt));
  set(Mnemonic::kFsqrtD, fp_cvt("fsqrt.d", 0b0101101, 0b00000, F, F));
  set(Mnemonic::kFsgnjD, fp_sgnj("fsgnj.d", 0b0010001, 0b000, FpuClass::kMove));
  set(Mnemonic::kFsgnjnD, fp_sgnj("fsgnjn.d", 0b0010001, 0b001, FpuClass::kMove));
  set(Mnemonic::kFsgnjxD, fp_sgnj("fsgnjx.d", 0b0010001, 0b010, FpuClass::kMove));
  set(Mnemonic::kFminD, fp_sgnj("fmin.d", 0b0010101, 0b000, FpuClass::kMinMax));
  set(Mnemonic::kFmaxD, fp_sgnj("fmax.d", 0b0010101, 0b001, FpuClass::kMinMax));
  set(Mnemonic::kFcvtSD, fp_cvt("fcvt.s.d", 0b0100000, 0b00001, F, F));
  set(Mnemonic::kFcvtDS, fp_cvt("fcvt.d.s", 0b0100001, 0b00000, F, F));
  set(Mnemonic::kFeqD, fp_cmp("feq.d", 0b1010001, 0b010));
  set(Mnemonic::kFltD, fp_cmp("flt.d", 0b1010001, 0b001));
  set(Mnemonic::kFleD, fp_cmp("fle.d", 0b1010001, 0b000));
  set(Mnemonic::kFclassD, mk("fclass.d", Format::kRFp1, ExecUnit::kFpu, FpuClass::kClass, I, F, N, N,
                             rs2f(f7(f3(op(kOpFp), 0b001), 0b1110001), 0)));
  set(Mnemonic::kFcvtWD, fp_cvt("fcvt.w.d", 0b1100001, 0b00000, I, F));
  set(Mnemonic::kFcvtWuD, fp_cvt("fcvt.wu.d", 0b1100001, 0b00001, I, F));
  set(Mnemonic::kFcvtDW, fp_cvt("fcvt.d.w", 0b1101001, 0b00000, F, I));
  set(Mnemonic::kFcvtDWu, fp_cvt("fcvt.d.wu", 0b1101001, 0b00001, F, I));
  // ---- Xfrep ----
  set(Mnemonic::kFrepO, mk("frep.o", Format::kRs1Imm, ExecUnit::kFrep, FpuClass::kNone, N, I, N, N,
                           f3(op(kCustom0), 0b001)));
  set(Mnemonic::kFrepI, mk("frep.i", Format::kRs1Imm, ExecUnit::kFrep, FpuClass::kNone, N, I, N, N,
                           f3(op(kCustom0), 0b000)));
  // ---- Xssr ----
  set(Mnemonic::kScfgwi, mk("scfgwi", Format::kRs1Imm, ExecUnit::kSsrCfg, FpuClass::kNone, N, I, N, N,
                            f3(op(kCustom2), 0b010)));
  set(Mnemonic::kScfgri, mk("scfgri", Format::kRdImm, ExecUnit::kSsrCfg, FpuClass::kNone, I, N, N, N,
                            f3(op(kCustom2), 0b001)));
  // ---- Xdma ----
  set(Mnemonic::kDmsrc, mk("dmsrc", Format::kRs1Only, ExecUnit::kDma, FpuClass::kNone, N, I, N, N,
                           f3(op(kCustom2), 0b100)));
  set(Mnemonic::kDmdst, mk("dmdst", Format::kRs1Only, ExecUnit::kDma, FpuClass::kNone, N, I, N, N,
                           f3(op(kCustom2), 0b101)));
  set(Mnemonic::kDmcpy, mk("dmcpy", Format::kRdRs1, ExecUnit::kDma, FpuClass::kNone, I, I, N, N,
                           f3(op(kCustom2), 0b110)));
  set(Mnemonic::kDmstat, mk("dmstat", Format::kRdOnly, ExecUnit::kDma, FpuClass::kNone, I, N, N, N,
                            f3(op(kCustom2), 0b111)));
  // dmwait blocks the issue slot until the DMA queue drains — the hardware
  // equivalent of the dmstat/bnez poll loop without spending issue slots on
  // polling (funct3=000 is the one free slot in the custom-2 Xssr/Xdma space).
  set(Mnemonic::kDmwait, mk("dmwait", Format::kFixed, ExecUnit::kDma, FpuClass::kNone, N, N, N, N,
                            whole(kCustom2)));
  // ---- Xcopift: copies of the "D" encodings in custom-1, all-FP operands.
  auto cop_cvt = [](std::string_view nm, std::uint32_t funct7, std::uint32_t rs2field) {
    return mk(nm, Format::kRFp1Rm, ExecUnit::kFpu, FpuClass::kCvt, F, F, N, N,
              rs2f(f7(op(kCustom1), funct7), rs2field), /*xcop=*/true);
  };
  auto cop_cmp = [](std::string_view nm, std::uint32_t funct3) {
    return mk(nm, Format::kR, ExecUnit::kFpu, FpuClass::kCmp, F, F, F, N,
              f7(f3(op(kCustom1), funct3), 0b1010001), /*xcop=*/true);
  };
  set(Mnemonic::kFcvtWDCop, cop_cvt("fcvt.w.d.cop", 0b1100001, 0b00000));
  set(Mnemonic::kFcvtWuDCop, cop_cvt("fcvt.wu.d.cop", 0b1100001, 0b00001));
  set(Mnemonic::kFcvtDWCop, cop_cvt("fcvt.d.w.cop", 0b1101001, 0b00000));
  set(Mnemonic::kFcvtDWuCop, cop_cvt("fcvt.d.wu.cop", 0b1101001, 0b00001));
  set(Mnemonic::kFeqDCop, cop_cmp("feq.d.cop", 0b010));
  set(Mnemonic::kFltDCop, cop_cmp("flt.d.cop", 0b001));
  set(Mnemonic::kFleDCop, cop_cmp("fle.d.cop", 0b000));
  set(Mnemonic::kFclassDCop, mk("fclass.d.cop", Format::kRFp1, ExecUnit::kFpu, FpuClass::kClass,
                                F, F, N, N, rs2f(f7(f3(op(kCustom1), 0b001), 0b1110001), 0),
                                /*xcop=*/true));
  set(Mnemonic::kCopiftBarrier, mk("copift.barrier", Format::kFixed, ExecUnit::kBarrier,
                                   FpuClass::kNone, N, N, N, N, whole(kCustom1)));
  return t;
}

constexpr auto kTable = build_table();

// Sanity: every slot must have been filled.
constexpr bool all_filled() {
  for (const auto& e : kTable) {
    if (e.name.empty()) return false;
  }
  return true;
}
static_assert(all_filled(), "instruction table has unfilled entries");

}  // namespace

const InstrInfo& info(Mnemonic m) noexcept {
  return kTable[static_cast<std::size_t>(m)];
}

std::optional<Mnemonic> mnemonic_by_name(std::string_view nm) {
  for (std::size_t i = 0; i < kNumMnemonics; ++i) {
    if (kTable[i].name == nm) return static_cast<Mnemonic>(i);
  }
  return std::nullopt;
}

std::string_view name(Mnemonic m) noexcept { return info(m).name; }

}  // namespace copift::isa
