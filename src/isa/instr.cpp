#include "isa/instr.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <vector>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace copift::isa {

namespace {

void require(bool ok, const char* message) {
  if (!ok) throw EncodingError(message);
}

/// `require` for a check whose message names the instruction ("addi: imm12
/// out of range"); the message is only built when the check fails.
void require(bool ok, std::string_view name, const char* what) {
  if (!ok) throw EncodingError(std::string(name) + ": " + what);
}

constexpr std::uint32_t rd_field(std::uint32_t r) { return place(r, 7, 5); }
constexpr std::uint32_t rs1_field(std::uint32_t r) { return place(r, 15, 5); }
constexpr std::uint32_t rs2_field(std::uint32_t r) { return place(r, 20, 5); }
constexpr std::uint32_t rs3_field(std::uint32_t r) { return place(r, 27, 5); }

// Dynamic rounding mode for FP instructions whose rm field is free.
constexpr std::uint32_t kRmDyn = 0b111;

std::uint32_t encode_b_imm(std::int32_t imm) {
  require((imm & 1) == 0, "branch offset must be even");
  require(fits_signed(imm, 13), "branch offset out of range");
  const auto u = static_cast<std::uint32_t>(imm);
  return place(bit(u, 12), 31, 1) | place(bits(u, 5, 6), 25, 6) |
         place(bits(u, 1, 4), 8, 4) | place(bit(u, 11), 7, 1);
}

std::uint32_t encode_j_imm(std::int32_t imm) {
  require((imm & 1) == 0, "jump offset must be even");
  require(fits_signed(imm, 21), "jump offset out of range");
  const auto u = static_cast<std::uint32_t>(imm);
  return place(bit(u, 20), 31, 1) | place(bits(u, 1, 10), 21, 10) |
         place(bit(u, 11), 20, 1) | place(bits(u, 12, 8), 12, 8);
}

std::int32_t decode_b_imm(std::uint32_t w) {
  const std::uint32_t u = place(bit(w, 31), 12, 1) | place(bits(w, 25, 6), 5, 6) |
                          place(bits(w, 8, 4), 1, 4) | place(bit(w, 7), 11, 1);
  return sign_extend(u, 13);
}

std::int32_t decode_j_imm(std::uint32_t w) {
  const std::uint32_t u = place(bit(w, 31), 20, 1) | place(bits(w, 21, 10), 1, 10) |
                          place(bit(w, 20), 11, 1) | place(bits(w, 12, 8), 12, 8);
  return sign_extend(u, 21);
}

// Specs sorted by mask specificity so that fully-fixed encodings (ecall,
// copift.barrier) win over partially-fixed ones sharing an opcode.
const std::vector<Mnemonic>& decode_order() {
  static const std::vector<Mnemonic> order = [] {
    std::vector<Mnemonic> v;
    v.reserve(kNumMnemonics);
    for (std::size_t i = 0; i < kNumMnemonics; ++i) v.push_back(static_cast<Mnemonic>(i));
    std::stable_sort(v.begin(), v.end(), [](Mnemonic a, Mnemonic b) {
      return info(a).mask > info(b).mask;
    });
    return v;
  }();
  return order;
}

}  // namespace

std::uint32_t encode(const Instr& instr) {
  const InstrInfo& m = instr.meta();
  std::uint32_t w = m.match;
  require(instr.rd < 32 && instr.rs1 < 32 && instr.rs2 < 32 && instr.rs3 < 32,
          "register index out of range");
  switch (m.format) {
    case Format::kR:
      w |= rd_field(instr.rd) | rs1_field(instr.rs1) | rs2_field(instr.rs2);
      break;
    case Format::kR4:
      w |= rd_field(instr.rd) | rs1_field(instr.rs1) | rs2_field(instr.rs2) |
           rs3_field(instr.rs3) | place(kRmDyn, 12, 3);
      break;
    case Format::kRFpRm:
      w |= rd_field(instr.rd) | rs1_field(instr.rs1) | rs2_field(instr.rs2) |
           place(kRmDyn, 12, 3);
      break;
    case Format::kRFp1Rm:
      w |= rd_field(instr.rd) | rs1_field(instr.rs1) | place(kRmDyn, 12, 3);
      break;
    case Format::kRFp1:
      w |= rd_field(instr.rd) | rs1_field(instr.rs1);
      break;
    case Format::kI:
    case Format::kILoad:
      require(fits_signed(instr.imm, 12), m.name, "imm12 out of range");
      w |= rd_field(instr.rd) | rs1_field(instr.rs1) |
           place(static_cast<std::uint32_t>(instr.imm), 20, 12);
      break;
    case Format::kIShift:
      require(fits_unsigned(instr.imm, 5), m.name, "shamt out of range");
      w |= rd_field(instr.rd) | rs1_field(instr.rs1) |
           place(static_cast<std::uint32_t>(instr.imm), 20, 5);
      break;
    case Format::kS: {
      require(fits_signed(instr.imm, 12), m.name, "imm12 out of range");
      const auto u = static_cast<std::uint32_t>(instr.imm);
      w |= rs1_field(instr.rs1) | rs2_field(instr.rs2) | place(bits(u, 5, 7), 25, 7) |
           place(bits(u, 0, 5), 7, 5);
      break;
    }
    case Format::kB:
      w |= rs1_field(instr.rs1) | rs2_field(instr.rs2) | encode_b_imm(instr.imm);
      break;
    case Format::kU:
      require(fits_unsigned(instr.imm, 20) || fits_signed(instr.imm, 20),
              m.name, "imm20 out of range");
      w |= rd_field(instr.rd) | place(static_cast<std::uint32_t>(instr.imm), 12, 20);
      break;
    case Format::kJ:
      w |= rd_field(instr.rd) | encode_j_imm(instr.imm);
      break;
    case Format::kICsr:
      require(fits_unsigned(instr.imm, 12), "csr number out of range");
      w |= rd_field(instr.rd) | rs1_field(instr.rs1) |
           place(static_cast<std::uint32_t>(instr.imm), 20, 12);
      break;
    case Format::kICsrImm:
      require(fits_unsigned(instr.imm, 12), "csr number out of range");
      require(instr.rs1 < 32, "zimm out of range");
      w |= rd_field(instr.rd) | rs1_field(instr.rs1) |
           place(static_cast<std::uint32_t>(instr.imm), 20, 12);
      break;
    case Format::kFixed:
      break;
    case Format::kRdOnly:
      w |= rd_field(instr.rd);
      break;
    case Format::kRs1Only:
      w |= rs1_field(instr.rs1);
      break;
    case Format::kRdRs1:
      w |= rd_field(instr.rd) | rs1_field(instr.rs1);
      break;
    case Format::kRs1Imm:
      require(fits_unsigned(instr.imm, 12), m.name, "imm12 out of range");
      w |= rs1_field(instr.rs1) | place(static_cast<std::uint32_t>(instr.imm), 20, 12);
      break;
    case Format::kRdImm:
      require(fits_unsigned(instr.imm, 12), m.name, "imm12 out of range");
      w |= rd_field(instr.rd) | place(static_cast<std::uint32_t>(instr.imm), 20, 12);
      break;
  }
  return w;
}

Instr decode(std::uint32_t word) {
  for (Mnemonic m : decode_order()) {
    const InstrInfo& spec = info(m);
    if ((word & spec.mask) != spec.match) continue;
    Instr instr;
    instr.mnemonic = m;
    const auto rd = static_cast<std::uint8_t>(bits(word, 7, 5));
    const auto rs1 = static_cast<std::uint8_t>(bits(word, 15, 5));
    const auto rs2 = static_cast<std::uint8_t>(bits(word, 20, 5));
    const auto rs3 = static_cast<std::uint8_t>(bits(word, 27, 5));
    switch (spec.format) {
      case Format::kR:
        instr.rd = rd; instr.rs1 = rs1; instr.rs2 = rs2;
        break;
      case Format::kR4:
        instr.rd = rd; instr.rs1 = rs1; instr.rs2 = rs2; instr.rs3 = rs3;
        break;
      case Format::kRFpRm:
        instr.rd = rd; instr.rs1 = rs1; instr.rs2 = rs2;
        break;
      case Format::kRFp1Rm:
      case Format::kRFp1:
        instr.rd = rd; instr.rs1 = rs1;
        break;
      case Format::kI:
      case Format::kILoad:
        instr.rd = rd; instr.rs1 = rs1;
        instr.imm = sign_extend(bits(word, 20, 12), 12);
        break;
      case Format::kIShift:
        instr.rd = rd; instr.rs1 = rs1;
        instr.imm = static_cast<std::int32_t>(bits(word, 20, 5));
        break;
      case Format::kS:
        instr.rs1 = rs1; instr.rs2 = rs2;
        instr.imm = sign_extend(place(bits(word, 25, 7), 5, 7) | bits(word, 7, 5), 12);
        break;
      case Format::kB:
        instr.rs1 = rs1; instr.rs2 = rs2;
        instr.imm = decode_b_imm(word);
        break;
      case Format::kU:
        instr.rd = rd;
        instr.imm = static_cast<std::int32_t>(bits(word, 12, 20));
        break;
      case Format::kJ:
        instr.rd = rd;
        instr.imm = decode_j_imm(word);
        break;
      case Format::kICsr:
      case Format::kICsrImm:
        instr.rd = rd; instr.rs1 = rs1;
        instr.imm = static_cast<std::int32_t>(bits(word, 20, 12));
        break;
      case Format::kFixed:
        break;
      case Format::kRdOnly:
        instr.rd = rd;
        break;
      case Format::kRs1Only:
        instr.rs1 = rs1;
        break;
      case Format::kRdRs1:
        instr.rd = rd; instr.rs1 = rs1;
        break;
      case Format::kRs1Imm:
        instr.rs1 = rs1;
        instr.imm = static_cast<std::int32_t>(bits(word, 20, 12));
        break;
      case Format::kRdImm:
        instr.rd = rd;
        instr.imm = static_cast<std::int32_t>(bits(word, 20, 12));
        break;
    }
    return instr;
  }
  std::ostringstream os;
  os << "cannot decode word 0x" << std::hex << word;
  throw EncodingError(os.str());
}

std::string disassemble(const Instr& instr) {
  const InstrInfo& m = instr.meta();
  const auto reg = [](RegClass cls, unsigned index) {
    return cls == RegClass::kFp ? fp_reg_name(index) : int_reg_name(index);
  };
  std::ostringstream os;
  os << m.name;
  switch (m.format) {
    case Format::kR:
      os << ' ' << reg(m.rd_class, instr.rd) << ", " << reg(m.rs1_class, instr.rs1) << ", "
         << reg(m.rs2_class, instr.rs2);
      break;
    case Format::kR4:
      os << ' ' << reg(m.rd_class, instr.rd) << ", " << reg(m.rs1_class, instr.rs1) << ", "
         << reg(m.rs2_class, instr.rs2) << ", " << reg(m.rs3_class, instr.rs3);
      break;
    case Format::kRFpRm:
      os << ' ' << reg(m.rd_class, instr.rd) << ", " << reg(m.rs1_class, instr.rs1) << ", "
         << reg(m.rs2_class, instr.rs2);
      break;
    case Format::kRFp1Rm:
    case Format::kRFp1:
      os << ' ' << reg(m.rd_class, instr.rd) << ", " << reg(m.rs1_class, instr.rs1);
      break;
    case Format::kI:
    case Format::kIShift:
      os << ' ' << reg(m.rd_class, instr.rd) << ", " << reg(m.rs1_class, instr.rs1) << ", "
         << instr.imm;
      break;
    case Format::kILoad:
      os << ' ' << reg(m.rd_class, instr.rd) << ", " << instr.imm << '('
         << int_reg_name(instr.rs1) << ')';
      break;
    case Format::kS:
      os << ' ' << reg(m.rs2_class, instr.rs2) << ", " << instr.imm << '('
         << int_reg_name(instr.rs1) << ')';
      break;
    case Format::kB:
      os << ' ' << int_reg_name(instr.rs1) << ", " << int_reg_name(instr.rs2) << ", "
         << instr.imm;
      break;
    case Format::kU:
      os << ' ' << int_reg_name(instr.rd) << ", " << instr.imm;
      break;
    case Format::kJ:
      os << ' ' << int_reg_name(instr.rd) << ", " << instr.imm;
      break;
    case Format::kICsr:
      os << ' ' << int_reg_name(instr.rd) << ", 0x" << std::hex << instr.imm << std::dec << ", "
         << int_reg_name(instr.rs1);
      break;
    case Format::kICsrImm:
      os << ' ' << int_reg_name(instr.rd) << ", 0x" << std::hex << instr.imm << std::dec << ", "
         << static_cast<unsigned>(instr.rs1);
      break;
    case Format::kFixed:
      break;
    case Format::kRdOnly:
      os << ' ' << int_reg_name(instr.rd);
      break;
    case Format::kRs1Only:
      os << ' ' << int_reg_name(instr.rs1);
      break;
    case Format::kRdRs1:
      os << ' ' << int_reg_name(instr.rd) << ", " << int_reg_name(instr.rs1);
      break;
    case Format::kRs1Imm:
      os << ' ' << int_reg_name(instr.rs1) << ", " << instr.imm;
      break;
    case Format::kRdImm:
      os << ' ' << int_reg_name(instr.rd) << ", " << instr.imm;
      break;
  }
  return os.str();
}

}  // namespace copift::isa
