#include "isa/reg.hpp"

#include <array>

namespace copift::isa {

namespace {

constexpr std::array<std::string_view, kNumIntRegs> kIntAbiNames = {
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0",
    "a1",   "a2", "a3", "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5",
    "s6",   "s7", "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6"};

constexpr std::array<std::string_view, kNumFpRegs> kFpAbiNames = {
    "ft0", "ft1", "ft2", "ft3", "ft4", "ft5", "ft6", "ft7", "fs0", "fs1", "fa0",
    "fa1", "fa2", "fa3", "fa4", "fa5", "fa6", "fa7", "fs2", "fs3", "fs4", "fs5",
    "fs6", "fs7", "fs8", "fs9", "fs10", "fs11", "ft8", "ft9", "ft10", "ft11"};

std::optional<unsigned> parse_numeric(std::string_view token, char prefix) {
  if (token.size() < 2 || token.size() > 3 || token[0] != prefix) return std::nullopt;
  unsigned value = 0;
  for (char c : token.substr(1)) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<unsigned>(c - '0');
  }
  if (value >= 32) return std::nullopt;
  return value;
}

/// The number in an ABI name's suffix ("11" of "s11"): one or two decimal
/// digits without a leading zero; 99 (matching no register) otherwise.
unsigned abi_number(std::string_view digits) {
  const auto digit = [](char c) { return c >= '0' && c <= '9'; };
  if (digits.size() == 1 && digit(digits[0])) return static_cast<unsigned>(digits[0] - '0');
  if (digits.size() == 2 && digits[0] != '0' && digit(digits[0]) && digit(digits[1])) {
    return static_cast<unsigned>((digits[0] - '0') * 10 + (digits[1] - '0'));
  }
  return 99;
}

// The ABI numbering shared by both register files: t0-t2/t3-t6 (ft0-ft7/
// ft8-ft11 in the FP file), s0-s1/s2-s11 and a0-a7.
std::optional<unsigned> temporary(unsigned n, unsigned low_count, unsigned low_base) {
  if (n < low_count) return low_base + n;
  if (n < low_count + 4) return 28 + (n - low_count);
  return std::nullopt;
}
std::optional<unsigned> saved(unsigned n) {
  if (n < 2) return 8 + n;
  if (n < 12) return 16 + n;
  return std::nullopt;
}
std::optional<unsigned> argument(unsigned n) {
  if (n < 8) return 10 + n;
  return std::nullopt;
}

}  // namespace

std::string int_reg_name(unsigned index) {
  return index < kNumIntRegs ? std::string(kIntAbiNames[index]) : "x?";
}

std::string fp_reg_name(unsigned index) {
  return index < kNumFpRegs ? std::string(kFpAbiNames[index]) : "f?";
}

std::optional<unsigned> parse_int_reg(std::string_view token) {
  if (token.size() < 2) return std::nullopt;
  const unsigned n = abi_number(token.substr(1));
  switch (token[0]) {
    case 'x': return parse_numeric(token, 'x');
    case 'z': if (token == "zero") return 0; break;
    case 'r': if (token == "ra") return 1; break;
    case 'g': if (token == "gp") return 3; break;
    case 'f': if (token == "fp") return 8; break;  // alias for s0
    case 's': return token == "sp" ? std::optional<unsigned>(2) : saved(n);
    case 't': return token == "tp" ? std::optional<unsigned>(4) : temporary(n, 3, 5);
    case 'a': return argument(n);
    default: break;
  }
  return std::nullopt;
}

std::optional<unsigned> parse_fp_reg(std::string_view token) {
  if (token.size() < 2 || token[0] != 'f') return std::nullopt;
  if (token[1] >= '0' && token[1] <= '9') return parse_numeric(token, 'f');
  const unsigned n = abi_number(token.substr(2));
  switch (token[1]) {
    case 't': return temporary(n, 8, 0);
    case 's': return saved(n);
    case 'a': return argument(n);
    default: return std::nullopt;
  }
}

}  // namespace copift::isa
