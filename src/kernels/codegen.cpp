#include "kernels/codegen.hpp"

#include <algorithm>

#include "common/bits.hpp"

namespace copift::kernels {

std::string dword_of(std::uint64_t bits) {
  std::string out = ".dword 0x0000000000000000";
  char hex[16];
  auto* end = std::to_chars(hex, hex + sizeof(hex), bits, 16).ptr;
  std::copy(hex, end, out.end() - (end - hex));  // right-aligned in the zero padding
  return out;
}

std::string dword_of(double value) { return dword_of(copift::bit_cast<std::uint64_t>(value)); }

void emit_add_imm(AsmBuilder& b, const std::string& dst, const std::string& src,
                  std::int64_t imm, const std::string& tmp) {
  if (imm >= -2048 && imm <= 2047) {
    b.l(cat("addi ", dst, ", ", src, ", ", imm));
  } else {
    b.l(cat("li ", tmp, ", ", imm));
    b.l(cat("add ", dst, ", ", src, ", ", tmp));
  }
}

}  // namespace copift::kernels
