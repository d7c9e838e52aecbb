// Two-pass RISC-V assembler for the subset of GNU-as syntax the kernels use.
//
// Supported:
//  - sections:    .text (instruction memory), .data (TCDM), .section .dram
//  - directives:  .word .dword .float .double .space .zero .align .p2align
//                 .equ .set .globl/.global (no-op)
//  - labels, `#` comments, decimal/hex immediates
//  - expressions: + - * unary-minus over literals, labels and .equ symbols,
//                 %hi(expr) / %lo(expr); arithmetic wraps modulo 2^64
//  - the full instruction set in isa/mnemonic.hpp plus the usual pseudo
//    instructions (li, la, mv, j, ret, beqz, fmv.d, csrr, ...)
//
// Like GNU as, data directives do NOT auto-align: use `.align n` (n in
// 0..31) explicitly before `.dword`/`.double` so labels and data agree (the
// simulator rejects misaligned 64-bit TCDM accesses). `.data` and `.dram`
// may not outgrow the TCDM and DRAM they are loaded into.
//
// This is the one text path: kernel generators emit source text and
// assemble it like any hand-written `.s` file.
#pragma once

#include <string_view>

#include "rvasm/program.hpp"

namespace copift::rvasm {

/// Assemble `source` into a program image. Throws copift::AsmError with line
/// information on malformed input.
Program assemble(std::string_view source);

}  // namespace copift::rvasm
