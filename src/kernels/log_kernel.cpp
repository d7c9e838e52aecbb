// Assembly generators for the `log` kernel: glibc-style table-based
// logarithm over a vector of floats (double-precision evaluation).
//
// The table lookup is indexed by mantissa bits computed by integer code — a
// Type-1 (dynamic memory) dependency. The baseline performs it with `fld`
// from a computed address; the COPIFT variant maps it to an ISSR indirect
// stream (paper Table I marks logf with ‡), and moves the exponent
// conversion into the FP thread with fcvt.d.w.cop (*).
#include <string>

#include "kernels/codegen.hpp"
#include "kernels/glibc_math.hpp"
#include "kernels/kernel_internal.hpp"
#include "workload/hart_slice.hpp"
#include "workload/software_pipeline.hpp"

namespace copift::kernels {

namespace {

using workload::HartSlice;

constexpr unsigned kUnroll = 4;

const char* c0(unsigned u) {
  static constexpr const char* kRegs[] = {"a0", "a7", "s4", "s7"};
  return kRegs[u];
}
const char* c1(unsigned u) {
  static constexpr const char* kRegs[] = {"a5", "s2", "s5", "s8"};
  return kRegs[u];
}
const char* c2(unsigned u) {
  static constexpr const char* kRegs[] = {"a6", "s3", "s6", "s9"};
  return kRegs[u];
}

void emit_log_data(AsmBuilder& b, const KernelConfig& cfg, bool copift) {
  const LogConstants cst = log_constants();
  b.raw(".data\n");
  b.l(".align 3");
  b.label("log_tab");
  for (const LogTableEntry& e : log_table()) {
    b.l(dword_of(e.invc));
    b.l(dword_of(e.logc));
  }
  b.label("log_const");
  b.l(dword_of(cst.ln2));   // fs0
  b.l(dword_of(cst.a1));    // fs1
  b.l(dword_of(cst.a2));    // fs2
  b.l(dword_of(cst.a0));    // fs3
  b.l(dword_of(1.0));       // fs5 (loaded separately)
  if (copift) {
    // One double-buffered arena row per hart.
    b.label("izk_arena");  // 2 slots x (2B 8-byte cells: iz, k interleaved)
    b.l(cat(".space ", 2 * 2 * cfg.block * 8 * cfg.cores));
    b.label("idx_arena");  // 2 slots x (2B 4-byte indices)
    b.l(cat(".space ", 2 * 2 * cfg.block * 4 * cfg.cores));
  } else {
    b.label("iz_buf");  // one row per hart
    b.l(cat(".space ", kUnroll * 4 * cfg.cores));
  }
  b.label("xarr");
  b.l(cat(".space ", cfg.n * 4));
  b.l(".align 3");
  b.label("yarr");
  b.l(cat(".space ", cfg.n * 8));
  b.raw(".section .dram\n");
  b.label("dram_in");
  b.l(cat(".space ", cfg.n * 8));
  b.label("dram_out");
  b.l(cat(".space ", cfg.n * 8));
  b.raw(".text\n");
}

void emit_log_constants(AsmBuilder& b) {
  b.l("la s1, log_const");
  b.l("fld fs0, 0(s1)");
  b.l("fld fs1, 8(s1)");
  b.l("fld fs2, 16(s1)");
  b.l("fld fs3, 24(s1)");
  b.l("fld fs5, 32(s1)");
}

void emit_dma_stream(AsmBuilder& b, std::uint32_t bytes) {
  b.l("la s1, dram_in");
  b.l("dmsrc s1");
  b.l("la s1, dram_out");
  b.l("dmdst s1");
  b.l(cat("li s1, ", bytes));
  b.l("dmcpy s1, s1");
}

std::string generate_baseline(const KernelConfig& cfg) {
  const HartSlice slice(cfg);
  const LogConstants cst = log_constants();
  AsmBuilder b;
  emit_log_data(b, cfg, /*copift=*/false);
  b.label("_start");
  b.l("la a3, xarr");
  b.l("la a4, yarr");
  b.l("la t0, log_tab");
  b.l("la t1, iz_buf");
  slice.read_hartid(b, "t5", "partition: this hart's x (floats) / y (doubles) chunks");
  slice.offset_by_elements(b, "t5", 4, {"a3"}, "t6", "a0");
  slice.offset_by_elements(b, "t5", 8, {"a4"}, "t6", "a0");
  slice.offset_by_rows(b, "t5", kUnroll * 4, {"t1"}, "t6", "a0");
  b.l(cat("li t2, ", cst.off));
  b.l(cat("li s0, ", 0xff800000u));
  b.l(cat("li t3, ", slice.chunk() / kUnroll));
  emit_log_constants(b);
  slice.begin_hart0_only(b, "t5", "dma_done");  // the DMA engine is shared
  emit_dma_stream(b, cfg.n * 8);
  slice.end_hart0_only(b, "dma_done");
  b.l("csrwi region, 1");
  b.label("body_begin");
  b.c("integer decomposition (op-major over 4 elements)");
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("lw ", c0(u), ", ", u * 4, "(a3)"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("sub ", c1(u), ", ", c0(u), ", t2"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("srai ", c2(u), ", ", c1(u), ", 23"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("fcvt.d.w fa", u, ", ", c2(u)));  // kd
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("and ", c2(u), ", ", c1(u), ", s0"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("sub ", c2(u), ", ", c0(u), ", ", c2(u)));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("sw ", c2(u), ", ", u * 4, "(t1)"));  // iz
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("srli ", c0(u), ", ", c1(u), ", 19"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("andi ", c0(u), ", ", c0(u), ", 15"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("slli ", c0(u), ", ", c0(u), ", 4"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("add ", c0(u), ", t0, ", c0(u)));
  b.c("FP evaluation");
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("flw fa", 4 + u, ", ", u * 4, "(t1)"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("fcvt.d.s fa", 4 + u, ", fa", 4 + u));  // z
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("fld ft", u, ", 0(", c0(u), ")"));   // invc
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("fld ft", 4 + u, ", 8(", c0(u), ")"));  // logc
  for (unsigned u = 0; u < kUnroll; ++u) {
    b.l(cat("fmsub.d ft", u, ", fa", 4 + u, ", ft", u, ", fs5"));  // r = z*invc - 1
  }
  for (unsigned u = 0; u < kUnroll; ++u) {
    b.l(cat("fmadd.d fa", u, ", fa", u, ", fs0, ft", 4 + u));  // y0 = k*ln2 + logc
  }
  for (unsigned u = 0; u < kUnroll; ++u) {
    b.l(cat("fmul.d fa", 4 + u, ", ft", u, ", ft", u));  // r2
  }
  for (unsigned u = 0; u < kUnroll; ++u) {
    b.l(cat("fmadd.d ft", 4 + u, ", fs1, ft", u, ", fs2"));  // p = A1*r + A2
  }
  for (unsigned u = 0; u < kUnroll; ++u) {
    b.l(cat("fmadd.d ft", 4 + u, ", fs3, fa", 4 + u, ", ft", 4 + u));  // p = A0*r2 + p
  }
  for (unsigned u = 0; u < kUnroll; ++u) {
    b.l(cat("fadd.d fa", u, ", fa", u, ", ft", u));  // y0 + r
  }
  for (unsigned u = 0; u < kUnroll; ++u) {
    b.l(cat("fmadd.d fa", u, ", ft", 4 + u, ", fa", 4 + u, ", fa", u));  // result
  }
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("fsd fa", u, ", ", u * 8, "(a4)"));
  b.l(cat("addi a3, a3, ", kUnroll * 4));
  b.l(cat("addi a4, a4, ", kUnroll * 8));
  b.l("addi t3, t3, -1");
  b.l("bnez t3, body_begin");
  b.label("body_end");
  b.l("csrwi region, 2");
  b.l("csrr t0, fpss");
  slice.epilogue(b);
  return b.str();
}

// ---------------------------------------------------------------------------
// COPIFT variant: 2 phases (integer decompose -> FP evaluate).
// ---------------------------------------------------------------------------

/// Cell offsets: the FREP body is 2x unrolled op-major, so per element pair
/// the streams deliver izA, izB, kA, kB (lane0) and invcA, invcB, logcA,
/// logcB (ISSR index order).
std::uint32_t iz_cell(unsigned e) { return (e / 2) * 32 + (e % 2) * 8; }
std::uint32_t k_cell(unsigned e) { return iz_cell(e) + 16; }
std::uint32_t invc_idx(unsigned e) { return (e / 2) * 16 + (e % 2) * 4; }
std::uint32_t logc_idx(unsigned e) { return invc_idx(e) + 8; }

void emit_int_phase(AsmBuilder& b, const KernelConfig& cfg, unsigned site) {
  const std::uint32_t block = cfg.block;
  b.c("integer phase: decompose block into (iz, k) cells and table indices");
  b.l("mv a1, s10");   // izk write pointer
  b.l("mv a2, t5");    // idx write pointer (t5 = idx write slot)
  emit_add_imm(b, "t1", "a3", block * 4, "t1");  // end of x block
  b.label(cat("dec_loop_", site));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("lw ", c0(u), ", ", u * 4, "(a3)"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("sub ", c1(u), ", ", c0(u), ", t2"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("srai ", c2(u), ", ", c1(u), ", 23"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("sw ", c2(u), ", ", k_cell(u), "(a1)"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("and ", c2(u), ", ", c1(u), ", s0"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("sub ", c2(u), ", ", c0(u), ", ", c2(u)));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("sw ", c2(u), ", ", iz_cell(u), "(a1)"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("srli ", c0(u), ", ", c1(u), ", 19"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("andi ", c0(u), ", ", c0(u), ", 15"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("slli ", c0(u), ", ", c0(u), ", 1"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("sw ", c0(u), ", ", invc_idx(u), "(a2)"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("addi ", c0(u), ", ", c0(u), ", 1"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("sw ", c0(u), ", ", logc_idx(u), "(a2)"));
  b.l(cat("addi a3, a3, ", kUnroll * 4));
  b.l(cat("addi a1, a1, ", kUnroll * 16));
  b.l(cat("addi a2, a2, ", kUnroll * 8));
  b.l(cat("bne a3, t1, dec_loop_", site));
}

void emit_fp_frep(AsmBuilder& b, const KernelConfig& cfg) {
  const std::uint32_t block = cfg.block;
  b.c("FP phase (2x unrolled): ft0 = (iz,k), ft1 = ISSR table, ft2 = y");
  b.l("scfgwi s11, 26");             // lane0 RPTR2 <- izk slot (3-D)
  b.l("scfgwi t6, 41");              // lane1 IdxBase <- idx read slot (32+9)
  b.l(cat("li a0, ", 2 * block));
  b.l("scfgwi a0, 43");              // lane1 IdxCfg: 2B indices (32+11)
  b.l("scfgwi t0, 56");              // lane1 RPTR0 <- table base, arms ISSR (32+24)
  b.l("scfgwi a4, 92");              // lane2 WPTR0 <- y block (64+28)
  b.l("frep.o t4, 18");
  b.l("fcvt.d.s fa0, ft0");          // zA from iz bits
  b.l("fcvt.d.s ft3, ft0");          // zB
  b.l("fcvt.d.w.cop fa1, ft0");      // kdA from k
  b.l("fcvt.d.w.cop ft4, ft0");      // kdB
  b.l("fmsub.d fa2, fa0, ft1, fs5"); // rA = z*invc - 1
  b.l("fmsub.d ft5, ft3, ft1, fs5"); // rB
  b.l("fmadd.d fa3, fa1, fs0, ft1"); // y0A = kd*ln2 + logc
  b.l("fmadd.d ft6, ft4, fs0, ft1"); // y0B
  b.l("fmul.d fa0, fa2, fa2");       // r2A
  b.l("fmul.d ft3, ft5, ft5");       // r2B
  b.l("fmadd.d fa4, fs1, fa2, fs2"); // pA = A1*r + A2
  b.l("fmadd.d ft7, fs1, ft5, fs2"); // pB
  b.l("fmadd.d fa4, fs3, fa0, fa4"); // pA = A0*r2 + p
  b.l("fmadd.d ft7, fs3, ft3, ft7"); // pB
  b.l("fadd.d fa3, fa3, fa2");       // y0A + rA
  b.l("fadd.d ft6, ft6, ft5");       // y0B + rB
  b.l("fmadd.d ft2, fa4, fa0, fa3"); // resultA -> y
  b.l("fmadd.d ft2, ft7, ft3, ft6"); // resultB -> y
  emit_add_imm(b, "a4", "a4", block * 8, "a0");
}

void emit_swap_slots(AsmBuilder& b) {
  b.l("mv t1, s10");
  b.l("mv s10, s11");
  b.l("mv s11, t1");
  b.l("mv t1, t5");
  b.l("mv t5, t6");
  b.l("mv t6, t1");
}

std::string generate_copift(const KernelConfig& cfg) {
  const std::uint32_t block = cfg.block;
  const HartSlice slice(cfg);
  const LogConstants cst = log_constants();
  const workload::SoftwarePipeline pipe(
      kLogPhases,
      {[&](AsmBuilder& b, unsigned site) { emit_int_phase(b, cfg, site); },
       [&](AsmBuilder& b, unsigned) { emit_fp_frep(b, cfg); }},
      emit_swap_slots);

  AsmBuilder b;
  emit_log_data(b, cfg, /*copift=*/true);
  b.label("_start");
  b.l("la a3, xarr");
  b.l("la a4, yarr");
  b.l("la t0, log_tab");
  b.l(cat("li t2, ", cst.off));
  b.l(cat("li s0, ", 0xff800000u));
  b.l("la s10, izk_arena");
  b.l(cat("la s11, izk_arena + ", 2 * block * 8));
  b.l("la t5, idx_arena");
  b.l(cat("la t6, idx_arena + ", 2 * block * 4));
  // a1 keeps the hart id (t5/t6 hold the idx slot pointers here); a0/a2 are
  // setup-time scratch, reused by the integer phase later.
  slice.read_hartid(b, "a1", "partition: this hart's x/y chunks and arena rows");
  slice.offset_by_elements(b, "a1", 4, {"a3"}, "a0", "a2");
  slice.offset_by_elements(b, "a1", 8, {"a4"}, "a0", "a2");
  slice.offset_by_rows(b, "a1", 2 * 2 * block * 8, {"s10", "s11"}, "a0", "a2");
  slice.offset_by_rows(b, "a1", 2 * 2 * block * 4, {"t5", "t6"}, "a0", "a2");
  b.l(cat("li t4, ", block / 2 - 1));  // FREP reps (2 elements per iteration)
  pipe.load_steady_count(b, slice.chunk() / block);
  emit_log_constants(b);
  b.l("csrsi ssr, 1");
  b.c("lane0: 3-D read izA,izB,kA,kB; lane1: ISSR shift 3; lane2: 1-D write");
  b.l("li a0, 1");
  b.l("scfgwi a0, 1");    // bound0 = 1 (pair)
  b.l("li a0, 8");
  b.l("scfgwi a0, 5");    // stride0 = 8
  b.l("li a0, 1");
  b.l("scfgwi a0, 2");    // bound1 = 1 (iz -> k field)
  b.l("li a0, 16");
  b.l("scfgwi a0, 6");    // stride1 = 16
  b.l(cat("li a0, ", block / 2 - 1));
  b.l("scfgwi a0, 3");    // bound2 = groups
  b.l("li a0, 32");
  b.l("scfgwi a0, 7");    // stride2 = 32
  b.l("li a0, 3");
  b.l("scfgwi a0, 42");  // lane1 IdxShift (32+10)
  b.l(cat("li a0, ", block - 1));
  b.l("scfgwi a0, 65");  // lane2 bound0 (64+1)
  b.l("li a0, 8");
  b.l("scfgwi a0, 69");  // lane2 stride0 (64+5)
  slice.begin_hart0_only(b, "a1", "dma_done");  // the DMA engine is shared
  emit_dma_stream(b, cfg.n * 8);
  slice.end_hart0_only(b, "dma_done");
  b.l("csrwi region, 1");

  pipe.emit(b);
  b.l("csrr t1, fpss");
  b.l("csrci ssr, 1");
  b.l("csrwi region, 2");
  slice.epilogue(b);
  return b.str();
}

}  // namespace

std::string generate_log(Variant variant, const KernelConfig& cfg) {
  return variant == Variant::kBaseline ? generate_baseline(cfg) : generate_copift(cfg);
}

}  // namespace copift::kernels
