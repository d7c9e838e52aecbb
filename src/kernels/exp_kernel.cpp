// Assembly generators for the `exp` kernel (paper Fig. 1): the glibc-style
// table-based exponential over a vector of doubles.
//
// Baseline: the Fig. 1b instruction mix, unrolled 4x and scheduled op-major
// so independent elements hide FPU and load latencies (the paper's
// "Snitch-optimized RV32G baseline").
//
// COPIFT: the full Fig. 1d-1j pipeline — three phases (FP front, integer
// table lookup, FP scale), loop tiling with block size B, triple-buffered
// slot arena, SSR-mapped streams, two FREP loops per block iteration and a
// copift.barrier for inter-iteration synchronization.
#include <string>

#include "kernels/codegen.hpp"
#include "kernels/glibc_math.hpp"
#include "kernels/kernel_internal.hpp"
#include "workload/hart_slice.hpp"
#include "workload/software_pipeline.hpp"
#include "workload/tiled_buffer.hpp"

namespace copift::kernels {

namespace {

using workload::HartSlice;

constexpr unsigned kUnroll = 4;

/// Tiled (tile > 0) runs stream x/y between DRAM and TCDM double buffers;
/// the table, constants and arena/spill rows stay TCDM-resident.
workload::TiledBuffer make_exp_tiled(const KernelConfig& cfg) {
  return workload::TiledBuffer(cfg, {{"xarr", workload::TiledBuffer::kIn, 8},
                                     {"yarr", workload::TiledBuffer::kOut, 8}});
}

// Per-slot integer working registers for the table-lookup phase.
const char* b0(unsigned u) {
  static constexpr const char* kRegs[] = {"a0", "a5", "s5", "s8"};
  return kRegs[u];
}
const char* b1(unsigned u) {
  static constexpr const char* kRegs[] = {"a1", "a6", "s6", "s9"};
  return kRegs[u];
}
const char* b2(unsigned u) {
  static constexpr const char* kRegs[] = {"a2", "a7", "s7", "s10"};
  return kRegs[u];
}

void emit_exp_data(AsmBuilder& b, const KernelConfig& cfg, bool copift,
                   const workload::TiledBuffer& tiled) {
  const ExpConstants cst = exp_constants();
  b.raw(".data\n");
  b.l(".align 3");
  b.label("exp_tab");
  for (const std::uint64_t entry : exp_table()) b.l(dword_of(entry));
  b.label("exp_const");
  b.l(dword_of(cst.inv_ln2_n));
  b.l(dword_of(cst.shift));
  b.l(dword_of(cst.c0));
  b.l(dword_of(cst.c1));
  b.l(dword_of(cst.c2));
  b.l(dword_of(1.0));
  if (copift) {
    // Slot arena: 3 slots x fields [ki | w | t], each field B doubles.
    // One arena row per hart — harts triple-buffer independently.
    b.label("arena");
    b.l(cat(".space ", 3 * 3 * cfg.block * 8 * cfg.cores));
  } else {
    // One row of spill buffers per hart.
    b.label("ki_buf");
    b.l(cat(".space ", kUnroll * 8 * cfg.cores));
    b.label("t_buf");
    b.l(cat(".space ", kUnroll * 8 * cfg.cores));
  }
  if (tiled.enabled()) {
    // Real DRAM traffic: x/y live in DRAM, staged through double buffers.
    // The artificial dram_in/dram_out staging stream is superseded.
    tiled.emit_data(b);
    return;
  }
  b.label("xarr");
  b.l(cat(".space ", cfg.n * 8));
  b.label("yarr");
  b.l(cat(".space ", cfg.n * 8));
  // DRAM staging exercised by the concurrent DMA stream (models the
  // double-buffered input/output movement of the paper's setup; the Monte
  // Carlo kernels leave the DMA idle — paper Section III-B).
  b.raw(".section .dram\n");
  b.label("dram_in");
  b.l(cat(".space ", cfg.n * 8));
  b.label("dram_out");
  b.l(cat(".space ", cfg.n * 8));
  b.raw(".text\n");
}

void emit_load_constants(AsmBuilder& b) {
  b.l("la s0, exp_const");
  for (unsigned i = 0; i < 6; ++i) b.l(cat("fld fs", i, ", ", i * 8, "(s0)"));
}

void emit_dma_stream(AsmBuilder& b, std::uint32_t bytes) {
  b.c("concurrent DMA stream (input/output staging of the next problem)");
  b.l("la s1, dram_in");
  b.l("dmsrc s1");
  b.l("la s1, dram_out");
  b.l("dmdst s1");
  b.l(cat("li s1, ", bytes));
  b.l("dmcpy s1, s1");
}

/// The integer table-lookup for 4 elements: ki values read at `rp` (+8i),
/// t values written at `wp` (+8i). Exactly Fig. 1b instructions 5-14.
void emit_int_lookup4(AsmBuilder& b, const std::string& rp, const std::string& wp) {
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("lw ", b0(u), ", ", u * 8, "(", rp, ")"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("andi ", b1(u), ", ", b0(u), ", 31"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("slli ", b1(u), ", ", b1(u), ", 3"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("add ", b1(u), ", t0, ", b1(u)));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("lw ", b2(u), ", 0(", b1(u), ")"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("lw ", b1(u), ", 4(", b1(u), ")"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("slli ", b0(u), ", ", b0(u), ", 15"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("sw ", b2(u), ", ", u * 8, "(", wp, ")"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("add ", b0(u), ", ", b0(u), ", ", b1(u)));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("sw ", b0(u), ", ", u * 8 + 4, "(", wp, ")"));
}

/// The Fig. 1b loop over one run of elements: x at a3, y at a4, spill rows at
/// t1/t2, exp_tab at t0, iteration count preloaded in t3 (shared by the
/// untiled program and each tile of the tiled one).
void emit_baseline_loop(AsmBuilder& b) {
  b.label("body_begin");
  b.c("FP front (Fig. 1b inst. 1-4), op-major over 4 elements");
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("fld fa", u, ", ", u * 8, "(a3)"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("fmul.d fa", u, ", fs0, fa", u));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("fadd.d fa", 4 + u, ", fa", u, ", fs1"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("fsd fa", 4 + u, ", ", u * 8, "(t1)"));
  b.c("integer table lookup (inst. 5-14)");
  emit_int_lookup4(b, "t1", "t2");
  b.c("FP tail (inst. 15-23)");
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("fsub.d fa", 4 + u, ", fa", 4 + u, ", fs1"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("fsub.d fa", u, ", fa", u, ", fa", 4 + u));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("fmadd.d ft", u, ", fs2, fa", u, ", fs3"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("fld ft", 4 + u, ", ", u * 8, "(t2)"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("fmadd.d fa", 4 + u, ", fs4, fa", u, ", fs5"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("fmul.d fa", u, ", fa", u, ", fa", u));
  for (unsigned u = 0; u < kUnroll; ++u) {
    b.l(cat("fmadd.d fa", 4 + u, ", ft", u, ", fa", u, ", fa", 4 + u));
  }
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("fmul.d fa", 4 + u, ", fa", 4 + u, ", ft", 4 + u));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("fsd fa", 4 + u, ", ", u * 8, "(a4)"));
  b.l(cat("addi a3, a3, ", kUnroll * 8));
  b.l(cat("addi a4, a4, ", kUnroll * 8));
  b.l("addi t3, t3, -1");
  b.l("bnez t3, body_begin");
  b.label("body_end");
}

std::string generate_baseline(const KernelConfig& cfg) {
  const HartSlice slice(cfg);
  workload::TiledBuffer tiled = make_exp_tiled(cfg);
  AsmBuilder b;
  emit_exp_data(b, cfg, /*copift=*/false, tiled);
  b.label("_start");
  if (tiled.enabled()) {
    b.l("la t0, exp_tab");
    b.l("la t1, ki_buf");
    b.l("la t2, t_buf");
    slice.read_hartid(b, "t5", "partition: this hart's tile slice and spill-buffer row");
    slice.offset_by_rows(b, "t5", kUnroll * 8, {"t1", "t2"}, "t6", "a0");
    emit_load_constants(b);
    tiled.prologue(b, slice);
    b.l("csrwi region, 1");
    b.label("tile_loop");
    tiled.hart0_stage(b, slice);
    tiled.compute_base(b, "a3", 0, "t5", "t6", "a0");
    tiled.compute_base(b, "a4", 1, "t5", "t6", "a0");
    b.l(cat("li t3, ", tiled.chunk() / kUnroll));
    emit_baseline_loop(b);
    b.l("csrr t6, fpss");  // land the offloaded fsd stores (t0 keeps exp_tab)
    tiled.tile_epilogue(b, slice, "tile_loop");
    b.l("csrwi region, 2");
    tiled.final_store(b, slice);
    slice.epilogue(b);
    return b.str();
  }
  b.l("la a3, xarr");
  b.l("la a4, yarr");
  b.l("la t0, exp_tab");
  b.l("la t1, ki_buf");
  b.l("la t2, t_buf");
  slice.read_hartid(b, "t5", "partition: this hart's x/y chunk and spill-buffer row");
  slice.offset_by_elements(b, "t5", 8, {"a3", "a4"}, "t6", "a0");
  slice.offset_by_rows(b, "t5", kUnroll * 8, {"t1", "t2"}, "t6", "a0");
  b.l(cat("li t3, ", slice.chunk() / kUnroll));
  emit_load_constants(b);
  slice.begin_hart0_only(b, "t5", "dma_done");  // the DMA engine is shared
  emit_dma_stream(b, cfg.n * 8);
  slice.end_hart0_only(b, "dma_done");
  b.l("csrwi region, 1");
  emit_baseline_loop(b);
  b.l("csrwi region, 2");
  b.l("csrr t0, fpss");
  slice.epilogue(b);
  return b.str();
}

// ---------------------------------------------------------------------------
// COPIFT variant
// ---------------------------------------------------------------------------

/// Phase 0 FREP body, unrolled 2x (element pair A/B per iteration, op-major
/// so the two dependency chains interleave and hide FPU latency): computes
/// ki and the polynomial w from x. A regs: fa0..fa4; B regs: ft3..ft7.
void emit_frep_a(AsmBuilder& b, std::uint32_t block) {
  b.c("frep A: phase 0 (reads x on ft0, writes ki+w on ft1), 2x unrolled");
  b.l("scfgwi s0, 33");   // lane1 bound0 <- 1 (pair dim of the 3-D write)
  b.l("scfgwi a3, 24");   // lane0 RPTR0 <- x block
  b.l("scfgwi s2, 62");   // lane1 WPTR2 <- ki/w slot (3-D pair/field/group)
  b.l("frep.o t4, 18");
  b.l("fmul.d fa0, fs0, ft0");        // zA = InvLn2N * xA
  b.l("fmul.d ft3, fs0, ft0");        // zB
  b.l("fadd.d fa1, fa0, fs1");        // kdA = z + SHIFT
  b.l("fadd.d ft4, ft3, fs1");        // kdB
  b.l("fmv.d ft1, fa1");              // emit kiA (low word of kd)
  b.l("fmv.d ft1, ft4");              // emit kiB
  b.l("fsub.d fa2, fa1, fs1");        // kd2A
  b.l("fsub.d ft5, ft4, fs1");        // kd2B
  b.l("fsub.d fa0, fa0, fa2");        // rA = z - kd2
  b.l("fsub.d ft3, ft3, ft5");        // rB
  b.l("fmadd.d fa3, fs2, fa0, fs3");  // p1A = C0*r + C1
  b.l("fmadd.d ft6, fs2, ft3, fs3");  // p1B
  b.l("fmadd.d fa4, fs4, fa0, fs5");  // p2A = C2*r + 1
  b.l("fmadd.d ft7, fs4, ft3, fs5");  // p2B
  b.l("fmul.d fa0, fa0, fa0");        // r2A
  b.l("fmul.d ft3, ft3, ft3");        // r2B
  b.l("fmadd.d ft1, fa3, fa0, fa4");  // emit wA = p1*r2 + p2
  b.l("fmadd.d ft1, ft6, ft3, ft7");  // emit wB
  emit_add_imm(b, "a3", "a3", block * 8, "t6");
}

/// Phase 2 FREP body: y = w * s with w on lane ft2 and s on lane ft1 (two
/// lanes so each fmul needs only one element per lane per cycle — one
/// element of y per cycle in steady state). Unrolled 2x to share the B/2-1
/// repetition register with frep A.
void emit_frep_b(AsmBuilder& b, std::uint32_t block) {
  b.c("frep B: phase 2 (reads w on ft2 and t on ft1, writes y on ft0)");
  b.l("scfgwi s11, 33");  // lane1 bound0 <- B-1 (1-D read of the t field)
  emit_add_imm(b, "t6", "s4", block * 8, "t6");  // w field of the w/t slot
  b.l("scfgwi t6, 88");   // lane2 RPTR0 <- w (1-D)
  emit_add_imm(b, "t6", "s4", 2 * block * 8, "t6");  // t field
  b.l("scfgwi t6, 56");   // lane1 RPTR0 <- t (1-D)
  b.l("scfgwi a4, 28");   // lane0 WPTR0 <- y block
  b.l("frep.o t4, 2");
  b.l("fmul.d ft0, ft2, ft1");  // yA = wA * sA
  b.l("fmul.d ft0, ft2, ft1");  // yB
  emit_add_imm(b, "a4", "a4", block * 8, "t6");
}

/// Integer phase 1 over one block (slot base in s3).
void emit_int_phase(AsmBuilder& b, std::uint32_t block, unsigned site) {
  b.c("integer phase 1: table lookup over the block");
  b.l("mv t5, s3");
  emit_add_imm(b, "s1", "s3", 2 * block * 8, "s1");
  emit_add_imm(b, "t2", "s3", block * 8, "t2");
  b.label(cat("int_loop_", site));
  emit_int_lookup4(b, "t5", "s1");
  b.l("addi t5, t5, 32");
  b.l("addi s1, s1, 32");
  b.l(cat("bne t5, t2, int_loop_", site));
}

void emit_rotate(AsmBuilder& b) {
  b.c("rotate slot roles: kiw -> int -> wt -> kiw");
  b.l("mv t6, s3");
  b.l("mv s3, s2");
  b.l("mv s2, s4");
  b.l("mv s4, t6");
}

/// The SSR lane shapes shared by every block (and, tiled, every tile):
/// geometry depends only on the block size, so it is configured once.
/// Leaves the constants s0 = 1 and s11 = B-1 live. Clobbers t6.
void emit_ssr_shapes(AsmBuilder& b, std::uint32_t block) {
  b.c("static SSR shapes: lane0 1-D (B) for x reads / y writes; lane1 is a");
  b.c("3-D pair/field/group write (frep A) or a 1-D t read (frep B) — its");
  b.c("bound0 toggles per arm; lane2 is a 1-D w read");
  b.l("li s0, 1");                      // constant: pair-dim bound
  b.l(cat("li s11, ", block - 1));      // constant: 1-D bound
  b.l("scfgwi s11, 1");   // lane0 bound0 = B-1
  b.l("li t6, 8");
  b.l("scfgwi t6, 5");    // lane0 stride0 = 8
  // lane1: stride0 = 8; d1 = field ki->w (2 x B*8), d2 = group (B/2 x 16B).
  b.l("li t6, 8");
  b.l("scfgwi t6, 37");                 // stride0 = 8
  b.l("li t6, 1");
  b.l("scfgwi t6, 34");                 // bound1 = 1
  b.l(cat("li t6, ", block * 8));
  b.l("scfgwi t6, 38");                 // stride1 = B*8
  b.l(cat("li t6, ", block / 2 - 1));
  b.l("scfgwi t6, 35");                 // bound2 = B/2-1
  b.l("li t6, 16");
  b.l("scfgwi t6, 39");                 // stride2 = 16
  // lane2: 1-D read of B doubles.
  b.l("scfgwi s11, 65");                // bound0 = B-1
  b.l("li t6, 8");
  b.l("scfgwi t6, 69");                 // stride0 = 8
}

std::string generate_copift(const KernelConfig& cfg) {
  const std::uint32_t block = cfg.block;
  const HartSlice slice(cfg);
  workload::TiledBuffer tiled = make_exp_tiled(cfg);
  // Blocks per pipelined run: one tile's per-hart chunk, or the whole chunk.
  const std::uint32_t nb = (tiled.enabled() ? tiled.chunk() : slice.chunk()) / block;
  // The three-phase pipeline over one run of blocks (x at a3, y at a4, arena
  // slots in s2/s3/s4), for the untiled program and each tile of the tiled one.
  const workload::SoftwarePipeline pipe(
      kExpPhases,
      {[block](AsmBuilder& b, unsigned) { emit_frep_a(b, block); },
       [block](AsmBuilder& b, unsigned site) { emit_int_phase(b, block, site); },
       [block](AsmBuilder& b, unsigned) { emit_frep_b(b, block); }},
      emit_rotate);

  AsmBuilder b;
  emit_exp_data(b, cfg, /*copift=*/true, tiled);
  b.label("_start");
  if (tiled.enabled()) {
    b.l("la t0, exp_tab");
    b.l(cat("li t4, ", block / 2 - 1));  // FREP repetitions - 1
    b.l("la s2, arena");             // p_kiw = slot(0)
    b.l(cat("la s3, arena + ", 2 * 3 * block * 8));  // p_int = slot(2)
    b.l(cat("la s4, arena + ", 3 * block * 8));      // p_wt  = slot(1)
    slice.read_hartid(b, "t5", "partition: this hart's tile slice and arena row");
    slice.offset_by_rows(b, "t5", 3 * 3 * block * 8, {"s2", "s3", "s4"}, "t1", "t2");
    emit_load_constants(b);
    emit_ssr_shapes(b, block);
    tiled.prologue(b, slice);
    b.l("csrwi region, 1");
    b.label("tile_loop");
    tiled.hart0_stage(b, slice);
    slice.read_hartid(b, "t5");  // the integer phase clobbered t5 last tile
    tiled.compute_base(b, "a3", 0, "t5", "t1", "t2");
    tiled.compute_base(b, "a4", 1, "t5", "t1", "t2");
    b.l("csrsi ssr, 1");
    pipe.load_steady_count(b, nb);
    pipe.emit(b);
    b.l("csrr t3, fpss");  // drain (t0 keeps exp_tab; t3 is spent)
    b.l("csrci ssr, 1");   // release ft0-2 before the tile barrier
    tiled.tile_epilogue(b, slice, "tile_loop");
    b.l("csrwi region, 2");
    tiled.final_store(b, slice);
    slice.epilogue(b);
    return b.str();
  }
  b.l("la a3, xarr");
  b.l("la a4, yarr");
  b.l("la t0, exp_tab");
  b.l(cat("li t4, ", block / 2 - 1));  // FREP repetitions - 1 (2x unrolled body)
  b.l("la s2, arena");             // p_kiw = slot(0)
  b.l(cat("la s3, arena + ", 2 * 3 * block * 8));  // p_int = slot(2)
  b.l(cat("la s4, arena + ", 3 * block * 8));      // p_wt  = slot(1)
  slice.read_hartid(b, "t5", "partition: this hart's x/y chunk and arena row");
  slice.offset_by_elements(b, "t5", 8, {"a3", "a4"}, "t1", "t2");
  slice.offset_by_rows(b, "t5", 3 * 3 * block * 8, {"s2", "s3", "s4"}, "t1", "t2");
  emit_load_constants(b);
  b.l("csrsi ssr, 1");
  emit_ssr_shapes(b, block);
  slice.begin_hart0_only(b, "t5", "dma_done");  // the DMA engine is shared
  emit_dma_stream(b, cfg.n * 8);
  slice.end_hart0_only(b, "dma_done");
  pipe.load_steady_count(b, nb);
  b.l("csrwi region, 1");
  pipe.emit(b);
  b.l("csrr t0, fpss");  // drain
  b.l("csrci ssr, 1");
  b.l("csrwi region, 2");
  slice.epilogue(b);
  return b.str();
}

}  // namespace

std::string generate_exp(Variant variant, const KernelConfig& cfg) {
  return variant == Variant::kBaseline ? generate_baseline(cfg) : generate_copift(cfg);
}

}  // namespace copift::kernels
