// Assembly generators for the Monte Carlo kernels (paper Section III-A):
// {pi, poly} x {LCG, xoshiro128+}.
//
// Baselines draw pseudo-random pairs with integer arithmetic, convert and
// test in double precision, and accumulate hits in an integer register
// (flt.d bridges FP -> integer RF each sample — the Type-3 dependency).
//
// COPIFT variants split the PRN generation (integer phase) from the
// conversion/test (FP phase under FREP): raw PRNs are spilled to a
// double-buffered TCDM arena, streamed into the FPSS via an SSR, converted
// with fcvt.d.wu.cop, tested with flt.d.cop and accumulated with fadd.d —
// entirely inside the FP register file (paper Section II-B).
// Multi-hart runs partition the sample index space contiguously: hart h
// evaluates samples [h*chunk, (h+1)*chunk). Each hart's PRNG streams start
// from jump-ahead states computed at codegen time (stored in the per-hart
// `hart_prng` table), so the union of all harts' draws is exactly the
// single-hart sequence and the summed hit count is bit-identical to the
// single-core run. Harts store partial counts into `partials`, rendezvous at
// the hardware barrier, and hart 0 reduces into `result`.
#include <cmath>
#include <string>

#include "kernels/codegen.hpp"
#include "kernels/kernels.hpp"
#include "kernels/kernel_internal.hpp"
#include "kernels/montecarlo.hpp"
#include "kernels/prng.hpp"
#include "workload/hart_slice.hpp"
#include "workload/software_pipeline.hpp"

namespace copift::kernels {

namespace {

using workload::HartSlice;

const char* lcg_state(unsigned u) {
  static constexpr const char* kRegs[] = {"s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9"};
  return kRegs[u];
}
const char* hit_reg(unsigned u) {
  static constexpr const char* kRegs[] = {"a2", "a3", "a4", "a5", "a6", "a7", "t5", "t6"};
  return kRegs[u];
}

/// Per-hart PRNG start-state rows (8 words each), jump-ahead computed on the
/// host. LCG rows hold the 8 slot-stream states (each slot consumes 2 draws
/// per group of kMcUnroll samples); xoshiro rows hold the x-generator and
/// y-generator states (each consumes one draw per sample).
void emit_prng_table(AsmBuilder& b, const KernelConfig& cfg, bool xoshiro) {
  const std::uint32_t chunk = cfg.n / cfg.cores;
  b.label("hart_prng");
  for (std::uint32_t h = 0; h < cfg.cores; ++h) {
    if (!xoshiro) {
      const std::uint64_t draws = static_cast<std::uint64_t>(h) * chunk / 4;
      for (unsigned u = 0; u < kMcUnroll; ++u) {
        Lcg gen(cfg.seed + u);
        for (std::uint64_t d = 0; d < draws; ++d) gen.next();
        b.l(cat(".word ", gen.state()));
      }
    } else {
      const std::uint64_t draws = static_cast<std::uint64_t>(h) * chunk;
      auto gx = Xoshiro128Plus::seeded(cfg.seed);
      auto gy = Xoshiro128Plus::seeded(cfg.seed + 1);
      for (std::uint64_t d = 0; d < draws; ++d) {
        gx.next();
        gy.next();
      }
      for (const std::uint32_t w : gx.state()) b.l(cat(".word ", w));
      for (const std::uint32_t w : gy.state()) b.l(cat(".word ", w));
    }
  }
}

void emit_mc_data(AsmBuilder& b, const KernelConfig& cfg, bool poly, bool copift,
                  bool xoshiro) {
  b.raw(".data\n");
  b.l(".align 3");
  b.label("mc_const");
  b.l(dword_of(0x1p-32));  // raw -> [0,1) scale
  b.l(dword_of(1.0));
  if (poly) {
    const auto& c = mc_poly_coeffs();
    if (!copift) {
      // Baseline: Horner order c5, c4, c3, c2, c1, c0 into fs2..fs7.
      for (int i = 5; i >= 0; --i) b.l(dword_of(c[static_cast<std::size_t>(i)]));
    } else {
      // COPIFT: even/odd split evaluated in the raw PRN domain
      // (X = x * 2^32, T = X^2 = t * 2^64), with coefficients pre-scaled by
      // exact powers of two so the result equals P(x) * 2^32 bit-for-bit:
      //   even chain: c4 * 2^-96, c2 * 2^-32, c0 * 2^32   (fs2, fs3, fs4)
      //   odd  chain: c5 * 2^-128, c3 * 2^-64, c1         (fs5, fs6, fs7)
      // This saves the two [0,1) scale multiplies per sample and halves the
      // dependency-chain depth vs Horner (see emit_fp_frep).
      b.l(dword_of(c[4] * 0x1p-96));
      b.l(dword_of(c[2] * 0x1p-32));
      b.l(dword_of(c[0] * 0x1p+32));
      b.l(dword_of(c[5] * 0x1p-128));
      b.l(dword_of(c[3] * 0x1p-64));
      b.l(dword_of(c[1]));
    }
  }
  b.label("result");
  b.l(".space 8");
  if (cfg.cores > 1) {
    b.label("partials");  // one 8-byte hit-count cell per hart
    b.l(cat(".space ", cfg.cores * 8));
    emit_prng_table(b, cfg, xoshiro);
  }
  if (copift) {
    // PRN arena: 2 slots x 2B raw values in 8-byte cells; one row per hart.
    b.label("arena");
    b.l(cat(".space ", 2 * 2 * cfg.block * 8 * cfg.cores));
  }
  b.raw(".text\n");
}

/// Load this hart's PRNG start states into s2..s9 (covers both the 8 LCG
/// slot streams and the xoshiro x/y generator states). Only for cores > 1;
/// single-core programs keep their historical `li` seed sequences.
void emit_prng_seed_load(AsmBuilder& b, const HartSlice& slice) {
  slice.read_hartid(b, "t5", "per-hart PRNG start states (jump-ahead computed at codegen)");
  slice.table_row(b, "t5", "a1", "hart_prng", 32, "t6");
  for (unsigned i = 0; i < 8; ++i) b.l(cat("lw s", 2 + i, ", ", i * 4, "(a1)"));
}

/// Store this hart's integer hit count (in a0), reduce on hart 0 into
/// `result`, and halt. Replaces the single-core `result` store.
void emit_int_reduction(AsmBuilder& b, const HartSlice& slice) {
  b.l("csrr t5, mhartid");
  slice.table_row(b, "t5", "t0", "partials", 8, "t6");
  b.l("sw a0, 0(t0)");
  b.l("csrwi region, 2");
  b.l("csrr zero, barrier");
  b.l("bnez t5, mc_done");
  b.c("hart 0: sum the per-hart partial counts");
  b.l("la t0, partials");
  b.l("lw a0, 0(t0)");
  for (std::uint32_t h = 1; h < slice.cores(); ++h) {
    b.l(cat("lw t1, ", h * 8, "(t0)"));
    b.l("add a0, a0, t1");
  }
  b.l("la t0, result");
  b.l("sw a0, 0(t0)");
  b.label("mc_done");
  b.l("ecall");
}

/// COPIFT counterpart: the partial lives in fa5 as an exact integer-valued
/// double; hart 0 sums in hart order (exact, so the total is bit-identical
/// to the single-core accumulation).
void emit_fp_reduction(AsmBuilder& b, const HartSlice& slice) {
  b.l("csrr t5, mhartid");
  slice.table_row(b, "t5", "t0", "partials", 8, "t6");
  b.l("fsd fa5, 0(t0)");
  b.l("csrr t2, fpss");  // drain the partial store before the barrier
  b.l("csrwi region, 2");
  b.l("csrr zero, barrier");
  b.l("bnez t5, mc_done");
  b.c("hart 0: sum the per-hart partial counts");
  b.l("la t0, partials");
  b.l("fld fa5, 0(t0)");
  for (std::uint32_t h = 1; h < slice.cores(); ++h) {
    b.l(cat("fld ft5, ", h * 8, "(t0)"));
    b.l("fadd.d fa5, fa5, ft5");
  }
  b.l("la t0, result");
  b.l("fsd fa5, 0(t0)");
  b.l("csrr t2, fpss");  // drain the result store
  b.label("mc_done");
  b.l("ecall");
}

void emit_mc_constants(AsmBuilder& b, bool poly) {
  b.l("la s0, mc_const");
  b.l("fld fs0, 0(s0)");  // 2^-32
  b.l("fld fs1, 8(s0)");  // 1.0
  if (poly) {
    for (unsigned i = 0; i < 6; ++i) b.l(cat("fld fs", 2 + i, ", ", 16 + i * 8, "(s0)"));
  }
}

const char* poly_p_reg(unsigned u) {
  static constexpr const char* kRegs[] = {"ft8", "ft9", "ft10", "ft11",
                                          "fs8", "fs9", "fs10", "fs11"};
  return kRegs[u];
}

// ---------------------------------------------------------------------------
// LCG baseline: 8 independent streams, op-major schedule.
// ---------------------------------------------------------------------------

std::string lcg_baseline(const KernelConfig& cfg, bool poly) {
  const HartSlice slice(cfg);
  AsmBuilder b;
  emit_mc_data(b, cfg, poly, /*copift=*/false, /*xoshiro=*/false);
  b.label("_start");
  if (slice.multi()) {
    emit_prng_seed_load(b, slice);
  } else {
    for (unsigned u = 0; u < kMcUnroll; ++u) {
      b.l(cat("li ", lcg_state(u), ", ", cfg.seed + u));
    }
  }
  b.l(cat("li t0, ", Lcg::kMul));
  b.l(cat("li t1, ", Lcg::kInc));
  b.l("li a0, 0");  // hit accumulator
  b.l(cat("li t3, ", slice.chunk() / kMcUnroll));
  emit_mc_constants(b, poly);
  b.l("csrwi region, 1");
  b.label("body_begin");
  for (unsigned u = 0; u < kMcUnroll; ++u)
    b.l(cat("mul ", lcg_state(u), ", ", lcg_state(u), ", t0"));
  for (unsigned u = 0; u < kMcUnroll; ++u)
    b.l(cat("add ", lcg_state(u), ", ", lcg_state(u), ", t1"));
  for (unsigned u = 0; u < kMcUnroll; ++u) b.l(cat("fcvt.d.wu fa", u, ", ", lcg_state(u)));
  for (unsigned u = 0; u < kMcUnroll; ++u) b.l(cat("fmul.d fa", u, ", fa", u, ", fs0"));
  for (unsigned u = 0; u < kMcUnroll; ++u)
    b.l(cat("mul ", lcg_state(u), ", ", lcg_state(u), ", t0"));
  for (unsigned u = 0; u < kMcUnroll; ++u)
    b.l(cat("add ", lcg_state(u), ", ", lcg_state(u), ", t1"));
  for (unsigned u = 0; u < kMcUnroll; ++u) b.l(cat("fcvt.d.wu ft", u, ", ", lcg_state(u)));
  for (unsigned u = 0; u < kMcUnroll; ++u) b.l(cat("fmul.d ft", u, ", ft", u, ", fs0"));
  if (poly) {
    for (unsigned step = 0; step < 5; ++step) {
      for (unsigned u = 0; u < kMcUnroll; ++u) {
        if (step == 0) {
          b.l(cat("fmadd.d ", poly_p_reg(u), ", fs2, fa", u, ", fs3"));
        } else {
          b.l(cat("fmadd.d ", poly_p_reg(u), ", ", poly_p_reg(u), ", fa", u, ", fs",
                  3 + step));
        }
      }
    }
    for (unsigned u = 0; u < kMcUnroll; ++u)
      b.l(cat("flt.d ", hit_reg(u), ", ft", u, ", ", poly_p_reg(u)));
  } else {
    for (unsigned u = 0; u < kMcUnroll; ++u) b.l(cat("fmul.d fa", u, ", fa", u, ", fa", u));
    for (unsigned u = 0; u < kMcUnroll; ++u)
      b.l(cat("fmadd.d fa", u, ", ft", u, ", ft", u, ", fa", u));
    for (unsigned u = 0; u < kMcUnroll; ++u)
      b.l(cat("flt.d ", hit_reg(u), ", fa", u, ", fs1"));
  }
  for (unsigned u = 0; u < kMcUnroll; ++u) b.l(cat("add a0, a0, ", hit_reg(u)));
  b.l("addi t3, t3, -1");
  b.l("bnez t3, body_begin");
  b.label("body_end");
  if (slice.multi()) {
    emit_int_reduction(b, slice);
  } else {
    b.l("la t0, result");
    b.l("sw a0, 0(t0)");
    b.l("csrwi region, 2");
    b.l("ecall");
  }
  return b.str();
}

// ---------------------------------------------------------------------------
// xoshiro128+ baseline: one x-generator + one y-generator kept in registers.
// ---------------------------------------------------------------------------

/// Emit one xoshiro128+ draw into `dst` updating state regs {r0..r3}.
void emit_xoshiro_next(AsmBuilder& b, const char* dst, const char* r0, const char* r1,
                       const char* r2, const char* r3) {
  b.l(cat("add ", dst, ", ", r0, ", ", r3));  // result = s0 + s3
  b.l(cat("slli t5, ", r1, ", 9"));           // t = s1 << 9
  b.l(cat("xor ", r2, ", ", r2, ", ", r0));
  b.l(cat("xor ", r3, ", ", r3, ", ", r1));
  b.l(cat("xor ", r1, ", ", r1, ", ", r2));
  b.l(cat("xor ", r0, ", ", r0, ", ", r3));
  b.l(cat("xor ", r2, ", ", r2, ", t5"));
  b.l(cat("slli t6, ", r3, ", 11"));          // rotl(s3, 11)
  b.l(cat("srli ", r3, ", ", r3, ", 21"));
  b.l(cat("or ", r3, ", t6, ", r3));
}

void emit_xoshiro_seed(AsmBuilder& b, std::uint32_t seed, bool y_gen) {
  const auto gen = Xoshiro128Plus::seeded(seed);
  for (unsigned i = 0; i < 4; ++i) {
    b.l(cat("li ", y_gen ? "s" : "s", y_gen ? 6 + i : 2 + i, ", ", gen.state()[i]));
  }
}

std::string xoshiro_baseline(const KernelConfig& cfg, bool poly) {
  const HartSlice slice(cfg);
  AsmBuilder b;
  emit_mc_data(b, cfg, poly, /*copift=*/false, /*xoshiro=*/true);
  b.label("_start");
  if (slice.multi()) {
    emit_prng_seed_load(b, slice);  // x-gen s2..s5, y-gen s6..s9
  } else {
    emit_xoshiro_seed(b, cfg.seed, /*y_gen=*/false);      // s2..s5
    emit_xoshiro_seed(b, cfg.seed + 1, /*y_gen=*/true);   // s6..s9
  }
  b.l("li a0, 0");   // accumulator
  b.l("li a5, 0");   // deferred hit of the previous sample
  b.l(cat("li t3, ", slice.chunk() / kMcUnroll));
  emit_mc_constants(b, poly);
  b.l("csrwi region, 1");
  b.label("body_begin");
  for (unsigned s = 0; s < kMcUnroll; ++s) {
    const unsigned u = s % 4;  // FP register rotation across samples
    const char* hit = (s % 2) == 0 ? "a4" : "a5";
    const char* prev = (s % 2) == 0 ? "a5" : "a4";
    emit_xoshiro_next(b, "a2", "s2", "s3", "s4", "s5");
    emit_xoshiro_next(b, "a3", "s6", "s7", "s8", "s9");
    b.l(cat("fcvt.d.wu fa", u, ", a2"));
    b.l(cat("fmul.d fa", u, ", fa", u, ", fs0"));
    b.l(cat("fcvt.d.wu ft", u, ", a3"));
    b.l(cat("fmul.d ft", u, ", ft", u, ", fs0"));
    if (poly) {
      b.l(cat("fmadd.d ", poly_p_reg(u), ", fs2, fa", u, ", fs3"));
      for (unsigned step = 1; step < 5; ++step) {
        b.l(cat("fmadd.d ", poly_p_reg(u), ", ", poly_p_reg(u), ", fa", u, ", fs", 3 + step));
      }
    } else {
      b.l(cat("fmul.d fa", u, ", fa", u, ", fa", u));
      b.l(cat("fmadd.d fa", u, ", ft", u, ", ft", u, ", fa", u));
    }
    b.l(cat("add a0, a0, ", prev));  // deferred accumulate (hides flt latency)
    if (poly) {
      b.l(cat("flt.d ", hit, ", ft", u, ", ", poly_p_reg(u)));
    } else {
      b.l(cat("flt.d ", hit, ", fa", u, ", fs1"));
    }
  }
  b.l("addi t3, t3, -1");
  b.l("bnez t3, body_begin");
  b.label("body_end");
  b.l("add a0, a0, a5");  // last pending hit (kMcUnroll is even)
  if (slice.multi()) {
    emit_int_reduction(b, slice);
  } else {
    b.l("la t0, result");
    b.l("sw a0, 0(t0)");
    b.l("csrwi region, 2");
    b.l("ecall");
  }
  return b.str();
}

// ---------------------------------------------------------------------------
// COPIFT variants
// ---------------------------------------------------------------------------

/// Raw-PRN cell offsets within the arena slot. The FP FREP body is unrolled
/// 2x op-major, so the stream consumption order per sample pair (A, B) is
/// xA, xB, yA, yB — cells are laid out in groups of four accordingly.
std::uint32_t x_cell(unsigned s) { return (s / 2) * 32 + (s % 2) * 8; }
std::uint32_t y_cell(unsigned s) { return x_cell(s) + 16; }

/// Integer PRN phase for one block: writes raw (x, y) values into 8-byte
/// cells at the arena slot in s10.
void emit_int_prn_phase(AsmBuilder& b, const KernelConfig& cfg, bool xoshiro, unsigned site) {
  const std::uint32_t block = cfg.block;
  b.c("integer phase: PRN generation into the write slot");
  b.l("mv a1, s10");
  emit_add_imm(b, "a0", "s10", 2 * block * 8, "a0");
  b.label(cat("prn_loop_", site));
  if (!xoshiro) {
    for (unsigned u = 0; u < kMcUnroll; ++u)
      b.l(cat("mul ", lcg_state(u), ", ", lcg_state(u), ", t0"));
    for (unsigned u = 0; u < kMcUnroll; ++u)
      b.l(cat("add ", lcg_state(u), ", ", lcg_state(u), ", t1"));
    for (unsigned u = 0; u < kMcUnroll; ++u)
      b.l(cat("sw ", lcg_state(u), ", ", x_cell(u), "(a1)"));
    for (unsigned u = 0; u < kMcUnroll; ++u)
      b.l(cat("mul ", lcg_state(u), ", ", lcg_state(u), ", t0"));
    for (unsigned u = 0; u < kMcUnroll; ++u)
      b.l(cat("add ", lcg_state(u), ", ", lcg_state(u), ", t1"));
    for (unsigned u = 0; u < kMcUnroll; ++u)
      b.l(cat("sw ", lcg_state(u), ", ", y_cell(u), "(a1)"));
  } else {
    for (unsigned s = 0; s < kMcUnroll; ++s) {
      emit_xoshiro_next(b, "a2", "s2", "s3", "s4", "s5");
      b.l(cat("sw a2, ", x_cell(s), "(a1)"));
      emit_xoshiro_next(b, "a3", "s6", "s7", "s8", "s9");
      b.l(cat("sw a3, ", y_cell(s), "(a1)"));
    }
  }
  b.l(cat("addi a1, a1, ", kMcUnroll * 16));
  b.l(cat("bne a1, a0, prn_loop_", site));
}

/// FP phase FREP body (2x unrolled, op-major): consumes sample pairs from
/// ft0 and accumulates hits into fa5 (pair slot A) and ft5 (pair slot B).
///
/// The accumulation is rotated by one loop iteration: each iteration adds
/// the *previous* iteration's hit flags (hit registers are zero-initialized
/// and the final pair is added in the epilogue). Combined with careful
/// op-major interleaving this gives every 3-cycle producer at least 3 issue
/// slots before its consumer — a zero-stall steady state.
void emit_fp_frep(AsmBuilder& b, bool poly) {
  const unsigned body = poly ? 20 : 16;
  b.l("scfgwi s11, 26");  // lane0 RPTR2 <- read slot (3-D pair/field/group)
  b.l(cat("frep.o t4, ", body));
  if (poly) {
    // Raw-domain even/odd evaluation: P''(X) = E''(T) + X*O''(T), T = X^2,
    // coefficients pre-scaled (see emit_mc_data). Hit: Y < P''(X).
    b.l("fcvt.d.wu.cop fa0, ft0");      // XA
    b.l("fcvt.d.wu.cop fa6, ft0");      // XB
    b.l("fcvt.d.wu.cop fa1, ft0");      // YA
    b.l("fcvt.d.wu.cop fa7, ft0");      // YB
    b.l("fmul.d fa2, fa0, fa0");        // TA
    b.l("fmul.d ft3, fa6, fa6");        // TB
    b.l("fmadd.d fa3, fs2, fa2, fs3");  // eA = c4''*T + c2''
    b.l("fmadd.d ft4, fs2, ft3, fs3");  // eB
    b.l("fmadd.d fa4, fs5, fa2, fs6");  // oA = c5''*T + c3''
    b.l("fmadd.d ft6, fs5, ft3, fs6");  // oB
    b.l("fmadd.d fa3, fa3, fa2, fs4");  // eA = e*T + c0''
    b.l("fmadd.d ft4, ft4, ft3, fs4");  // eB
    b.l("fmadd.d fa4, fa4, fa2, fs7");  // oA = o*T + c1''
    b.l("fmadd.d ft6, ft6, ft3, fs7");  // oB
    b.l("fadd.d fa5, fa5, ft7");        // accumulate previous pair's hits
    b.l("fmadd.d fa3, fa4, fa0, fa3");  // PA = o*X + e
    b.l("fmadd.d ft4, ft6, fa6, ft4");  // PB
    b.l("fadd.d ft5, ft5, ft8");
    b.l("flt.d.cop ft7, fa1, fa3");     // hitA = YA < PA
    b.l("flt.d.cop ft8, fa7, ft4");     // hitB
  } else {
    b.l("fcvt.d.wu.cop fa0, ft0");  // xA
    b.l("fcvt.d.wu.cop fa6, ft0");  // xB
    b.l("fcvt.d.wu.cop fa1, ft0");  // yA
    b.l("fcvt.d.wu.cop fa7, ft0");  // yB
    b.l("fmul.d fa0, fa0, fs0");
    b.l("fmul.d fa6, fa6, fs0");
    b.l("fmul.d fa1, fa1, fs0");
    b.l("fmul.d fa7, fa7, fs0");
    b.l("fmul.d fa0, fa0, fa0");    // xxA
    b.l("fmul.d fa6, fa6, fa6");    // xxB
    b.l("fadd.d fa5, fa5, fa2");    // accumulate previous pair's hits
    b.l("fmadd.d fa0, fa1, fa1, fa0");  // ttA
    b.l("fmadd.d fa6, fa7, fa7, fa6");  // ttB
    b.l("fadd.d ft5, ft5, fa4");
    b.l("flt.d.cop fa2, fa0, fs1");     // hitA
    b.l("flt.d.cop fa4, fa6, fs1");     // hitB
  }
}

std::string mc_copift(const KernelConfig& cfg, bool poly, bool xoshiro) {
  const std::uint32_t block = cfg.block;
  const HartSlice slice(cfg);
  const workload::SoftwarePipeline pipe(
      kMcPhases,
      {[&](AsmBuilder& b, unsigned site) { emit_int_prn_phase(b, cfg, xoshiro, site); },
       [&](AsmBuilder& b, unsigned) { emit_fp_frep(b, poly); }},
      [](AsmBuilder& b) {
        b.l("mv t6, s10");
        b.l("mv s10, s11");
        b.l("mv s11, t6");
      });

  AsmBuilder b;
  emit_mc_data(b, cfg, poly, /*copift=*/true, xoshiro);
  b.label("_start");
  if (slice.multi()) {
    emit_prng_seed_load(b, slice);
    if (!xoshiro) {
      b.l(cat("li t0, ", Lcg::kMul));
      b.l(cat("li t1, ", Lcg::kInc));
    }
  } else if (!xoshiro) {
    for (unsigned u = 0; u < kMcUnroll; ++u)
      b.l(cat("li ", lcg_state(u), ", ", cfg.seed + u));
    b.l(cat("li t0, ", Lcg::kMul));
    b.l(cat("li t1, ", Lcg::kInc));
  } else {
    emit_xoshiro_seed(b, cfg.seed, /*y_gen=*/false);
    emit_xoshiro_seed(b, cfg.seed + 1, /*y_gen=*/true);
  }
  emit_mc_constants(b, poly);
  b.l("fcvt.d.w fa5, zero");  // accumulator A = 0.0
  b.l("fcvt.d.w ft5, zero");  // accumulator B = 0.0
  // Zero-initialize the rotated hit registers (see emit_fp_frep).
  if (poly) {
    b.l("fcvt.d.w ft7, zero");
    b.l("fcvt.d.w ft8, zero");
  } else {
    b.l("fcvt.d.w fa2, zero");
    b.l("fcvt.d.w fa4, zero");
  }
  b.l("la s10, arena");
  b.l(cat("la s11, arena + ", 2 * block * 8));
  if (slice.multi()) {
    b.c("this hart's double-buffered arena row (t5 still holds mhartid)");
    slice.offset_by_rows(b, "t5", 2 * 2 * block * 8, {"s10", "s11"}, "t2", "t6");
  }
  b.l(cat("li t4, ", block / 2 - 1));  // FREP reps (2 samples per iteration)
  pipe.load_steady_count(b, slice.chunk() / block);
  b.l("csrsi ssr, 1");
  b.c("lane0: 3-D read xA,xB,yA,yB per sample pair");
  b.l("li t2, 1");
  b.l("scfgwi t2, 1");    // bound0 = 1 (pair)
  b.l("li t2, 8");
  b.l("scfgwi t2, 5");    // stride0 = 8
  b.l("li t2, 1");
  b.l("scfgwi t2, 2");    // bound1 = 1 (x -> y field)
  b.l("li t2, 16");
  b.l("scfgwi t2, 6");    // stride1 = 16
  b.l(cat("li t2, ", block / 2 - 1));
  b.l("scfgwi t2, 3");    // bound2 = B/2-1 (groups)
  b.l("li t2, 32");
  b.l("scfgwi t2, 7");    // stride2 = 32
  b.l("csrwi region, 1");

  pipe.emit(b);
  b.l("csrr t2, fpss");  // drain
  b.l("csrci ssr, 1");
  b.c("fold in the final pair's hits (rotated accumulation)");
  if (poly) {
    b.l("fadd.d fa5, fa5, ft7");
    b.l("fadd.d ft5, ft5, ft8");
  } else {
    b.l("fadd.d fa5, fa5, fa2");
    b.l("fadd.d ft5, ft5, fa4");
  }
  b.l("fadd.d fa5, fa5, ft5");  // merge the two accumulators
  if (slice.multi()) {
    emit_fp_reduction(b, slice);
  } else {
    b.l("la t0, result");
    b.l("fsd fa5, 0(t0)");
    b.l("csrr t2, fpss");  // drain the result store
    b.l("csrwi region, 2");
    b.l("ecall");
  }
  return b.str();
}

}  // namespace

std::string generate_mc(Variant variant, const KernelConfig& cfg, bool poly, bool xoshiro) {
  if (variant == Variant::kCopift) return mc_copift(cfg, poly, xoshiro);
  return xoshiro ? xoshiro_baseline(cfg, poly) : lcg_baseline(cfg, poly);
}

}  // namespace copift::kernels
