// AXPY workload: y[i] = a * x[i] + y[i] over doubles — the first
// out-of-paper scenario, implemented purely against the public workload API
// (workload.hpp + the AsmBuilder codegen helpers). Nothing in the harness or
// engine knows this file exists; registration alone makes `--kernel axpy`,
// sweeps, steady metrics and CSV/JSON work end-to-end.
//
// Variants:
//   baseline — 4x-unrolled scalar loop (fld/fld/fmadd.d/fsd), op-major so
//              independent elements hide FPU and load latencies.
//   copift   — SSR/FREP streaming form: lanes 0/1 stream x and y into the
//              FPSS, lane 2 streams the results back to memory, and a single
//              2x-unrolled FREP keeps the FPU busy with zero loop overhead.
//              (AXPY has no integer phase to co-issue, so "copift" here means
//              the paper's stream/FREP machinery rather than a dual-issue
//              partition.)
//
// Both variants are multi-hart capable: with cores > 1 each hart reads
// `mhartid`, processes the contiguous n/cores-element slice starting at
// hart * (n/cores), and synchronizes at the hardware `barrier` CSR before
// halting. cores == 1 generates exactly the historical single-core code.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "kernels/codegen.hpp"
#include "kernels/prng.hpp"
#include "sim/cluster.hpp"
#include "workload/hart_slice.hpp"
#include "workload/tiled_buffer.hpp"
#include "workload/workload.hpp"

namespace copift::workloads {
namespace {

using kernels::AsmBuilder;
using kernels::cat;
using kernels::dword_of;
using kernels::Lcg;
using kernels::to_unit_double;
using workload::ConfigError;
using workload::Variant;
using workload::WorkloadConfig;

constexpr unsigned kUnroll = 4;

/// The scalar coefficient, derived deterministically from the seed so every
/// run is reproducible but sweeps over seeds exercise different values.
double axpy_a(std::uint32_t seed) {
  Lcg gen(seed ^ 0xA4B1C2D3u);
  return to_unit_double(gen.next()) * 4.0 - 2.0;  // [-2, 2)
}

std::vector<double> axpy_x(std::uint32_t n, std::uint32_t seed) {
  Lcg gen(seed ^ 0x0A590A59u);
  std::vector<double> x(n);
  for (auto& v : x) v = to_unit_double(gen.next()) * 2.0 - 1.0;  // [-1, 1)
  return x;
}

std::vector<double> axpy_y(std::uint32_t n, std::uint32_t seed) {
  Lcg gen(seed ^ 0x59A059A0u);
  std::vector<double> y(n);
  for (auto& v : y) v = to_unit_double(gen.next()) * 2.0 - 1.0;
  return y;
}

/// The workload's two streamed arrays; in tiled mode TiledBuffer places them
/// in DRAM and stages `<name>_buf` double buffers in TCDM.
workload::TiledBuffer make_tiled(const WorkloadConfig& cfg) {
  return workload::TiledBuffer(
      cfg, {{"xarr", workload::TiledBuffer::kIn, 8},
            {"yarr", workload::TiledBuffer::kInOut, 8}});
}

void emit_data(AsmBuilder& b, const WorkloadConfig& cfg,
               const workload::TiledBuffer& tiled) {
  b.raw(".data\n");
  b.l(".align 3");
  b.label("axpy_const");
  b.l(dword_of(axpy_a(cfg.seed)));
  if (tiled.enabled()) {
    tiled.emit_data(b);
    return;
  }
  b.label("xarr");
  b.l(cat(".space ", cfg.n * 8));
  b.label("yarr");
  b.l(cat(".space ", cfg.n * 8));
  b.raw(".text\n");
}

/// Point a3/a4 at this hart's slice of x/y (no-op single-core, so cores == 1
/// programs stay byte-identical to the historical generator).
void emit_hart_slice(AsmBuilder& b, const workload::HartSlice& slice) {
  slice.read_hartid(b, "t5", "partition: this hart's contiguous chunk of x and y");
  slice.offset_by_elements(b, "t5", 8, {"a3", "a4"}, "t1", "t2");
}

/// The 4x-unrolled scalar loop with x in a3, y in a4 and the iteration count
/// preloaded in t3 (shared by the untiled program and each tile).
void emit_baseline_body(AsmBuilder& b) {
  b.label("body_begin");
  b.c("op-major over 4 independent elements");
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("fld fa", u, ", ", u * 8, "(a3)"));
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("fld ft", u, ", ", u * 8, "(a4)"));
  for (unsigned u = 0; u < kUnroll; ++u) {
    b.l(cat("fmadd.d ft", u, ", fs0, fa", u, ", ft", u));
  }
  for (unsigned u = 0; u < kUnroll; ++u) b.l(cat("fsd ft", u, ", ", u * 8, "(a4)"));
  b.l(cat("addi a3, a3, ", kUnroll * 8));
  b.l(cat("addi a4, a4, ", kUnroll * 8));
  b.l("addi t3, t3, -1");
  b.l("bnez t3, body_begin");
  b.label("body_end");
}

std::string generate_baseline(const WorkloadConfig& cfg) {
  const workload::HartSlice slice(cfg);
  const std::uint32_t chunk = slice.chunk();
  workload::TiledBuffer tiled = make_tiled(cfg);
  AsmBuilder b;
  emit_data(b, cfg, tiled);
  b.label("_start");
  if (tiled.enabled()) {
    b.l("la s0, axpy_const");
    b.l("fld fs0, 0(s0)");  // a
    slice.read_hartid(b, "t5", "partition: this hart's slice of every tile");
    tiled.prologue(b, slice);
    b.l("csrwi region, 1");
    b.label("tile_loop");
    tiled.hart0_stage(b, slice);
    tiled.compute_base(b, "a3", 0, "t5", "t1", "t2");
    tiled.compute_base(b, "a4", 1, "t5", "t1", "t2");
    b.l(cat("li t3, ", tiled.chunk() / kUnroll));
    emit_baseline_body(b);
    b.l("csrr t0, fpss");  // land the offloaded fsd stores before the DMA-out
    tiled.tile_epilogue(b, slice, "tile_loop");
    b.l("csrwi region, 2");
    tiled.final_store(b, slice);
    slice.epilogue(b);
    return b.str();
  }
  b.l("la a3, xarr");
  b.l("la a4, yarr");
  b.l("la s0, axpy_const");
  b.l("fld fs0, 0(s0)");  // a
  emit_hart_slice(b, slice);
  b.l(cat("li t3, ", chunk / kUnroll));
  b.l("csrwi region, 1");
  emit_baseline_body(b);
  b.l("csrwi region, 2");
  b.l("csrr t0, fpss");  // drain offloaded stores before halting
  slice.epilogue(b);  // harts leave together; barrier-wait counters expose imbalance
  return b.str();
}

/// Bounds/strides for the three SSR lanes over `count` contiguous doubles
/// (lane0 reads x, lane1 reads y, lane2 writes y). Clobbers t6.
void emit_ssr_geometry(AsmBuilder& b, std::uint32_t count) {
  b.c("lane0 reads x (ft0), lane1 reads y (ft1), lane2 writes y (ft2);");
  b.c("all three are 1-D streams of this hart's contiguous doubles");
  b.l(cat("li t6, ", count - 1));
  b.l("scfgwi t6, 1");    // lane0 bound0 = n-1
  b.l("scfgwi t6, 33");   // lane1 bound0
  b.l("scfgwi t6, 65");   // lane2 bound0
  b.l("li t6, 8");
  b.l("scfgwi t6, 5");    // lane0 stride0 = 8
  b.l("scfgwi t6, 37");   // lane1 stride0
  b.l("scfgwi t6, 69");   // lane2 stride0
}

/// Arm the lane pointers at a3/a4 and run one FREP burst over them. The
/// trailing `csrr t0, fpss` lands the lane-2 writes in TCDM.
void emit_copift_body(AsmBuilder& b) {
  b.l("scfgwi a3, 24");   // lane0 RPTR0 <- x (arms the read stream)
  b.l("scfgwi a4, 56");   // lane1 RPTR0 <- y
  b.l("scfgwi a4, 92");   // lane2 WPTR0 <- y (arms the write stream)
  b.label("body_begin");
  b.l("frep.o t4, 2");
  b.l("fmadd.d ft2, fs0, ft0, ft1");
  b.l("fmadd.d ft2, fs0, ft0, ft1");
  b.label("body_end");
  b.l("csrr t0, fpss");  // drain the FPSS and the lane-2 write stream
}

std::string generate_copift(const WorkloadConfig& cfg) {
  const workload::HartSlice slice(cfg);
  const std::uint32_t chunk = slice.chunk();
  workload::TiledBuffer tiled = make_tiled(cfg);
  AsmBuilder b;
  emit_data(b, cfg, tiled);
  b.label("_start");
  if (tiled.enabled()) {
    b.l("la s0, axpy_const");
    b.l("fld fs0, 0(s0)");  // a
    slice.read_hartid(b, "t5", "partition: this hart's slice of every tile");
    tiled.prologue(b, slice);
    b.c("stream geometry is per-tile-constant; only the pointers re-arm");
    emit_ssr_geometry(b, tiled.chunk());
    b.l(cat("li t4, ", tiled.chunk() / 2 - 1));  // FREP repetitions - 1
    b.l("csrwi region, 1");
    b.label("tile_loop");
    tiled.hart0_stage(b, slice);
    tiled.compute_base(b, "a3", 0, "t5", "t1", "t2");
    tiled.compute_base(b, "a4", 1, "t5", "t1", "t2");
    b.l("csrsi ssr, 1");
    emit_copift_body(b);
    b.l("csrci ssr, 1");  // release ft0-2 before the tile barrier
    tiled.tile_epilogue(b, slice, "tile_loop");
    b.l("csrwi region, 2");
    tiled.final_store(b, slice);
    slice.epilogue(b);
    return b.str();
  }
  b.l("la a3, xarr");
  b.l("la a4, yarr");
  b.l("la s0, axpy_const");
  b.l("fld fs0, 0(s0)");  // a
  emit_hart_slice(b, slice);
  b.l(cat("li t4, ", chunk / 2 - 1));  // FREP repetitions - 1 (2x unrolled body)
  b.l("csrsi ssr, 1");
  emit_ssr_geometry(b, chunk);
  b.l("csrwi region, 1");
  emit_copift_body(b);
  b.l("csrci ssr, 1");
  b.l("csrwi region, 2");
  slice.epilogue(b);
  return b.str();
}

class AxpyWorkload final : public workload::Workload {
 public:
  [[nodiscard]] std::string name() const override { return "axpy"; }
  [[nodiscard]] std::string description() const override {
    return "y[i] = a*x[i] + y[i] over doubles (out-of-paper demo workload)";
  }

  [[nodiscard]] bool multi_hart_capable(Variant) const override { return true; }
  [[nodiscard]] bool tiled_capable(Variant) const override { return true; }

  void validate(Variant variant, const WorkloadConfig& config) const override {
    Workload::validate(variant, config);
    if (config.n % kUnroll != 0) {
      throw ConfigError(name(), variant, "n=" + std::to_string(config.n) +
                                             " must be a multiple of the unroll factor 4");
    }
    if (config.tile != 0) {
      // Two arrays of doubles; reserve a little TCDM for axpy_const.
      workload::TiledBuffer::validate(name(), variant, config, kUnroll,
                                      "the unroll factor", 16, 256);
      return;
    }
    workload::HartSlice::validate(name(), variant, config, kUnroll, "the unroll factor");
  }

  [[nodiscard]] std::string generate(Variant variant,
                                     const WorkloadConfig& config) const override {
    return variant == Variant::kBaseline ? generate_baseline(config)
                                         : generate_copift(config);
  }

  void populate_inputs(sim::Cluster& cluster, const WorkloadConfig& config) const override {
    const auto& program = cluster.program();
    const std::uint32_t xbase = program.symbol("xarr");
    const std::uint32_t ybase = program.symbol("yarr");
    const auto x = axpy_x(config.n, config.seed);
    const auto y = axpy_y(config.n, config.seed);
    for (std::uint32_t i = 0; i < config.n; ++i) {
      cluster.memory().store64(xbase + i * 8, copift::bit_cast<std::uint64_t>(x[i]));
      cluster.memory().store64(ybase + i * 8, copift::bit_cast<std::uint64_t>(y[i]));
    }
  }

  void verify_outputs(sim::Cluster& cluster, Variant,
                      const WorkloadConfig& config) const override {
    const double a = axpy_a(config.seed);
    const auto x = axpy_x(config.n, config.seed);
    const auto y = axpy_y(config.n, config.seed);
    workload::verify_doubles(cluster, name(), "yarr", config.n,
                             [&](std::uint32_t i) { return std::fma(a, x[i], y[i]); });
  }
};

const workload::Registrar kAxpyReg(std::make_shared<AxpyWorkload>());

}  // namespace
}  // namespace copift::workloads
