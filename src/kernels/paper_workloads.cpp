// The six paper kernels as workload-registry entries. Each class bundles the
// assembly generator (kernel_internal.hpp), the input populator and the
// bit-exact golden verifier that used to be hardwired into the runner's
// enum switches.
#include <memory>
#include <span>
#include <string>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "kernels/glibc_math.hpp"
#include "kernels/kernel_internal.hpp"
#include "kernels/kernels.hpp"
#include "kernels/montecarlo.hpp"
#include "kernels/runner.hpp"
#include "sim/cluster.hpp"
#include "workload/hart_slice.hpp"
#include "workload/software_pipeline.hpp"
#include "workload/tiled_buffer.hpp"
#include "workload/workload.hpp"

namespace copift::kernels {
namespace {

using workload::ConfigError;
using workload::Variant;
using workload::WorkloadConfig;

/// A COPIFT kernel software-pipelines each run of blocks: the per-hart
/// chunk, or the per-hart tile chunk when tiled. A run is whole blocks of a
/// multiple of the unroll factor, at least SoftwarePipeline::min_blocks()
/// of them.
void validate_copift(const std::string& name, const WorkloadConfig& cfg, std::uint32_t unroll,
                     std::span<const workload::PhaseKind> phases) {
  const auto fail = [&](const std::string& what) {
    throw ConfigError(name, Variant::kCopift, "block=" + std::to_string(cfg.block) + what);
  };
  if (cfg.block == 0 || cfg.block % unroll != 0) {
    fail(" must be a positive multiple of the unroll factor " + std::to_string(unroll));
  }
  const std::uint32_t run = (cfg.tile != 0 ? cfg.tile : cfg.n) / cfg.cores;
  if (run % cfg.block != 0) {
    fail(cfg.cores > 1 ? " does not divide the per-hart chunk " + std::to_string(run) + " (n=" +
                             std::to_string(cfg.n) + " / cores=" + std::to_string(cfg.cores) + ")"
                       : " does not divide n=" + std::to_string(cfg.n));
  }
  const std::uint32_t min_blocks = workload::SoftwarePipeline::min_blocks(phases);
  if (run / cfg.block < min_blocks) {
    const char* what = cfg.tile != 0   ? " splits the per-hart tile chunk "
                       : cfg.cores > 1 ? " splits the per-hart chunk "
                                       : " splits n=";
    fail(what + std::to_string(run) + " into fewer than " + std::to_string(min_blocks) +
         " blocks per hart (its " + std::to_string(phases.size()) +
         "-phase software pipeline needs " + std::to_string(min_blocks - 1) +
         " prologue blocks and one steady block)");
  }
}

/// Common shape of the paper kernels: both variants supported, n=1920/B=96
/// defaults (the paper's steady-state operating point), blocked-loop
/// validation parameterized by the kernel's unroll factor, and multi-hart
/// execution via contiguous mhartid slicing (cores=1 keeps the historical
/// single-core codegen byte-for-byte).
class PaperWorkload : public workload::Workload {
 public:
  [[nodiscard]] WorkloadConfig default_config() const override {
    WorkloadConfig cfg;
    cfg.n = 1920;
    cfg.block = 96;
    return cfg;
  }

  [[nodiscard]] bool multi_hart_capable(Variant) const override { return true; }

  void validate(Variant variant, const WorkloadConfig& config) const override {
    Workload::validate(variant, config);
    if (variant == Variant::kBaseline && config.n % unroll() != 0) {
      throw ConfigError(name(), variant,
                        "n=" + std::to_string(config.n) +
                            " must be a multiple of the unroll factor " + std::to_string(unroll()));
    }
    if (config.tile != 0) {
      // Tiled runs stream DRAM-resident data; the per-hart-per-tile chunk
      // takes over the structural role of the per-hart chunk.
      validate_tiled(variant, config);
    } else {
      workload::HartSlice::validate(name(), variant, config, unroll(), "the unroll factor");
    }
    if (variant == Variant::kCopift) validate_copift(name(), config, unroll(), phases());
  }

 protected:
  /// Elements (exp/log) or samples (MC) per unrolled loop iteration.
  [[nodiscard]] virtual std::uint32_t unroll() const = 0;
  /// The COPIFT software pipeline's phases (kernel_internal.hpp's k*Phases).
  [[nodiscard]] virtual std::span<const workload::PhaseKind> phases() const = 0;

  /// Tiled-structure checks; only reachable for workloads whose
  /// tiled_capable() returns true (Workload::validate rejects the rest).
  virtual void validate_tiled(Variant, const WorkloadConfig&) const {}
};

// --- exp / log (transcendental vector kernels) ------------------------------

class ExpWorkload final : public PaperWorkload {
 public:
  [[nodiscard]] std::string name() const override { return "exp"; }
  [[nodiscard]] std::string description() const override {
    return "y[i] = exp(x[i]), glibc-style table+poly over doubles (paper Fig. 1)";
  }

  [[nodiscard]] bool tiled_capable(Variant) const override { return true; }

  [[nodiscard]] std::string generate(Variant variant,
                                     const WorkloadConfig& config) const override {
    return generate_exp(variant, config);
  }

  void populate_inputs(sim::Cluster& cluster, const WorkloadConfig& config) const override {
    const std::uint32_t base = cluster.program().symbol("xarr");
    const auto x = exp_inputs(config.n, config.seed);
    for (std::uint32_t i = 0; i < config.n; ++i) {
      cluster.memory().store64(base + i * 8, copift::bit_cast<std::uint64_t>(x[i]));
    }
  }

  void verify_outputs(sim::Cluster& cluster, Variant,
                      const WorkloadConfig& config) const override {
    const auto x = exp_inputs(config.n, config.seed);
    workload::verify_doubles(cluster, name(), "yarr", config.n,
                             [&](std::uint32_t i) { return ref_exp(x[i]); });
  }

 protected:
  [[nodiscard]] std::uint32_t unroll() const override { return 4; }
  [[nodiscard]] std::span<const workload::PhaseKind> phases() const override {
    return kExpPhases;
  }

  void validate_tiled(Variant variant, const WorkloadConfig& cfg) const override {
    // x + y are 16 bytes per element; exp_tab + exp_const + per-hart rows
    // stay TCDM-resident alongside the double buffers.
    if (variant == Variant::kCopift) {
      const std::uint32_t arena = 3 * 3 * cfg.block * 8 * cfg.cores;
      workload::TiledBuffer::validate(name(), variant, cfg, cfg.block, "the block size", 16,
                                      arena + 4096);
    } else {
      const std::uint32_t spill = 2 * 4 * 8 * cfg.cores;
      workload::TiledBuffer::validate(name(), variant, cfg, 4, "the unroll factor", 16,
                                      spill + 4096);
    }
  }
};

class LogWorkload final : public PaperWorkload {
 public:
  [[nodiscard]] std::string name() const override { return "log"; }
  [[nodiscard]] std::string description() const override {
    return "y[i] = log(x[i]), glibc-style table+poly (ISSR + fcvt.d.w.cop)";
  }

  [[nodiscard]] std::string generate(Variant variant,
                                     const WorkloadConfig& config) const override {
    return generate_log(variant, config);
  }

  void populate_inputs(sim::Cluster& cluster, const WorkloadConfig& config) const override {
    const std::uint32_t base = cluster.program().symbol("xarr");
    const auto x = log_inputs(config.n, config.seed);
    for (std::uint32_t i = 0; i < config.n; ++i) {
      cluster.memory().store32(base + i * 4, copift::bit_cast<std::uint32_t>(x[i]));
    }
  }

  void verify_outputs(sim::Cluster& cluster, Variant,
                      const WorkloadConfig& config) const override {
    const auto x = log_inputs(config.n, config.seed);
    workload::verify_doubles(cluster, name(), "yarr", config.n,
                             [&](std::uint32_t i) { return ref_log(x[i]); });
  }

 protected:
  [[nodiscard]] std::uint32_t unroll() const override { return 4; }
  [[nodiscard]] std::span<const workload::PhaseKind> phases() const override {
    return kLogPhases;
  }
};

// --- Monte Carlo family -----------------------------------------------------

class McWorkload final : public PaperWorkload {
 public:
  McWorkload(std::string name, bool poly, bool xoshiro)
      : name_(std::move(name)), poly_(poly), xoshiro_(xoshiro) {}

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::string description() const override {
    return std::string("Monte Carlo ") + (poly_ ? "polynomial integration" : "pi estimation") +
           " with the " + (xoshiro_ ? "xoshiro128+" : "LCG") + " PRNG";
  }

  [[nodiscard]] std::string generate(Variant variant,
                                     const WorkloadConfig& config) const override {
    return generate_mc(variant, config, poly_, xoshiro_);
  }

  // Monte Carlo kernels seed their PRNGs from immediates; nothing to populate.

  void verify_outputs(sim::Cluster& cluster, Variant variant,
                      const WorkloadConfig& config) const override {
    const std::uint32_t addr = cluster.program().symbol("result");
    std::uint64_t got;
    if (variant == Variant::kBaseline) {
      got = cluster.memory().load32(addr);
    } else {
      got = static_cast<std::uint64_t>(
          copift::bit_cast<double>(cluster.memory().load64(addr)));
    }
    const std::uint64_t expected = expected_hits(variant, config);
    if (got != expected) {
      throw Error(name_ + " verification failed: got " + std::to_string(got) +
                  " hits, expected " + std::to_string(expected));
    }
  }

 protected:
  [[nodiscard]] std::uint32_t unroll() const override { return kMcUnroll; }
  [[nodiscard]] std::span<const workload::PhaseKind> phases() const override {
    return kMcPhases;
  }

 private:
  [[nodiscard]] std::uint64_t expected_hits(Variant variant,
                                            const WorkloadConfig& cfg) const {
    // The COPIFT poly kernels evaluate an even/odd split (raw-domain, which
    // differs from the unit-domain reference only by exact power-of-two
    // scalings); the baselines evaluate Horner.
    const PolyScheme scheme =
        variant == Variant::kCopift ? PolyScheme::kEvenOdd : PolyScheme::kHorner;
    if (poly_) {
      return xoshiro_ ? ref_poly_hits_xoshiro(cfg.seed, cfg.n, scheme)
                      : ref_poly_hits_lcg(cfg.seed, cfg.n, scheme);
    }
    return xoshiro_ ? ref_pi_hits_xoshiro(cfg.seed, cfg.n) : ref_pi_hits_lcg(cfg.seed, cfg.n);
  }

  std::string name_;
  bool poly_;
  bool xoshiro_;
};

const workload::Registrar kExpReg(std::make_shared<ExpWorkload>());
const workload::Registrar kLogReg(std::make_shared<LogWorkload>());
const workload::Registrar kPolyLcgReg(
    std::make_shared<McWorkload>("poly_lcg", /*poly=*/true, /*xoshiro=*/false));
const workload::Registrar kPiLcgReg(
    std::make_shared<McWorkload>("pi_lcg", /*poly=*/false, /*xoshiro=*/false));
const workload::Registrar kPolyXoshiroReg(
    std::make_shared<McWorkload>("poly_xoshiro128p", /*poly=*/true, /*xoshiro=*/true));
const workload::Registrar kPiXoshiroReg(
    std::make_shared<McWorkload>("pi_xoshiro128p", /*poly=*/false, /*xoshiro=*/true));

}  // namespace
}  // namespace copift::kernels
