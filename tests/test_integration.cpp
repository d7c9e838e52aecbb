// End-to-end integration tests: every kernel variant assembles, runs on the
// cluster, verifies bit-exactly against the golden references, and
// reproduces the paper's qualitative performance claims.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "kernels/kernels.hpp"
#include "kernels/runner.hpp"
#include "workload/workload.hpp"

namespace copift::kernels {
namespace {

struct Case {
  std::string_view name;
  Variant variant;
  std::uint32_t n;
  std::uint32_t block;
  std::uint32_t seed;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const auto& c = info.param;
  std::string name(c.name);
  for (auto& ch : name) {
    if (ch == '-' || ch == '+') ch = '_';
  }
  return name + (c.variant == Variant::kBaseline ? "_base_" : "_copift_") +
         std::to_string(c.n) + "_b" + std::to_string(c.block) + "_s" +
         std::to_string(c.seed);
}

class KernelCase : public ::testing::TestWithParam<Case> {};

TEST_P(KernelCase, RunsAndVerifies) {
  const auto& c = GetParam();
  KernelConfig cfg;
  cfg.n = c.n;
  cfg.block = c.block;
  cfg.seed = c.seed;
  const KernelRun run = run_kernel(workload::generate(c.name, c.variant, cfg));
  EXPECT_TRUE(run.verified);
  EXPECT_TRUE(run.result.halted);
  // Physical sanity: IPC in (0, 2], power positive and plausible.
  EXPECT_GT(run.ipc(), 0.0);
  EXPECT_LE(run.ipc(), 2.0);
  EXPECT_GT(run.power_mw(), 25.0);
  EXPECT_LT(run.power_mw(), 70.0);
  if (c.variant == Variant::kBaseline) {
    EXPECT_LE(run.ipc(), 1.0);  // single-issue bound
  }
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const auto name : kPaperWorkloads) {
    for (const auto v : {Variant::kBaseline, Variant::kCopift}) {
      cases.push_back({name, v, 256, 32, 42});
      cases.push_back({name, v, 512, 64, 1});
    }
    // Extra seeds for the Monte Carlo kernels (bit-exact hit counts).
    if (!is_transcendental(name)) {
      cases.push_back({name, Variant::kCopift, 384, 48, 1234567});
      cases.push_back({name, Variant::kBaseline, 384, 48, 1234567});
    } else {
      cases.push_back({name, Variant::kCopift, 384, 48, 99});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelCase, ::testing::ValuesIn(all_cases()),
                         case_name);

TEST(Integration, CopiftBeatsBaselineOnEveryKernel) {
  KernelConfig cfg;
  cfg.n = 768;
  cfg.block = 96;
  for (const auto name : kPaperWorkloads) {
    const auto base = run_kernel(workload::generate(name, Variant::kBaseline, cfg));
    const auto cop = run_kernel(workload::generate(name, Variant::kCopift, cfg));
    EXPECT_LT(cop.region.cycles, base.region.cycles) << name;
    EXPECT_GT(cop.ipc(), 1.0) << name;  // sustained dual-issue
  }
}

TEST(Integration, CopiftSavesEnergyOnEveryKernel) {
  KernelConfig cfg;
  cfg.n = 768;
  cfg.block = 96;
  for (const auto name : kPaperWorkloads) {
    const auto base = run_kernel(workload::generate(name, Variant::kBaseline, cfg));
    const auto cop = run_kernel(workload::generate(name, Variant::kCopift, cfg));
    EXPECT_LT(cop.energy_nj(), base.energy_nj()) << name;
    // Power increase stays within the paper's bound (max 1.17x).
    EXPECT_LT(cop.power_mw() / base.power_mw(), 1.20) << name;
    EXPECT_GE(cop.power_mw() / base.power_mw(), 0.97) << name;
  }
}

/// Steady-state metrics of `name` between n = n1 and n = n2.
SteadyMetrics steady(std::string_view name, Variant variant, KernelConfig cfg,
                     std::uint32_t n1, std::uint32_t n2) {
  const auto wl = workload::WorkloadRegistry::instance().at(name);
  KernelConfig c2 = cfg;
  cfg.n = n1;
  c2.n = n2;
  return steady_from_runs(run_kernel(wl->instantiate(variant, cfg)),
                          run_kernel(wl->instantiate(variant, c2)), wl->items(cfg),
                          wl->items(c2));
}

TEST(Integration, SteadyStateMetricsMatchPaperShape) {
  KernelConfig cfg;
  cfg.block = 96;
  // exp: the paper's peak speedup (2.05x) and peak energy saving (1.93x).
  const auto exp = steady("exp", Variant::kCopift, cfg, 960, 1920);
  const auto exp_base = steady("exp", Variant::kBaseline, cfg, 960, 1920);
  const double exp_speedup = exp_base.cycles_per_item / exp.cycles_per_item;
  EXPECT_GT(exp_speedup, 1.7);
  EXPECT_LT(exp_speedup, 2.3);
  EXPECT_GT(exp.ipc, 1.5);   // paper: 1.63
  EXPECT_LT(exp_base.ipc, 1.0);
  const double exp_energy =
      exp_base.energy_pj_per_item / exp.energy_pj_per_item;
  EXPECT_GT(exp_energy, 1.4);
}

TEST(Integration, RegionDeltasAreConsistent) {
  KernelConfig cfg;
  cfg.n = 256;
  cfg.block = 32;
  const auto run = run_kernel(workload::generate("pi_lcg", Variant::kCopift, cfg));
  EXPECT_LE(run.region.cycles, run.total.cycles);
  EXPECT_LE(run.region.retired(), run.total.retired());
  EXPECT_EQ(run.region.retired(), run.region.int_retired + run.region.fp_retired);
  EXPECT_GT(run.region.frep_replays, 0u);
}

TEST(Integration, SeedChangesResultsButStaysVerified) {
  KernelConfig cfg;
  cfg.n = 256;
  cfg.block = 32;
  for (std::uint32_t seed : {3u, 17u, 909u}) {
    cfg.seed = seed;
    const auto run = run_kernel(workload::generate("poly_xoshiro128p", Variant::kCopift, cfg));
    EXPECT_TRUE(run.verified);
  }
}

TEST(Integration, LargerBlocksAmortizeOverheads) {
  // Fig. 3's key trend: for a large problem, a larger block size (up to the
  // sweet spot) yields higher IPC, because per-block SSR programming and
  // buffer switching amortize over more elements.
  KernelConfig small;
  small.n = 12288;
  small.block = 16;
  KernelConfig big;
  big.n = 12288;
  big.block = 96;
  const auto s = run_kernel(workload::generate("poly_lcg", Variant::kCopift, small));
  const auto b = run_kernel(workload::generate("poly_lcg", Variant::kCopift, big));
  EXPECT_GT(b.ipc(), s.ipc());
}

TEST(Integration, SmallProblemsFavorSmallBlocks) {
  // Fig. 3's complementary trend: small problems favor small blocks, whose
  // shorter prologue/epilogue dominates.
  KernelConfig small;
  small.n = 768;
  small.block = 16;
  KernelConfig big;
  big.n = 768;
  big.block = 192;
  const auto s = run_kernel(workload::generate("poly_lcg", Variant::kCopift, small));
  const auto b = run_kernel(workload::generate("poly_lcg", Variant::kCopift, big));
  EXPECT_GT(s.ipc(), b.ipc());
}

TEST(Integration, LargerProblemsRaiseIpc) {
  // Fig. 3: IPC increases with problem size at fixed block size.
  KernelConfig small;
  small.n = 192;
  small.block = 48;
  KernelConfig big;
  big.n = 3072;
  big.block = 48;
  const auto s = run_kernel(workload::generate("poly_lcg", Variant::kCopift, small));
  const auto b = run_kernel(workload::generate("poly_lcg", Variant::kCopift, big));
  EXPECT_GT(b.ipc(), s.ipc());
}

TEST(Integration, DmaActiveOnlyInTranscendentalKernels) {
  KernelConfig cfg;
  cfg.n = 256;
  cfg.block = 32;
  const auto exp = run_kernel(workload::generate("exp", Variant::kBaseline, cfg));
  const auto mc = run_kernel(workload::generate("pi_lcg", Variant::kBaseline, cfg));
  EXPECT_GT(exp.total.dma_busy_cycles, 0u);
  EXPECT_EQ(mc.total.dma_busy_cycles, 0u);
}

TEST(Integration, BaselineThrashesL0CopiftIntLoopFits) {
  // Paper Section III-B: the COPIFT exp/log integer loops fit in the L0 I$.
  KernelConfig cfg;
  cfg.n = 768;
  cfg.block = 96;
  const auto base = run_kernel(workload::generate("exp", Variant::kBaseline, cfg));
  const auto cop = run_kernel(workload::generate("exp", Variant::kCopift, cfg));
  const double base_refill_rate =
      static_cast<double>(base.region.l0_refills) / static_cast<double>(base.region.cycles);
  const double cop_refill_rate =
      static_cast<double>(cop.region.l0_refills) / static_cast<double>(cop.region.cycles);
  EXPECT_GT(base_refill_rate, 5.0 * cop_refill_rate);
}

}  // namespace
}  // namespace copift::kernels
