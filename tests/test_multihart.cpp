// Multi-hart paper-kernel tests: every one of the six paper kernels must
// partition across the cluster via the HartSlice helper and produce results
// bit-identical to its single-hart reference at any supported core count,
// while cores=1 keeps the historical single-core codegen (no multi-hart
// artifacts, pinned cycle counts — see also test_trace's single-core pins).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "kernels/kernels.hpp"
#include "kernels/runner.hpp"
#include "rvasm/assembler.hpp"
#include "sim/cluster.hpp"
#include "sim/params.hpp"
#include "workload/hart_slice.hpp"
#include "workload/workload.hpp"

namespace copift::kernels {
namespace {

using workload::Variant;
using workload::WorkloadConfig;

/// Run one kernel configuration to completion and return the cluster.
std::unique_ptr<sim::Cluster> run_kernel_on_cluster(const GeneratedKernel& kernel) {
  sim::SimParams params;
  params.num_cores = kernel.config.cores;
  auto cluster = std::make_unique<sim::Cluster>(rvasm::assemble(kernel.source), params);
  populate_inputs(*cluster, kernel);
  const auto result = cluster->run();
  EXPECT_TRUE(result.halted);
  return cluster;
}

WorkloadConfig test_config(std::uint32_t cores) {
  WorkloadConfig cfg;
  cfg.n = 1920;
  cfg.block = 48;  // divides every per-hart chunk for cores in {1,2,4,8}
  cfg.cores = cores;
  return cfg;
}

TEST(MultiHartKernels, AllSixPaperKernelsAreMultiHartCapable) {
  for (const auto name : kPaperWorkloads) {
    const auto wl = workload::WorkloadRegistry::instance().at(name);
    for (const Variant v : {Variant::kBaseline, Variant::kCopift}) {
      EXPECT_TRUE(wl->multi_hart_capable(v))
          << std::string(name) << "/" << workload::variant_name(v);
    }
  }
}

// The golden verifiers are bit-exact (verify_doubles compares bit patterns,
// the MC verifiers compare exact hit counts), so a passing verification at
// cores=c proves the multi-hart result is bit-identical to the single-hart
// reference.
TEST(MultiHartKernels, BitExactAtEveryCoreCount) {
  for (const auto name : kPaperWorkloads) {
    const auto wl = workload::WorkloadRegistry::instance().at(name);
    for (const Variant variant : {Variant::kBaseline, Variant::kCopift}) {
      for (const std::uint32_t cores : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(std::string(name) + "/" + workload::variant_name(variant) +
                     " cores=" + std::to_string(cores));
        const auto kernel = wl->instantiate(variant, test_config(cores));
        auto cluster = run_kernel_on_cluster(kernel);
        EXPECT_NO_THROW(verify_outputs(*cluster, kernel));
      }
    }
  }
}

// Stronger than verification for the vector kernels: the output arrays of a
// quad-core run must equal the single-core run's arrays word-for-word.
TEST(MultiHartKernels, VectorOutputsIdenticalToSingleHartWordForWord) {
  for (const auto name : {"exp", "log"}) {
    for (const Variant variant : {Variant::kBaseline, Variant::kCopift}) {
      SCOPED_TRACE(std::string(name) + "/" + workload::variant_name(variant));
      const auto wl = workload::WorkloadRegistry::instance().at(name);
      auto single = run_kernel_on_cluster(wl->instantiate(variant, test_config(1)));
      auto quad = run_kernel_on_cluster(wl->instantiate(variant, test_config(4)));
      // The data layouts differ (per-hart arena rows), so resolve yarr in
      // each program's own symbol table.
      const std::uint32_t sbase = single->program().symbol("yarr");
      const std::uint32_t qbase = quad->program().symbol("yarr");
      for (std::uint32_t i = 0; i < 1920; ++i) {
        ASSERT_EQ(single->memory().load64(sbase + i * 8),
                  quad->memory().load64(qbase + i * 8))
            << "element " << i;
      }
    }
  }
}

// The Monte Carlo total must be the same integer whether one hart counted
// all samples or eight harts counted disjoint slices of the same PRN
// sequence (per-hart jump-ahead states + exact reduction).
TEST(MultiHartKernels, MonteCarloHitCountsIdenticalAcrossCoreCounts) {
  for (const auto name : {"pi_lcg", "poly_lcg", "pi_xoshiro128p", "poly_xoshiro128p"}) {
    const auto wl = workload::WorkloadRegistry::instance().at(name);
    for (const Variant variant : {Variant::kBaseline, Variant::kCopift}) {
      SCOPED_TRACE(std::string(name) + "/" + workload::variant_name(variant));
      auto single = run_kernel_on_cluster(wl->instantiate(variant, test_config(1)));
      const std::uint32_t addr = single->program().symbol("result");
      const std::uint64_t want = single->memory().load64(addr);
      for (const std::uint32_t cores : {2u, 8u}) {
        auto multi = run_kernel_on_cluster(wl->instantiate(variant, test_config(cores)));
        EXPECT_EQ(multi->memory().load64(multi->program().symbol("result")), want)
            << "cores=" << cores;
      }
    }
  }
}

// cores=1 must generate exactly the historical single-core program: no
// mhartid reads, no hardware barrier, no per-hart tables. (The byte-level
// guarantee is enforced by the pinned single-core cycle counts in
// test_trace; this catches accidental emission directly.)
TEST(MultiHartKernels, SingleCoreCodegenHasNoMultiHartArtifacts) {
  for (const auto name : kPaperWorkloads) {
    const auto wl = workload::WorkloadRegistry::instance().at(name);
    for (const Variant variant : {Variant::kBaseline, Variant::kCopift}) {
      SCOPED_TRACE(std::string(name) + "/" + workload::variant_name(variant));
      const auto single = wl->instantiate(variant, test_config(1));
      EXPECT_EQ(single.source.find("mhartid"), std::string::npos);
      EXPECT_EQ(single.source.find("csrr zero, barrier"), std::string::npos);
      EXPECT_EQ(single.source.find("hart_prng"), std::string::npos);
      EXPECT_EQ(single.source.find("partials"), std::string::npos);

      const auto multi = wl->instantiate(variant, test_config(4));
      EXPECT_NE(multi.source.find("mhartid"), std::string::npos);
      EXPECT_NE(multi.source.find("csrr zero, barrier"), std::string::npos);
    }
  }
}

// Pinned multi-hart cycle counts (n=768, block=32, cores=4, COPIFT): the
// shared-TCDM arbitration order is part of the simulated microarchitecture,
// so the allocation-free arbiter (or any future change) must reproduce these
// exactly.
TEST(MultiHartKernels, QuadCoreCycleCountsArePinned) {
  const struct {
    const char* name;
    std::uint64_t cycles;
  } kPinned[] = {
      {"exp", 3010},  {"log", 3461},          {"poly_lcg", 2596},
      {"pi_lcg", 2110}, {"poly_xoshiro128p", 4986}, {"pi_xoshiro128p", 4870},
  };
  for (const auto& [name, pinned] : kPinned) {
    SCOPED_TRACE(name);
    const auto wl = workload::WorkloadRegistry::instance().at(name);
    WorkloadConfig cfg = test_config(4);
    cfg.n = 768;
    cfg.block = 32;
    auto cluster = run_kernel_on_cluster(wl->instantiate(Variant::kCopift, cfg));
    EXPECT_EQ(cluster->cycles(), pinned);
  }
}

// Multi-hart runs must actually scale: more harts, fewer cycles, and every
// hart retires work.
TEST(MultiHartKernels, QuadCoreRunsScaleAndUseEveryHart) {
  for (const auto name : kPaperWorkloads) {
    SCOPED_TRACE(name);
    const auto wl = workload::WorkloadRegistry::instance().at(name);
    auto single = run_kernel_on_cluster(wl->instantiate(Variant::kCopift, test_config(1)));
    auto quad = run_kernel_on_cluster(wl->instantiate(Variant::kCopift, test_config(4)));
    EXPECT_LT(quad->cycles(), single->cycles());
    for (unsigned h = 0; h < 4; ++h) {
      EXPECT_GT(quad->complex(h).counters().retired(), 0u) << "hart " << h;
      // At least the hardware-barrier epilogue (COPIFT kernels also count
      // their per-block copift.barrier instructions here).
      EXPECT_GE(quad->complex(h).counters().barriers, 1u) << "hart " << h;
    }
  }
}

TEST(MultiHartKernels, ValidationRejectsUnsplittableConfigs) {
  const auto expect_config_error = [](const char* name, Variant v, WorkloadConfig cfg,
                                      const char* fragment) {
    try {
      (void)workload::generate(name, v, cfg);
      FAIL() << name << ": expected ConfigError mentioning '" << fragment << "'";
    } catch (const workload::ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos) << e.what();
    }
  };
  WorkloadConfig cfg = test_config(7);  // does not divide 1920
  expect_config_error("exp", Variant::kCopift, cfg, "does not divide n=1920");
  cfg = test_config(8);
  cfg.block = 96;  // chunk 240 is not a multiple of 96
  expect_config_error("exp", Variant::kCopift, cfg, "per-hart chunk 240");
  cfg = test_config(4);
  cfg.n = 768;
  cfg.block = 96;  // chunk 192 = 2 blocks per hart: exp's pipeline needs 3
  expect_config_error("exp", Variant::kCopift, cfg, "fewer than 3 blocks per hart");
  cfg.n = 1152;  // chunk 288 = 3 blocks per hart
  EXPECT_NO_THROW((void)workload::generate("exp", Variant::kCopift, cfg));
  cfg.n = 384;  // chunk 96 = 1 block per hart
  expect_config_error("exp", Variant::kCopift, cfg, "fewer than 3 blocks per hart");
  // Baseline only needs the per-hart chunk to respect the unroll factor.
  cfg = test_config(8);
  cfg.n = 1928;  // 241 per hart, not a multiple of 8... and 1928/8=241
  expect_config_error("pi_lcg", Variant::kBaseline, cfg, "per-hart chunk 241");
}

// exp's COPIFT pipeline enters its steady loop with nb-2 iterations, so two
// blocks per hart would wrap the loop counter and run off the end of TCDM:
// every such split is a ConfigError, and a three-block neighbour verifies.
TEST(MultiHartKernels, ExpCopiftNeedsThreeBlocksPerHart) {
  const struct {
    std::uint32_t cores, n, block;
  } kTwoBlockPoints[] = {
      {1, 32, 16},  {1, 64, 32},  {1, 128, 64}, {1, 256, 128},
      {2, 32, 8},   {2, 64, 16},  {2, 128, 32}, {2, 256, 64},  {2, 512, 128},
      {4, 32, 4},   {4, 64, 8},   {4, 128, 16}, {4, 256, 32},  {4, 512, 64},
  };
  for (const auto& p : kTwoBlockPoints) {
    SCOPED_TRACE("cores=" + std::to_string(p.cores) + " n=" + std::to_string(p.n) +
                 " block=" + std::to_string(p.block));
    WorkloadConfig cfg = test_config(p.cores);
    cfg.n = p.n;
    cfg.block = p.block;
    EXPECT_THROW((void)workload::generate("exp", Variant::kCopift, cfg), workload::ConfigError);
  }
  for (const auto& [cores, block] : {std::pair{1u, 32u}, std::pair{4u, 8u}}) {
    SCOPED_TRACE("3-block neighbour at cores=" + std::to_string(cores));
    WorkloadConfig cfg = test_config(cores);
    cfg.n = 96;
    cfg.block = block;
    sim::SimParams params;
    params.num_cores = cores;
    EXPECT_TRUE(run_kernel(workload::generate("exp", Variant::kCopift, cfg), params).verified);
  }
}

// HartSlice itself: the emitters are no-ops single-core and emit the
// documented skeleton multi-core.
TEST(HartSlice, EmittersAreNoOpsSingleCore) {
  WorkloadConfig cfg;
  cfg.n = 64;
  cfg.cores = 1;
  const workload::HartSlice single(cfg);
  EXPECT_FALSE(single.multi());
  EXPECT_EQ(single.chunk(), 64u);
  AsmBuilder b;
  single.read_hartid(b, "t5", "comment");
  single.offset_by_elements(b, "t5", 8, {"a3"}, "t1", "t2");
  single.offset_by_rows(b, "t5", 32, {"t1"}, "t1", "t2");
  single.table_row(b, "t5", "a1", "tbl", 32, "t6");
  single.begin_hart0_only(b, "t5", "skip");
  single.end_hart0_only(b, "skip");
  single.barrier(b);
  EXPECT_EQ(b.str(), "");
  single.epilogue(b);
  EXPECT_EQ(b.str(), "  ecall\n");

  cfg.cores = 4;
  const workload::HartSlice quad(cfg);
  EXPECT_TRUE(quad.multi());
  EXPECT_EQ(quad.chunk(), 16u);
  AsmBuilder m;
  quad.read_hartid(m, "t5");
  quad.offset_by_elements(m, "t5", 8, {"a3", "a4"}, "t1", "t2");
  const std::string text = m.str();
  EXPECT_NE(text.find("csrr t5, mhartid"), std::string::npos);
  EXPECT_NE(text.find("li t1, 128"), std::string::npos);  // 16 elems * 8 bytes
  EXPECT_NE(text.find("mul t2, t5, t1"), std::string::npos);
  EXPECT_NE(text.find("add a4, a4, t2"), std::string::npos);
}

}  // namespace
}  // namespace copift::kernels
