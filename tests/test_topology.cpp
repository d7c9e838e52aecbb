// Multi-hart tests: SimParams validation by the Cluster constructor, the
// mhartid + hardware-barrier primitives, per-hart counter identity, the
// bit-exactness of multi-hart workload results against the single-hart
// reference, per-complex energy attribution, and engine sweeps over the
// cores axis at different thread counts.
#include "sim/barrier.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>

#include "common/error.hpp"
#include "engine/experiment.hpp"
#include "kernels/runner.hpp"
#include "rvasm/assembler.hpp"
#include "sim/cluster.hpp"
#include "sim/trace_export.hpp"
#include "workload/workload.hpp"

namespace copift::sim {
namespace {

using workload::Variant;
using workload::WorkloadConfig;

/// Per-unit accounting identity on one hart: every cycle attributed once.
void expect_hart_identity(const Cluster& cluster, unsigned hart) {
  const ActivityCounters& c = cluster.complex(hart).counters();
  EXPECT_EQ(c.int_issue_cycles() + c.int_stall_cycles() + c.slot(StallCause::kIntHalted),
            cluster.cycles())
      << "hart " << hart;
  EXPECT_EQ(c.fpss_issue_cycles() + c.fpss_stall_cycles() + c.slot(StallCause::kFpIdle),
            cluster.cycles())
      << "hart " << hart;
}

/// Assembled multi-hart axpy instance plus the cluster that ran it.
struct AxpyRun {
  kernels::GeneratedKernel kernel;
  std::unique_ptr<Cluster> cluster;
};

AxpyRun run_axpy(std::uint32_t n, std::uint32_t cores, Variant variant = Variant::kCopift,
                 bool tracing = false) {
  WorkloadConfig cfg;
  cfg.n = n;
  cfg.cores = cores;
  AxpyRun out;
  out.kernel = workload::generate("axpy", variant, cfg);
  SimParams params;
  params.num_cores = cores;
  out.cluster = std::make_unique<Cluster>(rvasm::assemble(out.kernel.source), params);
  if (tracing) out.cluster->set_tracing(true);
  kernels::populate_inputs(*out.cluster, out.kernel);
  out.cluster->run();
  return out;
}

// --- SimParams / topology validation (satellite) -----------------------------

TEST(SimParamsValidate, RejectsBadConfigurationsWithDescriptiveErrors) {
  const struct {
    const char* expect;  // substring of the error message
    std::function<void(SimParams&)> corrupt;
  } kCases[] = {
      {"num_cores", [](SimParams& p) { p.num_cores = 0; }},
      {"exceeds the cluster maximum", [](SimParams& p) { p.num_cores = kMaxHarts + 1; }},
      {"num_tcdm_banks", [](SimParams& p) { p.num_tcdm_banks = 0; }},
      {"offload_fifo_depth", [](SimParams& p) { p.offload_fifo_depth = 0; }},
      {"ssr_fifo_depth", [](SimParams& p) { p.ssr_fifo_depth = 0; }},
      {"frep_capacity", [](SimParams& p) { p.frep_capacity = 0; }},
      {"power of two", [](SimParams& p) { p.l0_lines = 3; }},
      {"l0_words_per_line", [](SimParams& p) { p.l0_words_per_line = 0; }},
      {"dma_bytes_per_cycle", [](SimParams& p) { p.dma_bytes_per_cycle = 0; }},
      {"max_cycles", [](SimParams& p) { p.max_cycles = 0; }},
  };
  EXPECT_NO_THROW(SimParams{}.validate());
  for (const auto& c : kCases) {
    SimParams p;
    c.corrupt(p);
    try {
      p.validate();
      FAIL() << "expected an exception mentioning '" << c.expect << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect), std::string::npos) << e.what();
    }
  }
}

TEST(SimParamsValidate, ClusterConstructorValidates) {
  SimParams bad;
  bad.num_tcdm_banks = 0;
  EXPECT_THROW(Cluster(rvasm::assemble("ecall\n"), bad), Error);
  SimParams none;
  none.num_cores = 0;
  EXPECT_THROW(Cluster(rvasm::assemble("ecall\n"), none), Error);
}

TEST(SimParamsValidate, AbsurdCoreCountFailsWithoutAllocating) {
  // The constructor must reject the request with the descriptive error
  // before it builds a billion core complexes.
  SimParams huge;
  huge.num_cores = 1'000'000'000;
  try {
    Cluster cluster(rvasm::assemble("ecall\n"), huge);
    FAIL() << "expected an exception";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the cluster maximum"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("1000000000"), std::string::npos) << e.what();
  }
}

TEST(HwBarrier, HartsIdentifyThemselvesAndSynchronize) {
  const char* kSource = R"(
  .data
  .align 3
out:
  .space 64
  .text
_start:
  csrr t0, mhartid
  slli t1, t0, 3
  la t2, out
  add t2, t2, t1
  sw t0, 0(t2)
  csrr zero, barrier
  ecall
)";
  SimParams params;
  params.num_cores = 4;
  Cluster cluster(rvasm::assemble(kSource), params);
  const auto result = cluster.run();
  EXPECT_TRUE(result.halted);
  EXPECT_EQ(cluster.barrier().rounds(), 1u);
  const std::uint32_t out = cluster.program().symbol("out");
  std::uint64_t total_wait = 0;
  for (unsigned h = 0; h < 4; ++h) {
    EXPECT_EQ(cluster.memory().load32(out + 8 * h), h) << "hart " << h;
    EXPECT_EQ(cluster.complex(h).counters().barriers, 1u) << "hart " << h;
    total_wait += cluster.complex(h).counters().slot(StallCause::kIntHwBarrier);
    expect_hart_identity(cluster, h);
  }
  // The harts do not all arrive in the same relative slot; someone waited.
  EXPECT_GT(total_wait, 0u);
}

TEST(HwBarrier, SingleHartPassesImmediately) {
  Cluster cluster(rvasm::assemble("csrr zero, barrier\necall\n"));
  cluster.run();
  EXPECT_EQ(cluster.counters().slot(StallCause::kIntHwBarrier), 0u);
  EXPECT_EQ(cluster.counters().barriers, 1u);
}

// --- per-hart counters and bit-exact multi-hart results ----------------------

TEST(MultiHart, PerHartIdentityOnEveryHartAndVariant) {
  for (const Variant variant : {Variant::kBaseline, Variant::kCopift}) {
    for (const std::uint32_t cores : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(std::string(workload::variant_name(variant)) + " cores=" +
                   std::to_string(cores));
      const AxpyRun run = run_axpy(512, cores, variant);
      for (unsigned h = 0; h < cores; ++h) {
        expect_hart_identity(*run.cluster, h);
        EXPECT_GT(run.cluster->complex(h).counters().retired(), 0u) << "hart " << h;
      }
      EXPECT_NO_THROW(kernels::verify_outputs(*run.cluster, run.kernel));
    }
  }
}

TEST(MultiHart, AxpyOutputsBitExactVsSingleHartReference) {
  const AxpyRun single = run_axpy(512, 1);
  const AxpyRun quad = run_axpy(512, 4);
  const std::uint32_t ybase = single.cluster->program().symbol("yarr");
  for (std::uint32_t i = 0; i < 512; ++i) {
    EXPECT_EQ(single.cluster->memory().load64(ybase + i * 8),
              quad.cluster->memory().load64(ybase + i * 8))
        << "element " << i;
  }
  // Partitioning actually bought wall time, and the shared TCDM pushed back.
  EXPECT_LT(quad.cluster->cycles(), single.cluster->cycles());
  EXPECT_GT(quad.cluster->counters().tcdm_conflicts, 0u);
}

TEST(MultiHart, AggregateCountersSumHarts) {
  const AxpyRun quad = run_axpy(512, 4);
  const ActivityCounters& agg = quad.cluster->counters();
  std::uint64_t fp_retired = 0;
  std::uint64_t conflicts = 0;
  for (unsigned h = 0; h < 4; ++h) {
    fp_retired += quad.cluster->complex(h).counters().fp_retired;
    conflicts += quad.cluster->complex(h).counters().tcdm_conflicts;
  }
  EXPECT_EQ(agg.fp_retired, fp_retired);
  EXPECT_EQ(agg.tcdm_conflicts, conflicts);
  EXPECT_EQ(agg.cycles, quad.cluster->cycles());
}

TEST(MultiHart, TracingCoversEveryHartCycleAndStaysTransparent) {
  const AxpyRun plain = run_axpy(256, 2);
  const AxpyRun traced = run_axpy(256, 2, Variant::kCopift, /*tracing=*/true);
  EXPECT_EQ(plain.cluster->cycles(), traced.cluster->cycles());
  for (unsigned h = 0; h < 2; ++h) {
    const Tracer& t = traced.cluster->complex(h).tracer();
    std::uint64_t int_slots = 0;
    std::uint64_t fp_slots = 0;
    for (const TraceEntry& e : t.entries()) {
      (e.unit == TraceUnit::kIntCore ? int_slots : fp_slots) += 1;
    }
    for (const StallEvent& s : t.stalls()) {
      (s.unit == TraceUnit::kIntCore ? int_slots : fp_slots) += 1;
    }
    EXPECT_EQ(int_slots, traced.cluster->cycles()) << "hart " << h;
    EXPECT_EQ(fp_slots, traced.cluster->cycles()) << "hart " << h;
  }
}

TEST(MultiHart, ChromeTraceEmitsOneTrackGroupPerHart) {
  const AxpyRun traced = run_axpy(256, 2, Variant::kCopift, /*tracing=*/true);
  std::ostringstream os;
  write_chrome_trace(os, *traced.cluster);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"hart 0\""), std::string::npos);
  EXPECT_NE(json.find("\"hart 1\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);

  const std::string summary = render_hart_summary(*traced.cluster);
  EXPECT_NE(summary.find("hart 0"), std::string::npos);
  EXPECT_NE(summary.find("hart 1"), std::string::npos);
  EXPECT_NE(summary.find("barrier-wait"), std::string::npos);
}

// --- per-complex energy attribution ------------------------------------------

TEST(MultiHart, KernelRunAttributesRegionAndEnergyPerComplex) {
  WorkloadConfig cfg;
  cfg.n = 512;
  cfg.cores = 4;
  const auto run =
      kernels::run_kernel(workload::generate("axpy", Variant::kCopift, cfg));
  EXPECT_TRUE(run.verified);
  ASSERT_EQ(run.hart_region.size(), 4u);
  ASSERT_EQ(run.hart_energy.size(), 4u);
  double total_pj = 0.0;
  for (unsigned h = 0; h < 4; ++h) {
    EXPECT_GT(run.hart_region[h].fp_retired, 0u) << "hart " << h;
    EXPECT_GT(run.hart_energy[h].total_pj, 0.0) << "hart " << h;
    total_pj += run.hart_energy[h].total_pj;
  }
  EXPECT_DOUBLE_EQ(run.region_energy.total_pj, total_pj);
  // Hart 0 carries the cluster-constant terms; the others only their
  // complex constant.
  EXPECT_GT(run.hart_energy[0].constant_pj, run.hart_energy[1].constant_pj);

  // Single-core runs keep the historical shape: no per-hart vectors.
  cfg.cores = 1;
  const auto single =
      kernels::run_kernel(workload::generate("axpy", Variant::kCopift, cfg));
  EXPECT_TRUE(single.hart_region.empty());
  EXPECT_TRUE(single.hart_energy.empty());
}

// --- config validation for the cores axis ------------------------------------

TEST(MultiHart, ValidationRejectsUnsupportedOrUnsplittableConfigs) {
  WorkloadConfig cfg;
  cfg.cores = 2;
  try {
    // softmax needs cluster-wide max/sum reductions and stays single-core.
    (void)workload::generate("softmax", Variant::kBaseline, cfg);
    FAIL() << "expected an exception";
  } catch (const workload::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("no multi-hart variant"), std::string::npos)
        << e.what();
  }
  cfg.n = 1024;
  cfg.cores = 3;
  EXPECT_THROW((void)workload::generate("axpy", Variant::kCopift, cfg),
               workload::ConfigError);
  cfg.cores = 0;
  EXPECT_THROW((void)workload::generate("axpy", Variant::kCopift, cfg),
               workload::ConfigError);
  cfg.cores = kMaxHarts * 2;
  EXPECT_THROW((void)workload::generate("axpy", Variant::kCopift, cfg),
               workload::ConfigError);
}

// --- engine sweeps over the cores axis ---------------------------------------

TEST(MultiHart, EngineCoresSweepBitIdenticalAcrossThreadCounts) {
  engine::Experiment e;
  e.over("axpy").over(Variant::kCopift).n(256).sweep_cores({1, 2, 4, 8});
  engine::SimEngine serial(1);
  engine::SimEngine wide(8);
  const auto a = e.run(serial);
  const auto b = e.run(wide);
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a.csv(), b.csv());
  EXPECT_EQ(a.json(), b.json());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a.at(i).run.verified);
    EXPECT_EQ(a.at(i).run.result.cycles, b.at(i).run.result.cycles);
  }
  // More harts, fewer cycles — the whole point of the topology.
  EXPECT_GT(a.at(0).run.result.cycles, a.at(3).run.result.cycles);
  EXPECT_NE(a.csv().find(",cores,"), std::string::npos);
}

}  // namespace
}  // namespace copift::sim
