// Differential proof layer for the beyond-TCDM memory hierarchy.
//
// The DRAM backing store + DMA burst path is only legal because it is
// invisible when unused: attaching the timing model must not perturb any
// TCDM-resident simulation by a single cycle or counter, and for workloads
// that do drive DMA traffic into the DRAM window a *neutral* DRAM (zero row
// latency, bandwidth at least the engine's) must reproduce the flat path
// bit-for-bit. These tests pin that equivalence over every registry
// workload at cores=1 and cores=4, check that real DRAM timing keeps the
// accounting identities and outputs, pin DramModel's row-buffer hit/miss
// sequence exactly, and check the dmwait stall-cause split by traffic.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>

#include "energy/energy.hpp"
#include "kernels/runner.hpp"
#include "mem/dram.hpp"
#include "rvasm/assembler.hpp"
#include "sim/cluster.hpp"
#include "sim/params.hpp"
#include "workload/workload.hpp"

namespace copift::sim {
namespace {

using workload::Variant;
using workload::WorkloadConfig;

struct SimRun {
  std::unique_ptr<Cluster> cluster;
  RunResult result;
};

SimRun run_kernel_with(const workload::GeneratedWorkload& kernel, const SimParams& base) {
  SimParams params = base;
  params.num_cores = kernel.config.cores;
  SimRun r;
  r.cluster = std::make_unique<Cluster>(rvasm::assemble(kernel.source), params);
  kernels::populate_inputs(*r.cluster, kernel);
  r.result = r.cluster->run();
  return r;
}

SimRun run_source(const std::string& source, const SimParams& params) {
  SimRun r;
  r.cluster = std::make_unique<Cluster>(rvasm::assemble(source), params);
  r.result = r.cluster->run();
  return r;
}

/// DRAM timing that cannot change any schedule: bursts pay no row latency
/// and stream at full engine bandwidth, so the per-cycle byte flow equals
/// the flat (no-DRAM) path exactly. Only the row hit/miss tallies differ.
SimParams neutral_dram_params() {
  SimParams params;
  params.dram_enabled = true;
  params.dram_t_row_hit = 0;
  params.dram_t_row_miss = 0;
  params.dram_bytes_per_cycle = params.dma_bytes_per_cycle;
  return params;
}

/// Every taxonomy-mapped stall column plus the issue/idle aggregates and the
/// DMA counters. The dram_row_* tallies are compared only when requested:
/// a neutral DRAM still *counts* its bursts even though it delays nothing.
void expect_counters_equal(const ActivityCounters& a, const ActivityCounters& b,
                           bool compare_dram_rows) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.int_retired, b.int_retired);
  EXPECT_EQ(a.fp_retired, b.fp_retired);
  EXPECT_EQ(a.frep_replays, b.frep_replays);
  EXPECT_EQ(a.tcdm_reads, b.tcdm_reads);
  EXPECT_EQ(a.tcdm_writes, b.tcdm_writes);
  EXPECT_EQ(a.tcdm_conflicts, b.tcdm_conflicts);
  EXPECT_EQ(a.ssr_elements, b.ssr_elements);
  EXPECT_EQ(a.issr_indices, b.issr_indices);
  EXPECT_EQ(a.l0_hits, b.l0_hits);
  EXPECT_EQ(a.l0_refills, b.l0_refills);
  EXPECT_EQ(a.dma_busy_cycles, b.dma_busy_cycles);
  EXPECT_EQ(a.dma_bytes, b.dma_bytes);
  if (compare_dram_rows) {
    EXPECT_EQ(a.dram_row_hits, b.dram_row_hits);
    EXPECT_EQ(a.dram_row_misses, b.dram_row_misses);
  }
  for (const CauseInfo& info : kCauseInfo) {
    EXPECT_EQ(a.slot(info.cause), b.slot(info.cause)) << "slot counter " << info.counter;
  }
}

void expect_identities(const ActivityCounters& c) {
  EXPECT_EQ(c.int_issue_cycles() + c.int_stall_cycles() + c.slot(StallCause::kIntHalted),
            c.cycles);
  EXPECT_EQ(c.fpss_issue_cycles() + c.fpss_stall_cycles() + c.slot(StallCause::kFpIdle),
            c.cycles);
}

/// A small TCDM-resident config every registry workload accepts (falls back
/// to the workload's defaults where the small shape is rejected).
WorkloadConfig fitting_config(const workload::Workload& wl, Variant variant,
                              std::uint32_t cores) {
  WorkloadConfig cfg;
  cfg.n = 768;
  cfg.block = 32;
  cfg.cores = cores;
  try {
    wl.validate(variant, cfg);
    return cfg;
  } catch (const Error&) {
    cfg = wl.default_config();
    cfg.cores = cores;
    return cfg;
  }
}

// --- whole-workload differential --------------------------------------------

// Every registry workload, every supported variant, cores=1 and cores=4: a
// present-but-neutral DRAM must be bit-identical to no DRAM at all — cycles,
// every counter and stall column (aggregate and per hart), the energy
// estimate, and the verified memory outputs. Workloads whose DMA stream
// never leaves TCDM are additionally row-tally-identical (both zero);
// exp/log drive their staging stream through the DRAM window, so their
// burst tallies are excluded (a neutral DRAM still counts rows).
TEST(DramDifferential, NeutralDramBitExactForAllWorkloads) {
  const energy::EnergyModel model;
  const auto& registry = workload::WorkloadRegistry::instance();
  for (const auto& name : registry.names()) {
    const auto wl = registry.at(name);
    for (const Variant variant : wl->variants()) {
      for (const std::uint32_t cores : {1u, 4u}) {
        if (cores > 1 && !wl->multi_hart_capable(variant)) continue;
        SCOPED_TRACE(name + "/" + workload::variant_name(variant) +
                     " cores=" + std::to_string(cores));
        const auto cfg = fitting_config(*wl, variant, cores);
        const auto kernel = wl->instantiate(variant, cfg);

        SimRun without = run_kernel_with(kernel, SimParams{});
        SimRun with = run_kernel_with(kernel, neutral_dram_params());
        EXPECT_EQ(without.result.cycles, with.result.cycles);
        EXPECT_EQ(without.result.exit_code, with.result.exit_code);
        const bool rows = with.cluster->counters().dram_row_hits == 0 &&
                          with.cluster->counters().dram_row_misses == 0;
        expect_counters_equal(without.cluster->counters(), with.cluster->counters(),
                              /*compare_dram_rows=*/rows);
        for (unsigned h = 0; h < cores; ++h) {
          expect_identities(with.cluster->complex(h).counters());
          expect_counters_equal(without.cluster->complex(h).counters(),
                                with.cluster->complex(h).counters(),
                                /*compare_dram_rows=*/rows);
        }
        EXPECT_EQ(model.evaluate(without.cluster->counters()).total_pj,
                  model.evaluate(with.cluster->counters()).total_pj);
        EXPECT_NO_THROW(kernels::verify_outputs(*with.cluster, kernel));
      }
    }
  }
}

// With *real* (non-neutral) DRAM timing the schedule legitimately changes,
// but every cycle must still be attributed exactly once on every hart and
// the outputs must still verify. exp and log stage through the DRAM window
// even untiled, so their runs pay real row latencies.
TEST(DramDifferential, RealDramTimingKeepsIdentitiesAndOutputs) {
  for (const auto name : {"exp", "log"}) {
    const auto wl = workload::WorkloadRegistry::instance().at(name);
    for (const Variant variant : {Variant::kBaseline, Variant::kCopift}) {
      for (const std::uint32_t cores : {1u, 4u}) {
        SCOPED_TRACE(std::string(name) + "/" + workload::variant_name(variant) +
                     " cores=" + std::to_string(cores));
        const auto kernel = wl->instantiate(variant, fitting_config(*wl, variant, cores));
        SimParams params;
        params.dram_enabled = true;
        SimRun run = run_kernel_with(kernel, params);
        EXPECT_GT(run.cluster->counters().dram_row_misses, 0u);
        for (unsigned h = 0; h < cores; ++h) {
          expect_identities(run.cluster->complex(h).counters());
        }
        EXPECT_NO_THROW(kernels::verify_outputs(*run.cluster, kernel));
      }
    }
  }
}

// --- DramModel row buffer ------------------------------------------------------

// The exact hit/miss/latency sequence of touch_row: rows interleave across
// channels at row granularity, each channel keeps its own open row, and a
// different row on the same channel closes the previous one.
TEST(DramModelRows, TouchRowHitMissLatencySequence) {
  mem::DramModel dram({.t_row_hit = 3, .t_row_miss = 17, .row_bytes = 1024,
                       .bytes_per_cycle = 16, .channels = 2});
  const struct {
    std::uint32_t addr;
    unsigned latency;
  } kSteps[] = {
      {0x0000, 17},  // row 0, channel 0: cold miss
      {0x0100, 3},   // row 0 again: hit
      {0x03FF, 3},   // last byte of row 0: hit
      {0x0400, 17},  // row 1, channel 1: cold miss
      {0x0000, 3},   // channel 0 still holds row 0
      {0x0800, 17},  // row 2, channel 0: conflict, closes row 0
      {0x0000, 17},  // row 0 must reopen
      {0x0500, 3},   // channel 1 still holds row 1
  };
  for (std::size_t i = 0; i < std::size(kSteps); ++i) {
    EXPECT_EQ(dram.touch_row(kSteps[i].addr), kSteps[i].latency) << "step " << i;
  }
  EXPECT_EQ(dram.row_hits(), 4u);
  EXPECT_EQ(dram.row_misses(), 4u);
}

// --- dmwait stall-cause split ------------------------------------------------

// A dmwait on a DRAM-window transfer attributes the whole wait to the DRAM
// cause, never to the plain DMA cause.
TEST(DramDmwait, DramTransferWaitsOnDramCause) {
  const std::string source = R"(
.data
buf:  .space 4096
.section .dram
din:  .space 4096
.text
  la a0, din
  dmsrc a0
  la a1, buf
  dmdst a1
  li a2, 4096
  dmcpy a3, a2
  dmwait
  ecall
)";
  SimParams params;
  params.dram_enabled = true;
  SimRun run = run_source(source, params);
  expect_identities(run.cluster->counters());
  EXPECT_GT(run.cluster->counters().slot(StallCause::kIntDmaDram), 0u);
  EXPECT_EQ(run.cluster->counters().slot(StallCause::kIntDmaWait), 0u);
  EXPECT_EQ(run.cluster->dma().bytes_moved(), 4096u);
  // 4 KiB streamed DRAM -> TCDM in 256-byte bursts over two 2 KiB rows (one
  // per channel): one miss opens each row and the other 7 bursts of the row
  // hit. Each burst pays its row latency before streaming at the DRAM's
  // bandwidth, so the engine is busy for exactly that sum.
  const ActivityCounters& c = run.cluster->counters();
  EXPECT_EQ(c.dram_row_hits, 14u);
  EXPECT_EQ(c.dram_row_misses, 2u);
  EXPECT_EQ(c.dma_busy_cycles, 2u * params.dram_t_row_miss + 14u * params.dram_t_row_hit +
                                   4096u / params.dram_bytes_per_cycle);
}

// The same wait on a TCDM-local copy attributes to the plain DMA cause even
// with the DRAM level attached — the taxonomy split is by traffic, not by
// whether the model is present.
TEST(DramDmwait, TcdmTransferStaysLocalCause) {
  const std::string source = R"(
.data
src: .space 2048
dst: .space 2048
.text
  la a0, src
  dmsrc a0
  la a1, dst
  dmdst a1
  li a2, 2048
  dmcpy a3, a2
  dmwait
  ecall
)";
  SimParams params;
  params.dram_enabled = true;
  SimRun run = run_source(source, params);
  expect_identities(run.cluster->counters());
  EXPECT_GT(run.cluster->counters().slot(StallCause::kIntDmaWait), 0u);
  EXPECT_EQ(run.cluster->counters().slot(StallCause::kIntDmaDram), 0u);
  EXPECT_EQ(run.cluster->counters().dram_row_hits, 0u);
  EXPECT_EQ(run.cluster->counters().dram_row_misses, 0u);
  EXPECT_EQ(run.cluster->dma().bytes_moved(), 2048u);
}

}  // namespace
}  // namespace copift::sim
