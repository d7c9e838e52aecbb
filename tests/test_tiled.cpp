// Tiled (DRAM + DMA double-buffering) correctness tests: workloads whose
// arrays exceed the 128 KiB TCDM by 4x-16x must still verify bit-exactly
// against the host golden reference at every core count, and the generated
// tile loop must actually overlap DMA with compute (the whole point of
// double buffering). See workload/tiled_buffer.hpp for the codegen contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/layout.hpp"
#include "kernels/kernels.hpp"
#include "kernels/runner.hpp"
#include "sim/params.hpp"
#include "sim/trace_export.hpp"
#include "workload/workload.hpp"

namespace copift::kernels {
namespace {

using workload::Variant;
using workload::WorkloadConfig;

sim::SimParams dram_params(std::uint32_t cores) {
  sim::SimParams params;
  params.num_cores = cores;
  params.dram_enabled = true;
  return params;
}

/// Cycles during which the DMA engine moved data while the cores were NOT
/// stalled waiting on it — positive iff the double buffering overlapped
/// transfers with compute instead of serializing them.
std::int64_t overlap_cycles(const KernelRun& run) {
  return static_cast<std::int64_t>(run.total.dma_busy_cycles) -
         static_cast<std::int64_t>(run.total.slot(sim::StallCause::kIntDmaWait) +
                                   run.total.slot(sim::StallCause::kIntDmaDram));
}

KernelRun run_tiled(const char* name, Variant variant, std::uint32_t n,
                    std::uint32_t tile, std::uint32_t cores,
                    std::uint32_t block = 32) {
  WorkloadConfig cfg;
  cfg.n = n;
  cfg.tile = tile;
  cfg.cores = cores;
  cfg.block = block;
  const auto wl = workload::WorkloadRegistry::instance().at(name);
  return run_kernel(wl->instantiate(variant, cfg), dram_params(cores));
}

// n = 65536 doubles: x + y = 1 MiB of array data, 8x the whole TCDM.
// run_kernel verifies bit-exactly against the host std::fma reference.
TEST(TiledAxpy, BitExactAt4xTcdmEveryCoreCount) {
  for (const Variant variant : {Variant::kBaseline, Variant::kCopift}) {
    for (const std::uint32_t cores : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::string(workload::variant_name(variant)) +
                   " cores=" + std::to_string(cores));
      const auto run = run_tiled("axpy", variant, 65536, 1024, cores);
      EXPECT_TRUE(run.verified);
      EXPECT_EQ(run.total.dma_bytes, 3u * 65536u * 8u);  // x in, y in, y out
    }
  }
}

TEST(TiledAxpy, BitExactAt16xTcdm) {
  const auto run = run_tiled("axpy", Variant::kCopift, 262144, 2048, 4);
  EXPECT_TRUE(run.verified);
}

// The overlap property: with many tiles in flight the engine must be busy
// while the cores compute, not only while they block in dmwait.
TEST(TiledAxpy, DmaOverlapsCompute) {
  for (const Variant variant : {Variant::kBaseline, Variant::kCopift}) {
    SCOPED_TRACE(workload::variant_name(variant));
    const auto run = run_tiled("axpy", variant, 65536, 1024, 1);
    EXPECT_GT(overlap_cycles(run), 0);
  }
}

// Tiling must also work without the DRAM timing model (flat DMA latency):
// the data placement is the same, only the transfer timing changes.
TEST(TiledAxpy, BitExactWithDramTimingDisabled) {
  WorkloadConfig cfg;
  cfg.n = 65536;
  cfg.tile = 1024;
  cfg.cores = 2;
  const auto wl = workload::WorkloadRegistry::instance().at("axpy");
  sim::SimParams params;
  params.num_cores = 2;
  const auto run = run_kernel(wl->instantiate(Variant::kCopift, cfg), params);
  EXPECT_TRUE(run.verified);
}

// exp runs the full three-phase COPIFT pipeline (FREP + SSR + integer table
// lookup + copift.barrier) inside every tile; the table, constants and slot
// arena stay TCDM-resident while x/y stream from/to DRAM.
TEST(TiledExp, BitExactAt4xTcdmEveryCoreCount) {
  for (const Variant variant : {Variant::kBaseline, Variant::kCopift}) {
    for (const std::uint32_t cores : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::string(workload::variant_name(variant)) +
                   " cores=" + std::to_string(cores));
      const auto run = run_tiled("exp", variant, 65536, 1024, cores, /*block=*/64);
      EXPECT_TRUE(run.verified);
      EXPECT_EQ(run.total.dma_bytes, 2u * 65536u * 8u);  // x in, y out
    }
  }
}

TEST(TiledExp, BitExactAt16xTcdm) {
  const auto run = run_tiled("exp", Variant::kCopift, 262144, 2048, 4, /*block=*/64);
  EXPECT_TRUE(run.verified);
}

TEST(TiledExp, DmaOverlapsCompute) {
  for (const Variant variant : {Variant::kBaseline, Variant::kCopift}) {
    SCOPED_TRACE(workload::variant_name(variant));
    const auto run = run_tiled("exp", variant, 65536, 1024, 1, /*block=*/64);
    EXPECT_GT(overlap_cycles(run), 0);
  }
}

/// The stall-breakdown rows of one unit's section of the pipeline report:
/// (label, cycles) for each line between the section's breakdown header and
/// the next blank line.
std::vector<std::pair<std::string, std::uint64_t>> breakdown_rows(const std::string& report,
                                                                  const std::string& section) {
  std::istringstream in(report.substr(report.find(section) + 1));  // skip the '\n'
  std::string line;
  std::getline(in, line);  // occupancy line
  std::getline(in, line);  // "stall breakdown (...)"
  std::vector<std::pair<std::string, std::uint64_t>> rows;
  while (std::getline(in, line) && !line.empty()) {
    std::istringstream row(line);
    std::string label;
    std::uint64_t cycles = 0;
    row >> label >> cycles;
    rows.emplace_back(label, cycles);
  }
  return rows;
}

// The report lists every stall-kind cause of each unit, so its rows add up
// to the unit's stall total. On this DMA-bound point about 30% of the
// integer-core slots are dmwait on DRAM bursts.
TEST(TiledReport, BreakdownHasOneRowPerStallCause) {
  const auto run = run_tiled("axpy", Variant::kCopift, 65536, 1024, 2);
  EXPECT_GT(run.total.slot(sim::StallCause::kIntDmaDram), 0u);
  const std::string report = sim::render_report(sim::Tracer{}, run.total, 10, 2);
  for (const auto& [unit, section] : {std::pair{sim::TraceUnit::kIntCore, "\nint core "},
                                      std::pair{sim::TraceUnit::kFpss, "\nfpss "}}) {
    SCOPED_TRACE(section);
    std::vector<std::string> want;
    for (const sim::CauseInfo& info : sim::kCauseInfo) {
      if (info.unit == unit && info.kind == sim::SlotKind::kStall) {
        want.emplace_back(std::strchr(info.name, '/') + 1);
      }
    }
    std::vector<std::string> labels;
    std::uint64_t sum = 0;
    for (const auto& [label, cycles] : breakdown_rows(report, section)) {
      labels.push_back(label);
      sum += cycles;
    }
    EXPECT_EQ(labels, want);
    EXPECT_EQ(sum, run.total.unit_cycles(unit, sim::SlotKind::kStall));
  }
}

// Untileable configurations must be rejected with value-carrying messages.
TEST(TiledValidation, RejectsBadTilings) {
  const auto expect_error = [](WorkloadConfig cfg, const char* fragment) {
    try {
      (void)workload::generate("axpy", Variant::kCopift, cfg);
      FAIL() << "expected ConfigError mentioning '" << fragment << "'";
    } catch (const workload::ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos) << e.what();
    }
  };
  WorkloadConfig cfg;
  cfg.n = 65536;
  cfg.tile = 1000;  // does not divide n
  expect_error(cfg, "does not divide n=65536");
  cfg.tile = 65536;  // single tile: nothing to double-buffer
  expect_error(cfg, "fewer than 2 tiles");
  cfg.tile = 1024;
  cfg.cores = 3;  // does not divide tile... but first: 3 doesn't divide 1024
  expect_error(cfg, "does not divide tile=1024");
  cfg.cores = 1;
  cfg.tile = 8192;  // 2 x 8192 x 16 bytes = 256 KiB of buffers > TCDM
  expect_error(cfg, "TCDM");
  // Workloads without a tiled generator reject tile > 0 outright.
  cfg = WorkloadConfig{};
  cfg.n = 1920;
  cfg.block = 96;
  cfg.tile = 960;
  try {
    (void)workload::generate("pi_lcg", Variant::kCopift, cfg);
    FAIL() << "expected ConfigError";
  } catch (const workload::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("no tiled"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace copift::kernels
