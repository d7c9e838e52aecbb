// The uncached single-point pipeline, driven from outside through each
// layer's public functions with one span per layer call:
//
//   Workload::instantiate -> rvasm::assemble -> lint::lint_program ->
//   DecodedProgram::get -> Cluster + populate_inputs -> Cluster::run ->
//   verify_outputs -> EnergyModel::evaluate
//
// It mirrors kernels::run_kernel (region energy, per-hart attribution), so
// its simulated statistics equal the engine's for the same point.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/counters.hpp"
#include "sim/params.hpp"
#include "trace.hpp"
#include "workload/workload.hpp"

namespace perfbench {

struct PointSpec {
  std::shared_ptr<const copift::workload::Workload> workload;
  copift::workload::Variant variant = copift::workload::Variant::kCopift;
  copift::workload::WorkloadConfig config{};
  copift::sim::SimParams params{};  // num_cores is taken from config.cores
};

struct PointResult {
  std::uint64_t cycles = 0;       // cluster cycles, skipped ones included
  std::uint64_t hart_cycles = 0;  // cycles x harts
  std::uint64_t retired = 0;
  double energy_pj = 0.0;         // region energy (markers 1..2), as run_kernel reports it
  copift::sim::ActivityCounters total{};
  std::uint64_t skipped_cycles = 0;
  std::uint64_t skip_jumps = 0;
  std::size_t lint_diags = 0;
};

/// Run one point end to end. With `strict_lint`, any lint diagnostic throws;
/// without it the lint layer is skipped (as the engine does in release
/// builds). Throws copift::Error on any failure, verification included.
PointResult run_pipeline(const PointSpec& spec, Trace& trace, bool strict_lint);

/// "exp copift n=64 block=32 cores=4 tile=0 seed=7".
[[nodiscard]] std::string describe(const PointSpec& spec);

/// One digest line: the point plus its cycles, retired instructions and energy.
[[nodiscard]] std::string digest_line(const std::string& point, std::uint64_t cycles,
                                      std::uint64_t retired, double energy_pj);

}  // namespace perfbench
