// Workload execution harness: assemble a generated workload, populate its
// inputs, run it on the cluster, verify results against the golden
// references, and extract performance/energy metrics. All per-workload
// behaviour (inputs, verification, item counting) is delegated to the
// Workload handle carried by the GeneratedWorkload — the harness contains
// no per-workload dispatch.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "energy/energy.hpp"
#include "kernels/kernels.hpp"
#include "sim/cluster.hpp"
#include "workload/workload.hpp"

namespace copift::kernels {

struct KernelRun {
  sim::RunResult result;
  sim::ActivityCounters total;    // whole program (all harts aggregated)
  sim::ActivityCounters region;   // between region markers 1 and 2 (main loop)
  energy::EnergyReport region_energy;
  bool verified = false;

  // Per-complex attribution, populated for multi-hart runs (config.cores >
  // 1): element h is hart h's own region delta and its share of the region
  // energy (hart 0 carries the cluster-constant and DMA terms). Empty for
  // single-core runs, where `region`/`region_energy` already are hart 0.
  std::vector<sim::ActivityCounters> hart_region;
  std::vector<energy::EnergyReport> hart_energy;

  [[nodiscard]] double ipc() const noexcept { return region.ipc(); }
  [[nodiscard]] double power_mw() const noexcept { return region_energy.power_mw(); }
  [[nodiscard]] double energy_nj() const noexcept { return region_energy.energy_nj(); }
};

/// Assemble a generated workload into a shared immutable program. The result
/// may be handed to many clusters at once (runs only read it), so a sweep
/// assembles each program exactly once and fans the runs out.
std::shared_ptr<const rvasm::Program> assemble_kernel(const GeneratedKernel& kernel);

/// Assemble + load + populate inputs + run + verify. Throws copift::Error on
/// assembly/simulation problems or verification mismatches (set
/// `verify=false` to skip the golden check, e.g. for parameter sweeps).
KernelRun run_kernel(const GeneratedKernel& kernel, const sim::SimParams& params = {},
                     bool verify = true);

/// Same, but runs a pre-assembled shared program (no per-run program copy);
/// `program` must have been assembled from `kernel.source`.
KernelRun run_kernel(const GeneratedKernel& kernel,
                     std::shared_ptr<const rvasm::Program> program,
                     const sim::SimParams& params = {}, bool verify = true);

/// Steady-state metrics via the two-size marginal method: run the workload at
/// n1 and n2 > n1 and report marginal IPC/power over the extra work. This
/// removes prologue/epilogue and setup overheads exactly (paper Fig. 2
/// reports steady-state iterations).
struct SteadyMetrics {
  double ipc = 0.0;
  double power_mw = 0.0;
  double cycles_per_item = 0.0;   // marginal cycles per element/sample
  double energy_pj_per_item = 0.0;
  std::uint64_t delta_cycles = 0;
};

/// Derive steady-state metrics from two completed runs that performed
/// items1 < items2 work items (the engine's steady rows; see
/// engine::run_point).
SteadyMetrics steady_from_runs(const KernelRun& r1, const KernelRun& r2,
                               std::uint64_t items1, std::uint64_t items2);

/// Delegates to the workload carried by `kernel` (kept as free functions for
/// the single-run CLI path and custom experiments).
void populate_inputs(sim::Cluster& cluster, const GeneratedKernel& kernel);
void verify_outputs(sim::Cluster& cluster, const GeneratedKernel& kernel);

/// Deterministic input vectors (shared by populate/verify/tests).
std::vector<double> exp_inputs(std::uint32_t n, std::uint32_t seed);
std::vector<float> log_inputs(std::uint32_t n, std::uint32_t seed);

}  // namespace copift::kernels
