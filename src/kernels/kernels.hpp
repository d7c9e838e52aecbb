// The six paper kernels (paper Table I), published as workload-registry
// entries: "exp", "log", "poly_lcg", "pi_lcg", "poly_xoshiro128p" and
// "pi_xoshiro128p", each in an optimized RV32G baseline variant and a COPIFT
// variant. See src/workload/workload.hpp for the Workload interface the
// whole harness dispatches through.
//
// Each generator returns complete assembly for the simulated cluster:
//   _start -> setup -> [region marker 1] main loop [region marker 2]
//          -> drain FPSS -> store results -> ecall
// Inputs (x arrays, seeds) are poked into data-section symbols by the
// workload's populate_inputs; results are read back by verify_outputs.
//
// Convention of labels used by the analysis/bench code:
//   body_begin / body_end — the steady-state loop body (Table I counting)
#pragma once

#include <string_view>

#include "workload/workload.hpp"

namespace copift::kernels {

// The workload vocabulary, re-exported under the legacy names.
using Variant = workload::Variant;
using KernelConfig = workload::WorkloadConfig;
using GeneratedKernel = workload::GeneratedWorkload;

/// Registry names of the six paper kernels.
inline constexpr std::string_view kPaperWorkloads[] = {
    "exp", "log", "poly_lcg", "pi_lcg", "poly_xoshiro128p", "pi_xoshiro128p"};

/// exp/log vs Monte Carlo, by registry name.
[[nodiscard]] bool is_transcendental(std::string_view name);

}  // namespace copift::kernels
