// Internal interfaces between the per-kernel generator translation units.
#pragma once

#include <string>

#include "kernels/kernels.hpp"
#include "workload/software_pipeline.hpp"

namespace copift::kernels {

/// The phases of each COPIFT kernel's software pipeline, in precedence
/// order. The generators emit one phase per entry; the workload validators
/// take each run's minimum block count from the same list
/// (workload::SoftwarePipeline::min_blocks). Each generator's file comment
/// names its phases.
using workload::PhaseKind;
inline constexpr PhaseKind kExpPhases[] = {PhaseKind::kFp, PhaseKind::kInt, PhaseKind::kFp};
inline constexpr PhaseKind kLogPhases[] = {PhaseKind::kInt, PhaseKind::kFp};
inline constexpr PhaseKind kMcPhases[] = {PhaseKind::kInt, PhaseKind::kFp};

std::string generate_exp(Variant variant, const KernelConfig& config);
std::string generate_log(Variant variant, const KernelConfig& config);

/// Monte Carlo family: `poly` selects the polynomial-integration problem
/// (pi otherwise); `xoshiro` selects the PRNG (LCG otherwise).
std::string generate_mc(Variant variant, const KernelConfig& config, bool poly, bool xoshiro);

}  // namespace copift::kernels
