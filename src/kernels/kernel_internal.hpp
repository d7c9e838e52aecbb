// Internal interfaces between the per-kernel generator translation units.
#pragma once

#include <cstdint>
#include <string>

#include "kernels/kernels.hpp"

namespace copift::kernels {

/// Fewest COPIFT blocks per hart (per hart per tile, when tiled) each
/// kernel's software pipeline runs correctly on. exp fills its three-phase
/// pipeline with 2 prologue blocks and enters the do-while steady loop with
/// nb-2 iterations, so it needs 3; log and the Monte Carlo kernels have one
/// phase less and enter with nb-1, so they need 2. Both the workload
/// validators and the generators check against these.
inline constexpr std::uint32_t kExpMinBlocks = 3;
inline constexpr std::uint32_t kLogMinBlocks = 2;
inline constexpr std::uint32_t kMcMinBlocks = 2;

std::string generate_exp(Variant variant, const KernelConfig& config);
std::string generate_log(Variant variant, const KernelConfig& config);

/// Monte Carlo family: `poly` selects the polynomial-integration problem
/// (pi otherwise); `xoshiro` selects the PRNG (LCG otherwise).
std::string generate_mc(Variant variant, const KernelConfig& config, bool poly, bool xoshiro);

}  // namespace copift::kernels
