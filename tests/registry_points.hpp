// The registry programs the front-end tests pin and mutate, and whose
// simulated counters test_decode_cache pins: every registered
// workload x variant at cores 1 and 4 (n=64, seed 7, the first valid block of
// perfbench cold_pipeline's list: default, 16, 4, 32, 8) plus every tiled
// configuration (n=65536, tile 1024, cores 2, blocks as perfbench tiled_dram:
// default, 64, 32, 128, 16).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "workload/workload.hpp"

namespace copift::testing {

struct RegistryPoint {
  std::string label;  // "axpy/copift n=64 block=16 cores=4 tile=0"
  std::shared_ptr<const workload::Workload> workload;
  workload::Variant variant;
  workload::WorkloadConfig config;

  [[nodiscard]] std::string source() const { return workload->instantiate(variant, config).source; }
};

/// `config` with the first block in `blocks` the workload accepts; false
/// when none is valid.
inline bool first_valid_block(const workload::Workload& wl, workload::Variant variant,
                              workload::WorkloadConfig& config,
                              std::initializer_list<std::uint32_t> blocks) {
  for (const auto block : blocks) {
    config.block = block;
    try {
      wl.validate(variant, config);
      return true;
    } catch (const workload::ConfigError&) {
    }
  }
  return false;
}

inline std::vector<RegistryPoint> registry_points() {
  std::vector<RegistryPoint> points;
  const auto add = [&](const std::shared_ptr<const workload::Workload>& wl,
                       workload::Variant variant, const workload::WorkloadConfig& c) {
    points.push_back({wl->name() + "/" + workload::variant_name(variant) +
                          " n=" + std::to_string(c.n) + " block=" + std::to_string(c.block) +
                          " cores=" + std::to_string(c.cores) + " tile=" + std::to_string(c.tile),
                      wl, variant, c});
  };
  const auto& registry = workload::WorkloadRegistry::instance();
  for (const auto& name : registry.names()) {
    const auto wl = registry.at(name);
    const std::uint32_t block = wl->default_config().block;
    for (const auto variant : wl->variants()) {
      for (const std::uint32_t cores : {1U, 4U}) {
        workload::WorkloadConfig config;
        config.n = 64;
        config.seed = 7;
        config.cores = cores;
        if (first_valid_block(*wl, variant, config, {block, 16, 4, 32, 8})) add(wl, variant, config);
      }
      if (wl->tiled_capable(variant)) {
        workload::WorkloadConfig config;
        config.n = 65536;
        config.tile = 1024;
        config.cores = 2;
        config.seed = 7;
        if (first_valid_block(*wl, variant, config, {block, 64, 32, 128, 16})) add(wl, variant, config);
      }
    }
  }
  return points;
}

}  // namespace copift::testing
