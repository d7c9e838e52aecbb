// One Snitch core complex: the unit a Cluster instantiates once per hart.
//
// A complex bundles everything private to a hart — integer core, FP
// subsystem, SSR lanes, L0 I$, activity counters, region stream and tracer —
// around the cluster-shared memory system (AddressSpace, TCDM arbiter, DMA,
// hardware barrier). sim::Cluster owns the shared pieces and ticks every
// complex in lockstep; all per-hart introspection (counters, regions,
// traces) hangs off the complex.
#pragma once

#include <cstdint>
#include <vector>

#include "mem/address_space.hpp"
#include "mem/dma.hpp"
#include "mem/l0_icache.hpp"
#include "rvasm/program.hpp"
#include "sim/barrier.hpp"
#include "sim/core.hpp"
#include "sim/counters.hpp"
#include "sim/decode.hpp"
#include "sim/fpss.hpp"
#include "sim/params.hpp"
#include "sim/trace.hpp"
#include "ssr/ssr.hpp"

namespace copift::sim {

class CoreComplex {
 public:
  CoreComplex(unsigned hart_id, unsigned num_harts, const SimParams& params,
              const DecodedProgram& decoded, mem::AddressSpace& memory, mem::DmaEngine& dma,
              HwBarrier& barrier);

  CoreComplex(const CoreComplex&) = delete;
  CoreComplex& operator=(const CoreComplex&) = delete;

  [[nodiscard]] unsigned hart_id() const noexcept { return hart_id_; }
  [[nodiscard]] const SimParams& params() const noexcept { return params_; }

  [[nodiscard]] IntCore& core() noexcept { return core_; }
  [[nodiscard]] const IntCore& core() const noexcept { return core_; }
  [[nodiscard]] FpSubsystem& fpss() noexcept { return fpss_; }
  [[nodiscard]] const FpSubsystem& fpss() const noexcept { return fpss_; }
  [[nodiscard]] ssr::SsrUnit& ssr() noexcept { return ssr_; }
  [[nodiscard]] const ssr::SsrUnit& ssr() const noexcept { return ssr_; }
  [[nodiscard]] mem::L0ICache& icache() noexcept { return icache_; }
  [[nodiscard]] const mem::L0ICache& icache() const noexcept { return icache_; }

  [[nodiscard]] ActivityCounters& counters() noexcept { return counters_; }
  [[nodiscard]] const ActivityCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] const std::vector<RegionEvent>& regions() const noexcept { return regions_; }
  [[nodiscard]] Tracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] const Tracer& tracer() const noexcept { return tracer_; }

 private:
  unsigned hart_id_;
  SimParams params_;
  ActivityCounters counters_;
  std::vector<RegionEvent> regions_;
  Tracer tracer_;
  mem::L0ICache icache_;
  ssr::SsrUnit ssr_;
  FpSubsystem fpss_;
  IntCore core_;
};

}  // namespace copift::sim
