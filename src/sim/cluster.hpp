// Snitch cluster SoC: N core complexes (IntCore + FPSS + SSRs + L0 I$) built
// from a ClusterTopology around one shared memory system (banked TCDM + DMA)
// and a hardware barrier.
//
// This is the top-level simulation object: load an assembled program,
// `run()` it to completion (every hart executes ecall), then read the
// activity counters, region snapshots and memory state — and, with tracing
// enabled before run(), the per-cycle instruction/stall streams that feed
// the Perfetto export and stall report (sim/trace_export.hpp).
//
// Every hart starts at the program entry point; programs partition work by
// reading the `mhartid` CSR and synchronize through the `barrier` CSR. The
// hart-0 view doubles as the aggregated single-core view: with one complex,
// counters()/regions()/tracer() are exactly the historical Cluster API and
// the simulation is bit-identical to the pre-topology model.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/address_space.hpp"
#include "mem/dma.hpp"
#include "mem/dram.hpp"
#include "mem/tcdm.hpp"
#include "rvasm/program.hpp"
#include "sim/core_complex.hpp"
#include "sim/counters.hpp"
#include "sim/decode.hpp"
#include "sim/params.hpp"
#include "sim/topology.hpp"
#include "sim/trace.hpp"

namespace copift::sim {

struct RunResult {
  bool halted = false;
  std::uint64_t cycles = 0;
  std::uint32_t exit_code = 0;  // hart 0's a0
};

class Cluster {
 public:
  /// Primary constructor: the program is shared, immutable, and may be run
  /// by many clusters concurrently (e.g. a parameter sweep assembles each
  /// kernel once and fans the runs out across engine worker threads). The
  /// topology is validated; bad configurations throw copift::Error.
  Cluster(std::shared_ptr<const rvasm::Program> program, ClusterTopology topology);

  /// Homogeneous topology of `params.num_cores` complexes built from
  /// `params` (the historical constructor; `num_cores` defaults to 1).
  explicit Cluster(std::shared_ptr<const rvasm::Program> program, SimParams params = {});

  /// Convenience: take ownership of a freshly assembled program (moved into
  /// a shared_ptr, not deep-copied).
  explicit Cluster(rvasm::Program program, SimParams params = {});
  Cluster(rvasm::Program program, ClusterTopology topology);

  /// Run until every hart executes `ecall` (plus the FPSS drain) or
  /// max_cycles elapse. A SimError raised inside the cycle loop is rethrown
  /// with the cycle and every hart's PC (and nearest label) appended.
  RunResult run();

  /// Advance exactly one cycle (exposed for fine-grained tests).
  void tick();

  /// Always 0: the clock advances one cycle per tick(). Kept for the
  /// benchmark's `sim.skipped_ratio` and `sim.skip_jumps` metrics (perfbench/),
  /// their only readers.
  [[nodiscard]] std::uint64_t skip_jumps() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t skipped_cycles() const noexcept { return 0; }

  /// True when every hart has halted.
  [[nodiscard]] bool halted() const noexcept;
  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycle_; }

  // --- topology ------------------------------------------------------------
  [[nodiscard]] unsigned num_cores() const noexcept {
    return static_cast<unsigned>(complexes_.size());
  }
  [[nodiscard]] const ClusterTopology& topology() const noexcept { return topo_; }
  [[nodiscard]] CoreComplex& complex(unsigned hart) { return *complexes_.at(hart); }
  [[nodiscard]] const CoreComplex& complex(unsigned hart) const {
    return *complexes_.at(hart);
  }
  [[nodiscard]] HwBarrier& barrier() noexcept { return barrier_; }
  [[nodiscard]] const HwBarrier& barrier() const noexcept { return barrier_; }

  // --- aggregated / hart-0 view (the historical single-core API) -----------
  /// Cluster-wide counters: hart 0's counters for a single-core cluster
  /// (bit-identical to the historical behaviour); the element-wise sum over
  /// all harts (cycles = cluster cycles) otherwise.
  [[nodiscard]] const ActivityCounters& counters() const noexcept;
  /// Hart 0's region stream (see CoreComplex::regions() for other harts).
  [[nodiscard]] const std::vector<RegionEvent>& regions() const noexcept {
    return complexes_.front()->regions();
  }
  [[nodiscard]] mem::AddressSpace& memory() noexcept { return memory_; }
  [[nodiscard]] const mem::AddressSpace& memory() const noexcept { return memory_; }
  [[nodiscard]] const rvasm::Program& program() const noexcept { return *program_; }
  [[nodiscard]] const std::shared_ptr<const rvasm::Program>& program_ptr() const noexcept {
    return program_;
  }
  [[nodiscard]] IntCore& core() noexcept { return complexes_.front()->core(); }
  [[nodiscard]] const IntCore& core() const noexcept { return complexes_.front()->core(); }
  [[nodiscard]] FpSubsystem& fpss() noexcept { return complexes_.front()->fpss(); }
  [[nodiscard]] const FpSubsystem& fpss() const noexcept { return complexes_.front()->fpss(); }
  [[nodiscard]] ssr::SsrUnit& ssr() noexcept { return complexes_.front()->ssr(); }
  [[nodiscard]] const ssr::SsrUnit& ssr() const noexcept { return complexes_.front()->ssr(); }
  [[nodiscard]] mem::DmaEngine& dma() noexcept { return dma_; }
  [[nodiscard]] const mem::DmaEngine& dma() const noexcept { return dma_; }
  /// DRAM timing model, or nullptr when SimParams::dram_enabled is false.
  [[nodiscard]] const mem::DramModel* dram() const noexcept { return dram_.get(); }
  /// Hart 0's instruction + stall tracer (disabled by default). Use
  /// set_tracing() to switch every hart's tracer at once.
  [[nodiscard]] Tracer& tracer() noexcept { return complexes_.front()->tracer(); }
  [[nodiscard]] const Tracer& tracer() const noexcept { return complexes_.front()->tracer(); }
  /// Enable/disable tracing on every hart (call before run()).
  void set_tracing(bool enabled);

 private:
  [[nodiscard]] bool all_fpss_idle() const noexcept;
  /// " (cycle N; hart 0 pc 0x... <label+0xNN>; ...)": where a fault hit.
  [[nodiscard]] std::string fault_location() const;

  enum class RequestSrc : std::uint8_t { kCore, kFpss, kSsr };
  struct RequestTag {
    unsigned hart;
    RequestSrc src;
    ssr::SsrUnit::RequestTag ssr_tag;
  };

  std::shared_ptr<const rvasm::Program> program_;
  // Decode-once micro-op table, shared across clusters running the same
  // program (see sim/decode.hpp).
  std::shared_ptr<const DecodedProgram> decoded_;
  ClusterTopology topo_;
  mem::AddressSpace memory_;
  mem::TcdmArbiter arbiter_;
  // Heap-allocated so the DmaEngine's pointer into it stays stable; null
  // when the shared params leave DRAM timing disabled (the default, which
  // keeps every pinned paper cycle count byte-identical).
  std::unique_ptr<mem::DramModel> dram_;
  mem::DmaEngine dma_;
  HwBarrier barrier_;
  // unique_ptr: complexes hold pointers into the shared members above and
  // into themselves, so their addresses must be stable.
  std::vector<std::unique_ptr<CoreComplex>> complexes_;
  std::uint64_t cycle_ = 0;
  // Rebuilt on demand by counters() for multi-hart clusters.
  mutable ActivityCounters agg_;
  // tick() scratch space, kept as members so the per-cycle hot path does no
  // heap allocation (the vectors are cleared, not reallocated, every cycle).
  std::vector<mem::TcdmRequest> requests_;
  std::vector<RequestTag> tags_;
  std::vector<mem::TcdmRequest> ssr_requests_;
  std::vector<ssr::SsrUnit::RequestTag> ssr_tags_;
};

}  // namespace copift::sim
