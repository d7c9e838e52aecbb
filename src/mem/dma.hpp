// Cluster DMA engine model.
//
// Functionally the copy completes when the transfer's last beat retires;
// timing-wise the engine moves `bytes_per_cycle` per cycle while busy.
// The engine's contribution to the power model is its busy/idle cycle split
// (the paper notes the Monte Carlo kernels draw less power partly because
// the DMA is inactive).
//
// With a DramModel attached, transfers touching the DRAM window are issued
// as row-buffer bursts: each `burst_bytes` slice pays the open-row hit or
// miss latency up front (no bytes move), then streams at
// min(bytes_per_cycle, dram bandwidth). All burst state is kept as relative
// countdowns inside the front Transfer. Transfers entirely inside TCDM keep
// the flat path bit-for-bit, DramModel attached or not.
#pragma once

#include <cstdint>
#include <deque>

#include "mem/address_space.hpp"
#include "mem/dram.hpp"

namespace copift::mem {

class DmaEngine {
 public:
  explicit DmaEngine(AddressSpace& memory, unsigned bytes_per_cycle = 64)
      : memory_(&memory), bytes_per_cycle_(bytes_per_cycle) {}

  /// Attach the DRAM timing model; transfers with a src or dst in the DRAM
  /// window go through it. `burst_bytes` must be a multiple of
  /// bytes_per_cycle (SimParams::validate enforces it).
  void attach_dram(DramModel& dram, unsigned burst_bytes) noexcept {
    dram_ = &dram;
    burst_bytes_ = burst_bytes;
  }

  void set_src(std::uint32_t addr) noexcept { src_ = addr; }
  void set_dst(std::uint32_t addr) noexcept { dst_ = addr; }

  /// Enqueue a copy of `bytes` from the configured src to dst.
  /// Returns a transfer id.
  std::uint32_t start(std::uint32_t bytes);

  /// Number of pending (unfinished) transfers, as returned by dmstat.
  [[nodiscard]] std::uint32_t pending() const noexcept {
    return static_cast<std::uint32_t>(queue_.size());
  }

  /// Pending transfers that touch the DRAM window (0 when no DramModel is
  /// attached). Drives the dmwait stall-cause split: waiting on DRAM traffic
  /// is attributed separately from waiting on TCDM-local copies.
  [[nodiscard]] std::uint32_t dram_pending() const noexcept { return dram_pending_; }

  /// Advance one cycle.
  void tick();

  [[nodiscard]] std::uint64_t busy_cycles() const noexcept { return busy_cycles_; }
  [[nodiscard]] std::uint64_t bytes_moved() const noexcept { return bytes_moved_; }
  void reset_stats() noexcept { busy_cycles_ = 0; bytes_moved_ = 0; }

 private:
  struct Transfer {
    std::uint32_t src;
    std::uint32_t dst;
    std::uint32_t bytes;
    std::uint32_t progress = 0;
    // DRAM burst state, all relative countdowns (no absolute clock).
    bool touches_dram = false;
    bool burst_open = false;
    unsigned latency_left = 0;   // row hit/miss cycles before bytes flow
    std::uint32_t burst_left = 0;  // bytes remaining in the open burst
  };

  void open_burst(Transfer& t);

  AddressSpace* memory_;
  unsigned bytes_per_cycle_;
  DramModel* dram_ = nullptr;
  unsigned burst_bytes_ = 256;
  std::uint32_t src_ = 0;
  std::uint32_t dst_ = 0;
  std::uint32_t next_id_ = 0;
  std::uint32_t dram_pending_ = 0;
  std::deque<Transfer> queue_;
  std::uint64_t busy_cycles_ = 0;
  std::uint64_t bytes_moved_ = 0;
};

}  // namespace copift::mem
