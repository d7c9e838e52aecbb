// Main-memory (DRAM) timing model behind the cluster DMA engine.
//
// The functional store already lives in AddressSpace (the lazily grown
// region above kDramBase); this model adds the row-buffer *timing*: an open
// row per channel (row hits are cheap, row misses pay activate+precharge),
// with channels interleaved at row granularity, the same scheme
// DRAMSim-style models use for cluster-level traffic.
//
// The DmaEngine calls touch_row(addr) once per burst: it updates the
// channel's open row and returns the access latency in cycles (hit or
// miss). The engine sequences bandwidth and bursts itself, capped at
// timing().bytes_per_cycle, so its per-cycle byte flow stays chunk-exact.
#pragma once

#include <cstdint>
#include <vector>

namespace copift::mem {

/// Timing knobs, mirrored from sim::SimParams::dram_* (validated there).
struct DramTiming {
  unsigned t_row_hit = 4;        // cycles: access when the row is open
  unsigned t_row_miss = 30;      // cycles: precharge + activate + access
  unsigned row_bytes = 2048;     // open-row size; also the channel stride
  unsigned bytes_per_cycle = 32; // per-channel bandwidth
  unsigned channels = 2;
};

class DramModel {
 public:
  explicit DramModel(const DramTiming& timing);

  /// Row-buffer bookkeeping for one burst at `addr`: records the hit/miss,
  /// opens the row, and returns the access latency in cycles. Bandwidth and
  /// request ordering are the caller's business (the DMA engine serializes
  /// its own queue).
  unsigned touch_row(std::uint32_t addr);

  [[nodiscard]] const DramTiming& timing() const noexcept { return timing_; }
  [[nodiscard]] std::uint64_t row_hits() const noexcept { return row_hits_; }
  [[nodiscard]] std::uint64_t row_misses() const noexcept { return row_misses_; }
  void reset_stats() noexcept { row_hits_ = 0; row_misses_ = 0; }

 private:
  [[nodiscard]] unsigned channel_of(std::uint32_t addr) const noexcept {
    return static_cast<unsigned>((addr / timing_.row_bytes) % timing_.channels);
  }
  [[nodiscard]] std::uint64_t row_of(std::uint32_t addr) const noexcept {
    return addr / timing_.row_bytes;
  }

  DramTiming timing_;
  static constexpr std::uint64_t kNoRow = ~std::uint64_t{0};
  std::vector<std::uint64_t> open_row_;  // per channel; kNoRow = closed
  std::uint64_t row_hits_ = 0;
  std::uint64_t row_misses_ = 0;
};

}  // namespace copift::mem
