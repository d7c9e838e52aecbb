#include "sim/params.hpp"

#include <string>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace copift::sim {

void SimParams::validate() const {
  const auto fail = [](const std::string& what) { throw Error("SimParams: " + what); };
  if (num_cores == 0) fail("num_cores must be >= 1");
  if (num_cores > kMaxHarts) {
    fail("num_cores=" + std::to_string(num_cores) + " exceeds the cluster maximum of " +
         std::to_string(kMaxHarts) + " harts");
  }
  if (num_tcdm_banks == 0) fail("num_tcdm_banks must be >= 1");
  if (offload_fifo_depth == 0) fail("offload_fifo_depth must be >= 1");
  if (ssr_fifo_depth == 0) fail("ssr_fifo_depth must be >= 1");
  if (frep_capacity == 0) fail("frep_capacity must be >= 1");
  if (!copift::is_pow2(l0_lines)) {
    fail("l0_lines=" + std::to_string(l0_lines) + " must be a non-zero power of two");
  }
  if (!copift::is_pow2(l0_words_per_line)) {
    fail("l0_words_per_line=" + std::to_string(l0_words_per_line) +
         " must be a non-zero power of two");
  }
  if (dma_bytes_per_cycle == 0) fail("dma_bytes_per_cycle must be >= 1 (the DMA would hang)");
  if (dram_enabled) {
    if (!copift::is_pow2(dram_row_bytes)) {
      fail("dram_row_bytes=" + std::to_string(dram_row_bytes) +
           " must be a non-zero power of two");
    }
    if (dram_bytes_per_cycle == 0) fail("dram_bytes_per_cycle must be >= 1");
    if (dram_channels == 0) fail("dram_channels must be >= 1");
    if (dram_burst_bytes == 0) fail("dram_burst_bytes must be >= 1");
    // Bursts must cut the transfer at engine-chunk boundaries, or the
    // per-cycle byte flow would diverge from the flat path even with zero
    // row latency — breaking the present-but-unused == absent equivalence
    // the differential tests pin.
    if (dram_burst_bytes % dma_bytes_per_cycle != 0) {
      fail("dram_burst_bytes=" + std::to_string(dram_burst_bytes) +
           " must be a multiple of dma_bytes_per_cycle=" +
           std::to_string(dma_bytes_per_cycle));
    }
  }
  if (max_cycles == 0) fail("max_cycles must be >= 1");
}

}  // namespace copift::sim
