// Simulation parameters for the Snitch cluster model.
//
// Defaults approximate the paper's configuration: one compute core at 1 GHz
// in GF12LP+, 128 KiB TCDM in 32 banks, an 8-entry offload FIFO, a 16-entry
// FREP buffer, and FPnew-like latencies.
#pragma once

#include <cstdint>

#include "fpu/fpu.hpp"

namespace copift::sim {

/// Most harts a cluster can instantiate. The Snitch cluster the paper's core
/// lives in has 8 compute cores; the TCDM arbiter's grant mask also bounds
/// the per-cycle request count (<= 64), which 8 harts stay well inside.
inline constexpr unsigned kMaxHarts = 8;

struct SimParams {
  fpu::FpuLatencies fpu{};

  /// Core complexes (IntCore + FPSS + SSRs + L0 I$) sharing the TCDM. Each
  /// hart reads its id from the `mhartid` CSR and synchronizes through the
  /// `barrier` CSR. 1 reproduces the paper's single-core measurements.
  unsigned num_cores = 1;

  // Core <-> FPSS decoupling.
  unsigned offload_fifo_depth = 8;
  unsigned frep_capacity = 32;
  // Cycles the FPSS is occupied by one SSR config write (lane arming is a
  // round trip to the stream controller). This is the per-block overhead
  // that penalizes small COPIFT block sizes (paper Fig. 3).
  unsigned ssr_cfg_latency = 10;

  // Integer pipeline.
  unsigned load_use_latency = 2;     // TCDM grant -> result usable
  unsigned mul_latency = 3;          // pipelined multiplier
  unsigned div_latency = 20;         // iterative divider (blocking)
  unsigned branch_taken_penalty = 1; // bubble after a taken branch/jump

  // FP loads (baseline kernels; COPIFT maps these to SSRs instead).
  unsigned fp_load_latency = 2;

  // Memory system.
  unsigned num_tcdm_banks = 32;
  unsigned l0_lines = 8;            // 8 lines x 8 words = 64-instr L0 I$
  unsigned l0_words_per_line = 8;
  unsigned l0_branch_penalty = 2;
  unsigned ssr_fifo_depth = 4;
  unsigned dma_bytes_per_cycle = 64;

  // Main-memory (DRAM) level behind the DMA engine. Off by default: every
  // paper measurement fits in TCDM, and the pinned cycle counts must stay
  // byte-identical with the level absent. When enabled, DMA transfers whose
  // source or destination lies in the kDramBase window are split into
  // dram_burst_bytes bursts; each burst pays the open-row hit or miss
  // latency before streaming at min(dma_bytes_per_cycle,
  // dram_bytes_per_cycle). Rows interleave across dram_channels at
  // dram_row_bytes granularity (mem::DramModel).
  bool dram_enabled = false;
  unsigned dram_t_row_hit = 4;
  unsigned dram_t_row_miss = 30;
  unsigned dram_row_bytes = 2048;
  unsigned dram_bytes_per_cycle = 32;
  unsigned dram_burst_bytes = 256;
  unsigned dram_channels = 2;

  std::uint64_t max_cycles = 1'000'000'000;

  /// Throw copift::Error (naming the offending field and value) on any
  /// configuration the simulator cannot honestly model: zero cores, banks,
  /// FIFO/FREP depths, non-power-of-two L0 geometry, a stalled DMA, or a
  /// zero cycle budget. Called by the Cluster constructor so bad
  /// configurations fail loudly instead of hanging or dividing by zero.
  void validate() const;
};

}  // namespace copift::sim
