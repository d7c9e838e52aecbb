// Composable SoC topology: how many core complexes a cluster instantiates,
// with which per-complex parameters, around one shared memory system.
//
// A ClusterTopology is a value describing the wiring; sim::Cluster is the
// built SoC. The common cases are one-liners:
//
//   Cluster soc(program);                                   // 1 complex
//   Cluster soc(program, ClusterTopology().cores(4));       // 4 identical
//   Cluster soc(program, ClusterTopology(base)
//                            .add_complex(fast)
//                            .add_complex(slow));           // heterogeneous
//
// Memory-system parameters (TCDM bank count, DMA bandwidth, max_cycles) come
// from the base/shared SimParams; per-complex parameters (FPU latencies,
// FIFO depths, L0 geometry) may differ per hart. validate() — called by the
// Cluster constructor — rejects unusable configurations with descriptive
// errors instead of letting the simulation silently misbehave.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/params.hpp"

namespace copift::sim {

class ClusterTopology {
 public:
  /// `base.num_cores` identical complexes built from `base`.
  ClusterTopology() : ClusterTopology(SimParams{}) {}
  explicit ClusterTopology(const SimParams& base);

  /// Resize to `n` identical complexes of the base parameters (drops any
  /// heterogeneous complexes added earlier).
  ClusterTopology& cores(unsigned n);
  /// Append one complex with its own parameters (heterogeneous clusters).
  ClusterTopology& add_complex(const SimParams& params);
  /// Replace the shared memory-system / run-limit parameters.
  ClusterTopology& shared_params(const SimParams& base);

  [[nodiscard]] unsigned num_cores() const noexcept {
    return static_cast<unsigned>(complexes_.size());
  }
  [[nodiscard]] const SimParams& complex(unsigned hart) const { return complexes_.at(hart); }
  /// Memory-system + run-limit parameters (bank count, DMA bandwidth,
  /// max_cycles) shared by every complex.
  [[nodiscard]] const SimParams& shared() const noexcept { return base_; }

  /// Throw copift::Error on zero complexes, more than kMaxHarts, or any
  /// per-complex/shared SimParams that fails SimParams::validate().
  void validate() const;

 private:
  SimParams base_;
  std::vector<SimParams> complexes_;
  // Complex count as requested by the caller. The stored vector is clamped
  // to kMaxHarts so absurd requests (cores(1e9)) fail in validate() with a
  // descriptive error instead of dying in a gigantic allocation here.
  unsigned requested_cores_ = 1;
};

/// Single-cycle hardware barrier shared by all harts of a cluster.
///
/// A hart "at the barrier" (executing an access to the `barrier` CSR) calls
/// try_pass(hart) once per cycle. The first call registers the arrival; the
/// call that completes the full set releases every hart — the completing
/// hart passes the same cycle, the others on their next poll (one broadcast
/// cycle, like the real cluster's central barrier node). With one hart the
/// first call passes immediately.
class HwBarrier {
 public:
  explicit HwBarrier(unsigned num_harts)
      : num_harts_(num_harts), arrived_(num_harts, false), released_(num_harts, false) {}

  [[nodiscard]] unsigned num_harts() const noexcept { return num_harts_; }

  /// Returns true iff hart `h` may proceed past the barrier this cycle.
  bool try_pass(unsigned h);

  /// Completed barrier rounds (diagnostics).
  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }

 private:
  unsigned num_harts_;
  unsigned count_ = 0;              // arrivals in the current round
  std::uint64_t rounds_ = 0;
  std::vector<bool> arrived_;       // hart has registered for the current round
  std::vector<bool> released_;      // pending pass from a completed round
};

}  // namespace copift::sim
