// The cluster's hardware barrier: the node every hart's `barrier` CSR
// access synchronizes through.
#pragma once

#include <cstdint>
#include <vector>

namespace copift::sim {

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
