// TCDM bank-conflict arbitration.
//
// The Snitch cluster TCDM is organized as interleaved single-ported banks
// (64-bit words). Each cycle, every requester (integer LSU, the three SSR
// lanes, the ISSR index port) may present one request; the arbiter grants at
// most one request per bank, with a rotating round-robin priority so no
// requester starves. Ungranted requests retry next cycle.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/layout.hpp"

namespace copift::mem {

/// Requester identifiers; also index the round-robin priority state.
enum class TcdmPort : std::uint8_t {
  kIntLsu = 0,
  kFpLsu,
  kSsr0,
  kSsr1,
  kSsr2,
  kIssrIndex,
  kDma,
  kCount,
};

inline constexpr unsigned kNumTcdmPorts = static_cast<unsigned>(TcdmPort::kCount);

struct TcdmRequest {
  TcdmPort port;
  std::uint32_t addr;
  /// Which core complex issued the request (multi-hart clusters share one
  /// arbiter; the rotating priority covers every (hart, port) pair so no
  /// hart starves another's same-class port).
  unsigned hart = 0;
};

class TcdmArbiter {
 public:
  explicit TcdmArbiter(unsigned num_banks = 32, unsigned num_harts = 1)
      : num_banks_(num_banks), num_requesters_(kNumTcdmPorts * num_harts) {}

  [[nodiscard]] unsigned num_banks() const noexcept { return num_banks_; }

  /// Bank index of an address (64-bit interleaving).
  [[nodiscard]] unsigned bank_of(std::uint32_t addr) const noexcept {
    return (addr >> 3) % num_banks_;
  }

  /// Arbitrate one cycle. Returns a bitmask over `requests` indices: bit i is
  /// set iff requests[i] was granted. Priority rotates every cycle.
  std::uint64_t arbitrate(std::span<const TcdmRequest> requests);

  /// Statistics.
  [[nodiscard]] std::uint64_t conflicts() const noexcept { return conflicts_; }
  [[nodiscard]] std::uint64_t grants() const noexcept { return grants_; }
  void reset_stats() noexcept { conflicts_ = 0; grants_ = 0; }

 private:
  unsigned num_banks_;
  unsigned num_requesters_;  // kNumTcdmPorts x harts, the rr_ modulus
  unsigned rr_ = 0;          // rotating priority offset
  std::uint64_t conflicts_ = 0;
  std::uint64_t grants_ = 0;

  // Per-cycle scratch, kept across calls so the hot arbitration loop never
  // allocates (sized lazily on first use, cleared incrementally per cycle).
  std::vector<std::uint8_t> bank_taken_;  // indexed by bank
  std::vector<int> head_;                 // requester id -> first request index, -1 = none
  std::vector<int> next_;                 // request index -> next with the same id
};

}  // namespace copift::mem
