// L0 instruction cache (loop buffer) model.
//
// Snitch's L0 I$ is a small fully-associative buffer of cache lines with a
// sequential next-line prefetcher in front of the shared L1 I$. Loop bodies
// that fit execute without refills; larger bodies thrash (paper Section
// III-B: the base `exp`/`log` loop bodies exceed 64 instructions and thrash,
// the COPIFT integer loops fit and save refill energy).
//
// Timing: sequential misses are hidden by the prefetcher (zero penalty, but
// they still cost refill energy); non-sequential misses (taken branches to an
// evicted line) pay `branch_miss_penalty` cycles.
#pragma once

#include <cstdint>
#include <vector>

namespace copift::mem {

struct L0Stats {
  std::uint64_t hits = 0;
  std::uint64_t sequential_refills = 0;
  std::uint64_t branch_misses = 0;

  [[nodiscard]] std::uint64_t refills() const noexcept {
    return sequential_refills + branch_misses;
  }
};

class L0ICache {
 public:
  /// `num_lines` lines of `words_per_line` 32-bit instructions each.
  /// Defaults give the paper's 64-instruction capacity.
  explicit L0ICache(unsigned num_lines = 8, unsigned words_per_line = 8,
                    unsigned branch_miss_penalty = 2);

  /// Fetch the instruction at `pc`. Returns the stall penalty in cycles
  /// (0 on hit or prefetched sequential refill).
  unsigned fetch(std::uint32_t pc) {
    // Same line as the previous fetch: a hit. That line is resident because
    // only lookup() evicts, and it leaves last_line_ at the line it just
    // found or installed. flush() empties the span so nothing matches.
    if (pc - last_base_ < last_span_) {
      ++stats_.hits;
      return 0;
    }
    return lookup(pc);
  }

  /// Total capacity in instructions.
  [[nodiscard]] unsigned capacity_instrs() const noexcept {
    return num_lines_ * words_per_line_;
  }

  [[nodiscard]] const L0Stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = L0Stats{}; }
  void flush();

 private:
  [[nodiscard]] std::uint32_t line_of(std::uint32_t pc) const noexcept {
    return pc / (4 * words_per_line_);
  }
  [[nodiscard]] bool present(std::uint32_t line) const noexcept;
  void install(std::uint32_t line);
  unsigned lookup(std::uint32_t pc);

  unsigned num_lines_;
  unsigned words_per_line_;
  unsigned branch_miss_penalty_;
  std::vector<std::uint32_t> lines_;  // FIFO of resident line ids
  unsigned fifo_head_ = 0;
  std::uint32_t last_line_ = UINT32_MAX;
  // Byte range [last_base_, last_base_ + last_span_) of last_line_; the span
  // is 0 until the first lookup and after flush().
  std::uint32_t last_base_ = 0;
  std::uint32_t last_span_ = 0;
  L0Stats stats_;
};

}  // namespace copift::mem
