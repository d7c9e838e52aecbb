#include "mem/l0_icache.hpp"

#include <algorithm>

namespace copift::mem {

L0ICache::L0ICache(unsigned num_lines, unsigned words_per_line, unsigned branch_miss_penalty)
    : num_lines_(num_lines),
      words_per_line_(words_per_line),
      branch_miss_penalty_(branch_miss_penalty),
      lines_(num_lines, UINT32_MAX) {}

bool L0ICache::present(std::uint32_t line) const noexcept {
  return std::find(lines_.begin(), lines_.end(), line) != lines_.end();
}

void L0ICache::install(std::uint32_t line) {
  lines_[fifo_head_] = line;
  fifo_head_ = (fifo_head_ + 1) % num_lines_;
}

unsigned L0ICache::lookup(std::uint32_t pc) {
  const std::uint32_t line = line_of(pc);
  last_span_ = 4 * words_per_line_;
  last_base_ = line * last_span_;
  if (present(line)) {
    ++stats_.hits;
    last_line_ = line;
    return 0;
  }
  install(line);
  const bool sequential = last_line_ != UINT32_MAX && line == last_line_ + 1;
  last_line_ = line;
  if (sequential) {
    // The next-line prefetcher already requested this line from L1.
    ++stats_.sequential_refills;
    return 0;
  }
  ++stats_.branch_misses;
  return branch_miss_penalty_;
}

void L0ICache::flush() {
  std::fill(lines_.begin(), lines_.end(), UINT32_MAX);
  fifo_head_ = 0;
  last_line_ = UINT32_MAX;
  last_span_ = 0;
}

}  // namespace copift::mem
