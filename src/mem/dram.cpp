#include "mem/dram.hpp"

namespace copift::mem {

DramModel::DramModel(const DramTiming& timing)
    : timing_(timing), open_row_(timing.channels, kNoRow) {}

unsigned DramModel::touch_row(std::uint32_t addr) {
  const unsigned c = channel_of(addr);
  const std::uint64_t row = row_of(addr);
  const bool hit = open_row_[c] == row;
  open_row_[c] = row;
  if (hit) {
    ++row_hits_;
    return timing_.t_row_hit;
  }
  ++row_misses_;
  return timing_.t_row_miss;
}

}  // namespace copift::mem
