#include "mem/dma.hpp"

#include <algorithm>

#include "common/layout.hpp"

namespace copift::mem {

namespace {

bool transfer_touches_dram(std::uint32_t src, std::uint32_t dst, std::uint32_t bytes) {
  const std::uint32_t last = bytes == 0 ? 0 : bytes - 1;
  return in_dram(src) || in_dram(src + last) || in_dram(dst) || in_dram(dst + last);
}

}  // namespace

std::uint32_t DmaEngine::start(std::uint32_t bytes) {
  Transfer t{src_, dst_, bytes};
  if (dram_ != nullptr && transfer_touches_dram(src_, dst_, bytes)) {
    t.touches_dram = true;
    ++dram_pending_;
  }
  queue_.push_back(t);
  return next_id_++;
}

void DmaEngine::open_burst(Transfer& t) {
  // One row touch per DRAM endpoint; concurrent hits overlap, so the burst
  // pays the slower of the two.
  unsigned latency = 0;
  if (in_dram(t.src + t.progress)) {
    latency = std::max(latency, dram_->touch_row(t.src + t.progress));
  }
  if (in_dram(t.dst + t.progress)) {
    latency = std::max(latency, dram_->touch_row(t.dst + t.progress));
  }
  t.latency_left = latency;
  t.burst_left = std::min<std::uint32_t>(burst_bytes_, t.bytes - t.progress);
  t.burst_open = true;
}

void DmaEngine::tick() {
  if (queue_.empty()) return;
  ++busy_cycles_;
  Transfer& t = queue_.front();
  if (t.touches_dram) {
    if (!t.burst_open) open_burst(t);
    if (t.latency_left > 0) {
      --t.latency_left;  // row hit/miss wait: busy, no bytes move
      return;
    }
    const unsigned bw = std::min(bytes_per_cycle_, dram_->timing().bytes_per_cycle);
    const std::uint32_t chunk = std::min<std::uint32_t>(bw, t.burst_left);
    memory_->copy(t.dst + t.progress, t.src + t.progress, chunk);
    t.progress += chunk;
    t.burst_left -= chunk;
    bytes_moved_ += chunk;
    if (t.burst_left == 0) t.burst_open = false;
    if (t.progress >= t.bytes) {
      --dram_pending_;
      queue_.pop_front();
    }
    return;
  }
  const std::uint32_t chunk = std::min<std::uint32_t>(bytes_per_cycle_, t.bytes - t.progress);
  memory_->copy(t.dst + t.progress, t.src + t.progress, chunk);
  t.progress += chunk;
  bytes_moved_ += chunk;
  if (t.progress >= t.bytes) queue_.pop_front();
}

}  // namespace copift::mem
