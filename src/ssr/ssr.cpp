#include "ssr/ssr.hpp"

#include <utility>

#include "common/error.hpp"
#include "isa/reg.hpp"

namespace copift::ssr {

// ---------------------------------------------------------------------------
// AffineGenerator
// ---------------------------------------------------------------------------

void AffineGenerator::configure(std::uint32_t base, unsigned dims,
                                const std::array<std::uint32_t, 4>& bounds,
                                const std::array<std::int32_t, 4>& strides) {
  if (dims < 1 || dims > 4) throw SimError("SSR dims out of range");
  base_ = base;
  dims_ = dims;
  bounds_ = bounds;
  strides_ = strides;
  index_ = {0, 0, 0, 0};
  addr_ = base;
  done_ = false;
}

void AffineGenerator::advance() {
  if (done_) throw SimError("advance on exhausted SSR generator");
  for (unsigned d = 0; d < dims_; ++d) {
    if (index_[d] < bounds_[d]) {
      ++index_[d];
      addr_ += static_cast<std::uint32_t>(strides_[d]);
      return;
    }
    // Wrap this dimension: undo its accumulated offset and carry.
    addr_ -= static_cast<std::uint32_t>(strides_[d]) * index_[d];
    index_[d] = 0;
  }
  done_ = true;
}

std::uint64_t AffineGenerator::total() const noexcept {
  std::uint64_t n = 1;
  for (unsigned d = 0; d < dims_; ++d) n *= bounds_[d] + std::uint64_t{1};
  return n;
}

// ---------------------------------------------------------------------------
// SsrLane
// ---------------------------------------------------------------------------

void SsrLane::arm(bool write, unsigned dims, std::uint32_t base) {
  if (write_ && active_ && !fifo_.empty()) {
    throw SimError("re-arming SSR write lane with undrained data");
  }
  fifo_.clear();
  token_fifo_.clear();
  idx_fifo_.clear();
  ready_ = 0;
  fetched_this_cycle_ = 0;
  has_last_ = false;
  repeat_left_ = 0;
  write_ = write;
  active_ = true;
  data_base_ = base;
  indirect_ = !write && cfg_[kRegIdxCfg] != 0;
  if (indirect_) {
    // Index stream: `kRegIdxCfg` 32-bit indices fetched sequentially.
    const std::uint32_t count = cfg_[kRegIdxCfg];
    idx_gen_.configure(cfg_[kRegIdxBase], 1, {count - 1, 0, 0, 0}, {4, 0, 0, 0});
    cfg_[kRegIdxCfg] = 0;  // one-shot: next arm is affine unless reconfigured
  } else {
    const std::array<std::uint32_t, 4> bounds = {cfg_[kRegBound0], cfg_[kRegBound1],
                                                 cfg_[kRegBound2], cfg_[kRegBound3]};
    const std::array<std::int32_t, 4> strides = {
        static_cast<std::int32_t>(cfg_[kRegStride0]), static_cast<std::int32_t>(cfg_[kRegStride1]),
        static_cast<std::int32_t>(cfg_[kRegStride2]), static_cast<std::int32_t>(cfg_[kRegStride3])};
    gen_.configure(base, dims, bounds, strides);
  }
}

void SsrLane::write_cfg(unsigned reg, std::uint32_t value) {
  if (reg >= cfg_.size()) throw SimError("SSR config register out of range");
  if (reg >= kRegRptr0 && reg <= kRegRptr3) {
    cfg_[reg] = value;
    arm(/*write=*/false, reg - kRegRptr0 + 1, value);
    return;
  }
  if (reg >= kRegWptr0 && reg <= kRegWptr3) {
    cfg_[reg] = value;
    arm(/*write=*/true, reg - kRegWptr0 + 1, value);
    return;
  }
  cfg_[reg] = value;
}

std::uint32_t SsrLane::read_cfg(unsigned reg) const {
  if (reg >= cfg_.size()) throw SimError("SSR config register out of range");
  return cfg_[reg];
}

std::uint64_t SsrLane::pop() {
  if (!can_pop()) throw SimError("pop from empty SSR lane");
  const std::uint64_t value = fifo_.front();
  if (!has_last_) {
    repeat_left_ = cfg_[kRegRepeat];
    has_last_ = true;
  }
  if (repeat_left_ == 0) {
    fifo_.pop_front();
    --ready_;
    has_last_ = false;
  } else {
    --repeat_left_;
  }
  ++elements_moved_;
  return value;
}

void SsrLane::push(std::uint64_t value, std::uint64_t token) {
  if (!can_push()) throw SimError("push to full SSR lane");
  fifo_.push_back(value);
  token_fifo_.push_back(token);
  ++elements_moved_;
}

bool SsrLane::idle() const noexcept {
  if (!active_) return true;
  if (write_) return gen_.done() && fifo_.empty();
  if (indirect_) return idx_gen_.done() && idx_fifo_.empty();
  return gen_.done();
}

bool SsrLane::wants_data_access(std::uint32_t& addr) const {
  if (!active_) return false;
  if (write_) {
    if (fifo_.empty() || gen_.done()) return false;
    addr = gen_.current();
    return true;
  }
  if (fifo_.size() >= fifo_depth_) return false;
  if (indirect_) {
    if (idx_fifo_.empty()) return false;
    addr = data_base_ + (idx_fifo_.front() << cfg_[kRegIdxShift]);
    return true;
  }
  if (gen_.done()) return false;
  addr = gen_.current();
  return true;
}

bool SsrLane::wants_index_access(std::uint32_t& addr) const {
  if (!active_ || write_ || !indirect_) return false;
  if (idx_gen_.done() || idx_fifo_.size() >= fifo_depth_) return false;
  addr = idx_gen_.current();
  return true;
}

void SsrLane::data_granted(mem::AddressSpace& memory) {
  std::uint32_t addr = 0;
  if (!wants_data_access(addr)) throw SimError("unexpected SSR data grant");
  if (write_) {
    memory.store64(addr, fifo_.front());
    fifo_.pop_front();
    if (!token_fifo_.empty()) {
      if (token_fifo_.front() != kNoToken) drained_tokens_.push_back(token_fifo_.front());
      token_fifo_.pop_front();
    }
    gen_.advance();
  } else {
    fifo_.push_back(memory.load64(addr));
    ++fetched_this_cycle_;
    if (indirect_) {
      idx_fifo_.pop_front();
    } else {
      gen_.advance();
    }
  }
}

void SsrLane::index_granted(mem::AddressSpace& memory) {
  std::uint32_t addr = 0;
  if (!wants_index_access(addr)) throw SimError("unexpected SSR index grant");
  idx_fifo_.push_back(memory.load32(addr));
  idx_gen_.advance();
}

void SsrLane::commit_cycle() {
  ready_ += fetched_this_cycle_;
  fetched_this_cycle_ = 0;
}

// ---------------------------------------------------------------------------
// SsrUnit
// ---------------------------------------------------------------------------

void SsrUnit::write_cfg(unsigned imm, std::uint32_t value) {
  const unsigned lane = imm / 32;
  if (lane >= lanes_.size()) throw SimError("SSR lane out of range in scfgwi");
  lanes_[lane].write_cfg(imm % 32, value);
  refresh_masks();
}

void SsrUnit::refresh_masks() noexcept {
  read_mask_ = 0;
  write_mask_ = 0;
  for (unsigned i = 0; i < lanes_.size(); ++i) {
    armed_ = armed_ || lanes_[i].armed();
    if (!enabled_) continue;
    if (lanes_[i].is_read_stream()) read_mask_ |= 1U << i;
    if (lanes_[i].is_write_stream()) write_mask_ |= 1U << i;
  }
}

std::uint32_t SsrUnit::read_cfg(unsigned imm) const {
  const unsigned lane = imm / 32;
  if (lane >= lanes_.size()) throw SimError("SSR lane out of range in scfgri");
  return lanes_[lane].read_cfg(imm % 32);
}

bool SsrUnit::all_idle() const noexcept {
  for (const auto& lane : lanes_) {
    if (!lane.idle()) return false;
  }
  return true;
}

unsigned SsrUnit::collect_armed(unsigned hart, mem::TcdmRequest* requests,
                                RequestTag* tags) const {
  unsigned n = 0;
  bool index_port_used = false;
  for (unsigned i = 0; i < lanes_.size(); ++i) {
    std::uint32_t addr = 0;
    // The ISSR index port is shared: one index fetch per cycle.
    if (!index_port_used && lanes_[i].wants_index_access(addr)) {
      requests[n] = {mem::TcdmPort::kIssrIndex, addr, hart};
      tags[n++] = {i, /*index=*/true};
      index_port_used = true;
    }
    if (lanes_[i].wants_data_access(addr)) {
      const auto port = static_cast<mem::TcdmPort>(static_cast<unsigned>(mem::TcdmPort::kSsr0) + i);
      requests[n] = {port, addr, hart};
      tags[n++] = {i, /*index=*/false};
    }
  }
  return n;
}

void SsrUnit::apply_grant(const RequestTag& tag) {
  if (tag.index) {
    lanes_[tag.lane].index_granted(*memory_);
  } else {
    lanes_[tag.lane].data_granted(*memory_);
  }
}

}  // namespace copift::ssr
