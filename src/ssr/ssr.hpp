// Stream Semantic Registers (SSR) and Indirection SSR (ISSR) model.
//
// Snitch remaps FP registers ft0..ft2 to three stream lanes when the SSR CSR
// is enabled: reads of ft_n pop elements streamed from memory by a 4-D affine
// address generator, writes push elements that a data mover drains to memory
// (Schuiki et al., "Stream Semantic Registers"). The ISSR extension
// (Scheffler et al.) adds indirect streams: a second port fetches a stream of
// 32-bit indices and the lane reads `data_base + (index << shift)`.
//
// Configuration is memory-mapped through `scfgwi`/`scfgri` with the word
// address layout in SsrCfgReg below; writing RPTR/WPTR arms the lane as a
// read/write stream of the given dimensionality, mirroring the real driver.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/ring.hpp"
#include "isa/reg.hpp"
#include "mem/address_space.hpp"
#include "mem/tcdm.hpp"

namespace copift::ssr {

/// Config word offsets within a lane's 32-word window.
/// scfgwi imm = lane * 32 + register.
enum SsrCfgReg : unsigned {
  kRegRepeat = 0,     // each element delivered (value+1) times
  kRegBound0 = 1,     // iterations-1 for dim 0..3
  kRegBound1 = 2,
  kRegBound2 = 3,
  kRegBound3 = 4,
  kRegStride0 = 5,    // byte strides for dim 0..3
  kRegStride1 = 6,
  kRegStride2 = 7,
  kRegStride3 = 8,
  kRegIdxBase = 9,    // ISSR: base address of the 32-bit index array
  kRegIdxShift = 10,  // ISSR: element shift (3 => index * 8 bytes)
  kRegIdxCfg = 11,    // ISSR: number of indices - 1; arms indirection
  kRegRptr0 = 24,     // write base & arm READ stream with dims = 1..4
  kRegRptr1 = 25,
  kRegRptr2 = 26,
  kRegRptr3 = 27,
  kRegWptr0 = 28,     // write base & arm WRITE stream with dims = 1..4
  kRegWptr1 = 29,
  kRegWptr2 = 30,
  kRegWptr3 = 31,
};

/// 4-D affine address generator: enumerates
///   base + i0*s0 + i1*s1 + i2*s2 + i3*s3
/// with i_d in [0, bound_d], dim 0 innermost.
class AffineGenerator {
 public:
  void configure(std::uint32_t base, unsigned dims,
                 const std::array<std::uint32_t, 4>& bounds,
                 const std::array<std::int32_t, 4>& strides);

  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] std::uint32_t current() const noexcept { return addr_; }
  void advance();

  /// Total number of elements the configured stream will produce.
  [[nodiscard]] std::uint64_t total() const noexcept;

 private:
  std::uint32_t base_ = 0;
  unsigned dims_ = 1;
  std::array<std::uint32_t, 4> bounds_{};   // iterations-1
  std::array<std::int32_t, 4> strides_{};
  std::array<std::uint32_t, 4> index_{};
  std::uint32_t addr_ = 0;
  bool done_ = true;
};

/// One stream lane (data FIFO + generator + optional indirection).
class SsrLane {
 public:
  SsrLane() = default;
  explicit SsrLane(unsigned fifo_depth) : fifo_depth_(fifo_depth) {}

  void write_cfg(unsigned reg, std::uint32_t value);
  [[nodiscard]] std::uint32_t read_cfg(unsigned reg) const;

  // --- processor-side interface ---
  [[nodiscard]] bool is_read_stream() const noexcept { return active_ && !write_; }
  [[nodiscard]] bool is_write_stream() const noexcept { return active_ && write_; }
  [[nodiscard]] bool can_pop() const noexcept { return ready_ > 0; }
  /// Number of elements consumable this cycle (instructions reading the same
  /// stream register multiple times pop once per operand occurrence).
  [[nodiscard]] unsigned ready_count() const noexcept { return ready_; }
  std::uint64_t pop();
  [[nodiscard]] bool can_push() const noexcept {
    return fifo_.size() < fifo_depth_;
  }
  /// Push a value into a write stream. `token` (if not kNoToken) is handed
  /// back via take_drained_tokens() once the value has landed in memory —
  /// the FPSS uses this to defer instruction completion until the store is
  /// architecturally visible (required by copift.barrier).
  static constexpr std::uint64_t kNoToken = ~std::uint64_t{0};
  void push(std::uint64_t value, std::uint64_t token = kNoToken);
  /// Tokens whose values have landed in memory since the consumer last
  /// called clear_drained_tokens(). Split into check/read/clear (instead of
  /// a take-by-value call) so the common nothing-drained cycle touches no
  /// heap: the backing vector is persistent and merely cleared.
  [[nodiscard]] bool has_drained_tokens() const noexcept { return !drained_tokens_.empty(); }
  [[nodiscard]] const std::vector<std::uint64_t>& drained_tokens() const noexcept {
    return drained_tokens_;
  }
  void clear_drained_tokens() noexcept { drained_tokens_.clear(); }

  /// Lane has no pending work (drained writes / exhausted reads).
  [[nodiscard]] bool idle() const noexcept;

  // --- memory-side interface (driven by the cluster each cycle) ---
  /// Does this lane want a TCDM data access this cycle? If so `addr` is set.
  [[nodiscard]] bool wants_data_access(std::uint32_t& addr) const;
  /// Does this lane want an ISSR index fetch this cycle?
  [[nodiscard]] bool wants_index_access(std::uint32_t& addr) const;
  /// Called when the data access was granted.
  void data_granted(mem::AddressSpace& memory);
  /// Called when the index access was granted.
  void index_granted(mem::AddressSpace& memory);
  /// End-of-cycle bookkeeping: freshly fetched data becomes consumable.
  void commit_cycle();

  [[nodiscard]] std::uint64_t stalled_pops() const noexcept { return stalled_pops_; }
  [[nodiscard]] std::uint64_t elements_moved() const noexcept { return elements_moved_; }

 private:
  void arm(bool write, unsigned dims, std::uint32_t base);

  unsigned fifo_depth_ = 4;
  std::array<std::uint32_t, 32> cfg_{};
  AffineGenerator gen_;
  // For reads: FIFO holds fetched data; `ready_` counts elements fetched in
  // previous cycles (data fetched this cycle is consumable next cycle).
  // For writes: FIFO holds data pending drain to memory.
  RingFifo<std::uint64_t> fifo_;
  unsigned ready_ = 0;
  unsigned fetched_this_cycle_ = 0;
  bool active_ = false;
  bool write_ = false;
  std::uint32_t data_base_ = 0;
  // Repetition: deliver each element (repeat+1) times.
  std::uint32_t repeat_left_ = 0;
  std::uint64_t last_value_ = 0;
  bool has_last_ = false;
  // Indirection (ISSR).
  RingFifo<std::uint64_t> token_fifo_;
  std::vector<std::uint64_t> drained_tokens_;
  bool indirect_ = false;
  std::uint32_t idx_remaining_ = 0;
  AffineGenerator idx_gen_;
  RingFifo<std::uint32_t> idx_fifo_;  // fetched indices pending data fetch
  std::uint64_t stalled_pops_ = 0;
  std::uint64_t elements_moved_ = 0;
};

/// The three lanes plus config decode, as seen by the core.
class SsrUnit {
 public:
  explicit SsrUnit(mem::AddressSpace& memory) : memory_(&memory) {}

  void write_cfg(unsigned imm, std::uint32_t value);
  [[nodiscard]] std::uint32_t read_cfg(unsigned imm) const;

  [[nodiscard]] SsrLane& lane(unsigned i) { return lanes_[i]; }
  [[nodiscard]] const SsrLane& lane(unsigned i) const { return lanes_[i]; }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  [[nodiscard]] bool all_idle() const noexcept;

  /// Gather this cycle's TCDM requests (appends to `requests`, recording
  /// which lane/kind each request belongs to in `tags`).
  struct RequestTag {
    unsigned lane;
    bool index;  // ISSR index fetch rather than data access
  };
  void collect_requests(std::vector<mem::TcdmRequest>& requests,
                        std::vector<RequestTag>& tags) const;
  void apply_grant(const RequestTag& tag);
  void commit_cycle();

 private:
  mem::AddressSpace* memory_;
  std::array<SsrLane, isa::kNumSsrLanes> lanes_{};
  bool enabled_ = false;
};

}  // namespace copift::ssr
