// Floating-point subsystem (FPSS): offload FIFO, FREP sequencer, FPU timing,
// SSR binding and the COPIFT epoch/barrier bookkeeping.
//
// The integer core pushes every FP-ish instruction (FP compute, FP
// loads/stores, FREP and SSR configuration) into the offload FIFO together
// with any integer operand captured at offload time. The FPSS processes one
// entry per cycle in order; while an FREP loop is replaying, the FIFO is not
// popped and the integer core runs ahead — that concurrency is the paper's
// pseudo dual-issue.
//
// Epochs: the integer core tags each offloaded entry with the number of
// `frep.o` instructions offloaded so far. `copift.barrier` then waits until
// every instruction with an epoch lower than the current one has completed
// (including SSR write-stream drain), which is exactly the inter-iteration
// synchronization the software-pipelined schedule of paper Fig. 1j needs.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/ring.hpp"
#include "frep/frep.hpp"
#include "fpu/fp_rf.hpp"
#include "fpu/fpu.hpp"
#include "mem/address_space.hpp"
#include "mem/tcdm.hpp"
#include "sim/counters.hpp"
#include "sim/decode.hpp"
#include "sim/params.hpp"
#include "sim/trace.hpp"
#include "ssr/ssr.hpp"

namespace copift::sim {

enum class OffloadKind : std::uint8_t {
  kCompute,      // FP arithmetic / compare / convert / move (incl. Xcopift)
  kLoad,         // flw/fld, address precomputed
  kStore,        // fsw/fsd, address precomputed
  kFrepCfg,      // frep.o / frep.i
  kSsrCfgWrite,  // scfgwi
  kSsrCfgRead,   // scfgri
};

struct OffloadEntry {
  // The instruction's decoded micro-op: its fields and FP issue descriptor
  // were resolved once per program, so stall cycles that retry the issue
  // re-derive nothing.
  const MicroOp* op = nullptr;
  OffloadKind kind = OffloadKind::kCompute;
  std::uint32_t operand = 0;  // ld/st address, int source value, scfg value, frep reps
  std::uint64_t epoch = 0;
};

/// A completed FP instruction that writes the integer RF (flt.d, fclass,
/// scfgri, ...). The integer core drains at most one per cycle through its
/// register-file write port.
struct IntWriteback {
  std::uint8_t rd = 0;
  std::uint32_t value = 0;
};

class FpSubsystem {
 public:
  FpSubsystem(const SimParams& params, mem::AddressSpace& memory, ssr::SsrUnit& ssr,
              ActivityCounters& counters, Tracer& tracer);

  // ---- integer-core-facing interface ----
  [[nodiscard]] bool fifo_full() const noexcept { return fifo_.size() >= params_.offload_fifo_depth; }
  void offload(OffloadEntry entry);
  [[nodiscard]] bool has_int_writeback() const noexcept { return !int_wb_queue_.empty(); }
  /// Pop the oldest integer writeback; only valid if has_int_writeback().
  [[nodiscard]] IntWriteback take_int_writeback() {
    const IntWriteback wb = int_wb_queue_.front();
    int_wb_queue_.pop_front();
    return wb;
  }
  /// All offloaded work retired (FIFO drained, sequencer idle, nothing in flight).
  [[nodiscard]] bool idle() const noexcept;
  /// copift.barrier condition: nothing with epoch < `epoch` still in flight.
  [[nodiscard]] bool quiescent_below(std::uint64_t epoch) const noexcept;
  /// Memory-ordering interlock: true if a queued FP store may overlap
  /// [addr, addr+size). The integer core holds back loads until the store
  /// drains (Snitch guarantees int-load-after-FP-store program order).
  [[nodiscard]] bool store_conflict(std::uint32_t addr, std::uint32_t size) const noexcept;

  // ---- cluster-facing cycle interface ----
  /// Process completions and drained SSR write tokens for cycle `now`.
  void begin_cycle(std::uint64_t now);
  /// Decide this cycle's action; returns a TCDM request if one is needed
  /// (FP load/store). Non-memory actions execute immediately.
  std::optional<mem::TcdmRequest> prepare(std::uint64_t now);
  /// Finalize a memory action after arbitration.
  void commit(std::uint64_t now, bool granted);

  [[nodiscard]] fpu::FpRegFile& rf() noexcept { return rf_; }
  [[nodiscard]] const fpu::FpRegFile& rf() const noexcept { return rf_; }
  [[nodiscard]] const frep::FrepSequencer& sequencer() const noexcept { return sequencer_; }

 private:
  struct Completion {
    std::uint64_t epoch = 0;
    bool has_int_wb = false;
    IntWriteback int_wb;
  };

  // Attribute a non-issuing cycle: bumps the cause's ActivityCounters slot
  // and, when tracing, records the StallEvent (counters and trace stay in
  // lockstep). FREP replay slots are attributed to the FPSS track too.
  void account(std::uint64_t now, StallCause cause) {
    if (cause_info(cause).unit != TraceUnit::kFpss) {
      throw SimError("integer-core stall cause attributed to the FPSS");
    }
    ++counters_->slot(cause);
    tracer_->record_stall(now, TraceUnit::kFpss, cause);
  }
  void add_outstanding(std::uint64_t epoch, std::uint64_t n = 1);
  void complete_epoch(std::uint64_t epoch);
  void schedule_completion(std::uint64_t now, unsigned latency, Completion c);

  /// Attempt to issue `op` with its captured integer operand (from the FIFO
  /// head or an FREP replay). Returns true on issue.
  bool try_issue_compute(std::uint64_t now, const MicroOp& op, std::uint32_t operand,
                         std::uint64_t epoch, bool from_replay);
  void process_cfg(std::uint64_t now, const OffloadEntry& entry);

  const SimParams params_;
  mem::AddressSpace* memory_;
  ssr::SsrUnit* ssr_;
  ActivityCounters* counters_;
  Tracer* tracer_;

  RingFifo<OffloadEntry> fifo_;
  frep::FrepSequencer sequencer_;
  fpu::FpRegFile rf_;
  std::array<std::uint64_t, 32> fp_ready_{};  // cycle the register becomes usable

  // The issue descriptor's per-class facts, indexed by isa::FpuClass and
  // resolved against SimParams once: the FPU latency and the counter an
  // issue bumps (none for FpuClass::kNone).
  static constexpr unsigned kNumFpuClasses = static_cast<unsigned>(isa::FpuClass::kClass) + 1;
  std::array<unsigned, kNumFpuClasses> latency_{};
  std::array<std::uint64_t*, kNumFpuClasses> op_counter_{};

  // Timing state. All containers here sit on the per-cycle hot path, so they
  // are allocation-free in steady state. The writeback port is a
  // cycle-stamped ring: slot `c & mask` holds `c` iff cycle c is booked; the
  // ring spans more than the largest latency, so live bookings cannot alias.
  // Completions sit on a wheel with the same span: slot `c & mask` lists
  // those due at cycle c in schedule order, which fixes the int-writeback
  // drain order. A latency-0 completion is due in the cycle that scheduled
  // it, after that cycle's slot drained, so it waits in same_cycle_ and
  // retires first in the next cycle. The epoch ledger is a small
  // epoch-sorted vector (a handful of epochs are ever outstanding at once).
  std::uint64_t fpu_busy_until_ = 0;  // div/sqrt block the whole unit
  std::vector<std::uint64_t> wb_ring_;
  std::uint64_t wb_mask_ = 0;
  std::vector<std::vector<Completion>> wheel_;
  std::vector<Completion> same_cycle_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> outstanding_by_epoch_;
  std::uint64_t total_outstanding_ = 0;
  RingFifo<IntWriteback> int_wb_queue_;

  [[nodiscard]] bool wb_port_booked(std::uint64_t cycle) const noexcept {
    return wb_ring_[cycle & wb_mask_] == cycle;
  }
  void book_wb_port(std::uint64_t cycle) noexcept { wb_ring_[cycle & wb_mask_] = cycle; }

  // Pending memory action decided in prepare().
  enum class MemAction { kNone, kLoad, kStore };
  MemAction mem_action_ = MemAction::kNone;
};

}  // namespace copift::sim
