// Snitch integer core: single-issue, in-order, with a scoreboarded register
// file, a single RF write port (the structural hazard the paper blames for
// the LCG stalls), an L0 loop cache, and the FP offload interface.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "mem/address_space.hpp"
#include "mem/dma.hpp"
#include "mem/l0_icache.hpp"
#include "mem/tcdm.hpp"
#include "rvasm/program.hpp"
#include "sim/counters.hpp"
#include "sim/decode.hpp"
#include "sim/fpss.hpp"
#include "sim/params.hpp"
#include "sim/topology.hpp"
#include "sim/trace.hpp"

namespace copift::sim {

class IntCore {
 public:
  /// `hart_id`/`num_harts` feed the `mhartid` CSR and the per-hart stack
  /// carve-out; `barrier` is the cluster-shared hardware barrier behind the
  /// `barrier` CSR. Hart 0 of a 1-hart cluster behaves exactly like the
  /// historical single-core model.
  IntCore(const SimParams& params, const DecodedProgram& decoded, mem::AddressSpace& memory,
          FpSubsystem& fpss, ssr::SsrUnit& ssr, mem::L0ICache& icache, mem::DmaEngine& dma,
          ActivityCounters& counters, std::vector<RegionEvent>& regions,
          Tracer& tracer, unsigned hart_id, unsigned num_harts, HwBarrier& barrier);

  [[nodiscard]] bool halted() const noexcept { return halted_; }
  [[nodiscard]] std::uint32_t exit_code() const noexcept { return regs_[10]; }  // a0

  /// Phase 1: decide this cycle's action; may return a TCDM request.
  std::optional<mem::TcdmRequest> prepare(std::uint64_t now);
  /// Phase 2: finalize a memory action after arbitration.
  void commit(std::uint64_t now, bool granted);

  [[nodiscard]] std::uint32_t reg(unsigned index) const noexcept { return regs_[index]; }
  void set_reg(unsigned index, std::uint32_t value) noexcept {
    if (index != 0) regs_[index] = value;
  }
  [[nodiscard]] std::uint32_t pc() const noexcept { return pc_; }
  [[nodiscard]] unsigned hart_id() const noexcept { return hart_id_; }

  /// Debugger write to the architectural PC (RSP `P` on regnum 32): repoints
  /// the fetch stage between cycles. The cached micro-op and any in-progress
  /// fetch/branch shadow are discarded, exactly as a taken redirect would.
  /// Only call while the cluster is stopped (never between prepare/commit).
  void debug_set_pc(std::uint32_t pc) noexcept {
    pc_ = pc;
    op_ = nullptr;
    fetch_done_ = false;
    fetch_stall_ = 0;
    branch_stall_ = 0;
  }

 private:
  static constexpr std::uint64_t kBusy = ~std::uint64_t{0};  // written by FPSS later

  void write_rd(unsigned rd, std::uint32_t value, std::uint64_t ready_at);
  // Attribute a non-retiring issue-slot cycle: bumps the matching
  // ActivityCounters field and, when tracing, records the StallEvent — the
  // single place that keeps counters and trace in lockstep.
  void account(std::uint64_t now, StallCause cause);
  // Single RF write-port bookings live in a fixed ring indexed by cycle:
  // a slot blocks exactly the cycle stored in it, so entries for past cycles
  // go stale by construction and are overwritten in place — no per-cycle
  // garbage collection. This replaces a std::map that needed a GC sweep in
  // every prepare() and paid a node allocation plus log-time lookups per
  // booking on the issue hot path.
  [[nodiscard]] bool wb_free(std::uint64_t cycle) const {
    return wb_ring_[cycle & wb_ring_mask_] != cycle;
  }
  void book_wb(std::uint64_t cycle) { wb_ring_[cycle & wb_ring_mask_] = cycle; }
  void retire_and_advance(std::uint32_t next_pc, std::uint64_t now);
  void execute_alu(const MicroOp& op, std::uint64_t now);
  bool execute_csr(const MicroOp& op, std::uint64_t now);  // false => stall
  void offload_fp(const MicroOp& op, std::uint64_t now);

  const SimParams params_;
  const DecodedProgram* decoded_;
  mem::AddressSpace* memory_;
  FpSubsystem* fpss_;
  ssr::SsrUnit* ssr_;
  mem::L0ICache* icache_;
  mem::DmaEngine* dma_;
  ActivityCounters* counters_;
  std::vector<RegionEvent>* regions_;
  Tracer* tracer_;
  HwBarrier* barrier_;
  unsigned hart_id_ = 0;
  unsigned num_harts_ = 1;

  std::array<std::uint32_t, 32> regs_{};
  std::array<std::uint64_t, 32> ready_{};  // cycle each register becomes usable
  // Ring of booked write-port cycles; sized in the constructor to cover the
  // largest booking horizon (the iterative divider latency).
  std::vector<std::uint64_t> wb_ring_;
  std::uint64_t wb_ring_mask_ = 0;
  std::uint32_t pc_;
  // Micro-op of the instruction at pc_, resolved once per fetch (stall
  // cycles re-enter prepare() without paying the index math again).
  const MicroOp* op_ = nullptr;
  bool halted_ = false;
  unsigned fetch_stall_ = 0;
  unsigned branch_stall_ = 0;
  bool fetch_done_ = false;  // L0 charged for the current pc
  std::uint64_t div_busy_until_ = 0;
  std::uint64_t epoch_counter_ = 0;
  std::map<std::uint16_t, std::uint32_t> scratch_csrs_;

  // Pending memory action decided in prepare().
  enum class MemAction { kNone, kLoad, kStore };
  MemAction mem_action_ = MemAction::kNone;
  std::uint32_t mem_addr_ = 0;
};

}  // namespace copift::sim
