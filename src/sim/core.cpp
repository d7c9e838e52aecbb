#include "sim/core.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "isa/csr.hpp"
#include "isa/eval.hpp"

namespace copift::sim {

using isa::ExecUnit;
using isa::Mnemonic;

namespace {
constexpr std::uint16_t kCsrRegion = 0x7C2;
}

IntCore::IntCore(const SimParams& params, const DecodedProgram& decoded,
                 mem::AddressSpace& memory, FpSubsystem& fpss, ssr::SsrUnit& ssr,
                 mem::L0ICache& icache, mem::DmaEngine& dma, ActivityCounters& counters,
                 std::vector<RegionEvent>& regions, Tracer& tracer, unsigned hart_id,
                 unsigned num_harts, HwBarrier& barrier)
    : params_(params),
      decoded_(&decoded),
      memory_(&memory),
      fpss_(&fpss),
      ssr_(&ssr),
      icache_(&icache),
      dma_(&dma),
      counters_(&counters),
      regions_(&regions),
      tracer_(&tracer),
      barrier_(&barrier),
      hart_id_(hart_id),
      num_harts_(num_harts),
      pc_(decoded.program().entry) {
  regs_[2] = kStackTop - hart_id * kHartStackBytes;  // sp
  // Size the write-port ring to cover the farthest-future booking any
  // instruction can make (+2 slack for the post-grant commit cycle).
  std::uint64_t horizon = 2;
  for (const std::uint64_t lat : {params.div_latency, params.mul_latency,
                                  params.load_use_latency, params.fp_load_latency}) {
    horizon = std::max(horizon, static_cast<std::uint64_t>(lat));
  }
  std::uint64_t size = 1;
  while (size < horizon + 2) size <<= 1;
  wb_ring_.assign(size, ~std::uint64_t{0});
  wb_ring_mask_ = size - 1;
}

void IntCore::write_rd(unsigned rd, std::uint32_t value, std::uint64_t ready_at) {
  if (rd == 0) return;
  regs_[rd] = value;
  ready_[rd] = ready_at;
}

void IntCore::retire_and_advance(std::uint32_t next_pc, std::uint64_t now) {
  ++counters_->int_retired;
  tracer_->record(now, pc_, *op_->instr, TraceUnit::kIntCore);
  pc_ = next_pc;
  fetch_done_ = false;
}

bool IntCore::execute_csr(const MicroOp& op, std::uint64_t now) {
  const auto csr = static_cast<std::uint16_t>(op.imm);
  const bool imm_form = op.mnemonic == Mnemonic::kCsrrwi ||
                        op.mnemonic == Mnemonic::kCsrrsi ||
                        op.mnemonic == Mnemonic::kCsrrci;
  const std::uint32_t src = imm_form ? op.rs1 : regs_[op.rs1];
  const bool is_write = op.mnemonic == Mnemonic::kCsrrw || op.mnemonic == Mnemonic::kCsrrwi;
  const bool is_set = op.mnemonic == Mnemonic::kCsrrs || op.mnemonic == Mnemonic::kCsrrsi;
  const bool need_rd = op.rd != 0;
  if (need_rd && !wb_free(now + 1)) {
    account(now, StallCause::kIntWbPort);
    return false;
  }
  std::uint32_t old = 0;
  switch (csr) {
    case isa::kCsrMcycle:
      old = static_cast<std::uint32_t>(now);
      break;
    case isa::kCsrMinstret:
      old = static_cast<std::uint32_t>(counters_->retired());
      break;
    case isa::kCsrSsr: {
      old = ssr_->enabled() ? 1 : 0;
      std::uint32_t next = is_write ? src : is_set ? (old | src) : (old & ~src);
      next &= 1;
      if (old != 0 && next == 0 && !(ssr_->all_idle() && fpss_->idle())) {
        // Disabling waits for streams and in-flight FP work to drain.
        account(now, StallCause::kIntBarrier);
        return false;
      }
      ssr_->set_enabled(next != 0);
      break;
    }
    case isa::kCsrFpss:
      if (need_rd && !fpss_->idle()) {
        account(now, StallCause::kIntBarrier);
        return false;
      }
      old = 0;
      break;
    case isa::kCsrMhartid:
      old = hart_id_;  // read-only; writes are ignored
      break;
    case isa::kCsrBarrier:
      // Any access synchronizes: the hart holds its issue slot until every
      // hart in the cluster has reached the barrier.
      if (!barrier_->try_pass(hart_id_)) {
        account(now, StallCause::kIntHwBarrier);
        return false;
      }
      ++counters_->barriers;
      old = num_harts_;
      break;
    case kCsrRegion:
      if (is_write || src != 0) {
        counters_->cycles = now;
        regions_->push_back(RegionEvent{src, *counters_});
      }
      old = static_cast<std::uint32_t>(regions_->size());
      break;
    default: {
      old = scratch_csrs_[csr];
      const std::uint32_t next = is_write ? src : is_set ? (old | src) : (old & ~src);
      if (is_write || src != 0) scratch_csrs_[csr] = next;
      break;
    }
  }
  if (need_rd) {
    write_rd(op.rd, old, now + 1);
    book_wb(now + 1);
  }
  ++counters_->csr_ops;
  return true;
}

void IntCore::offload_fp(const MicroOp& op, std::uint64_t now) {
  (void)now;
  OffloadEntry entry;
  entry.op = &op;
  entry.epoch = epoch_counter_;
  switch (op.unit) {
    case ExecUnit::kFpLoad:
      entry.kind = OffloadKind::kLoad;
      entry.operand = regs_[op.rs1] + static_cast<std::uint32_t>(op.imm);
      break;
    case ExecUnit::kFpStore:
      entry.kind = OffloadKind::kStore;
      entry.operand = regs_[op.rs1] + static_cast<std::uint32_t>(op.imm);
      break;
    default:
      entry.kind = OffloadKind::kCompute;
      entry.operand = op.rs1_is_int() ? regs_[op.rs1] : 0;
      break;
  }
  if (op.writes_int_rf() && op.rd != 0) {
    ready_[op.rd] = kBusy;  // cleared when the FPSS writeback drains
  }
  fpss_->offload(entry);
}

std::optional<mem::TcdmRequest> IntCore::prepare(std::uint64_t now) {
  mem_action_ = MemAction::kNone;

  // Drain at most one FPSS integer writeback through the shared write port
  // (even after ecall, so in-flight FP results land before the run ends).
  if (fpss_->has_int_writeback() && wb_free(now)) {
    const IntWriteback wb = fpss_->take_int_writeback();
    book_wb(now);
    if (wb.rd != 0) {
      regs_[wb.rd] = wb.value;
      ready_[wb.rd] = now + 1;
    }
  }
  if (halted_) {
    account(now, StallCause::kIntHalted);
    return std::nullopt;
  }

  if (fetch_stall_ > 0) {
    --fetch_stall_;
    account(now, StallCause::kIntFrontend);
    return std::nullopt;
  }
  if (branch_stall_ > 0) {
    --branch_stall_;
    account(now, StallCause::kIntBranch);
    return std::nullopt;
  }
  if (!fetch_done_) {
    op_ = &decoded_->op(decoded_->index_of(pc_));
    const unsigned penalty = icache_->fetch(pc_);
    fetch_done_ = true;
    counters_->l0_hits = icache_->stats().hits;
    counters_->l0_refills = icache_->stats().refills();
    if (penalty > 0) {
      fetch_stall_ = penalty - 1;  // this cycle is the first stall cycle
      account(now, StallCause::kIntFrontend);
      return std::nullopt;
    }
  }

  const MicroOp& op = *op_;

  // Integer operand readiness (sources and, for WAW ordering, destination).
  // Scoreboard indices are pre-resolved to 0 for non-integer operands, and
  // ready_[0] is never in the future (x0 is never marked busy).
  if (ready_[op.sb_rs1] > now || ready_[op.sb_rs2] > now || ready_[op.sb_rd] > now) {
    account(now, StallCause::kIntRaw);
    return std::nullopt;
  }

  switch (op.unit) {
    case ExecUnit::kIntAlu:
    case ExecUnit::kMul:
    case ExecUnit::kDiv: {
      unsigned latency = 1;
      if (op.unit == ExecUnit::kMul) latency = params_.mul_latency;
      if (op.unit == ExecUnit::kDiv) {
        if (div_busy_until_ > now) {
          account(now, StallCause::kIntDivBusy);
          return std::nullopt;
        }
        latency = params_.div_latency;
      }
      if (op.rd != 0 && !wb_free(now + latency)) {
        account(now, StallCause::kIntWbPort);
        return std::nullopt;
      }
      write_rd(op.rd, isa::alu_result(op.mnemonic, regs_[op.rs1], regs_[op.rs2], op.imm, pc_),
               now + latency);
      if (op.rd != 0) book_wb(now + latency);
      if (op.unit == ExecUnit::kIntAlu) ++counters_->int_alu;
      if (op.unit == ExecUnit::kMul) ++counters_->int_mul;
      if (op.unit == ExecUnit::kDiv) {
        ++counters_->int_div;
        div_busy_until_ = now + latency;
      }
      retire_and_advance(pc_ + 4, now);
      return std::nullopt;
    }
    case ExecUnit::kLoad: {
      if (op.rd != 0 && !wb_free(now + params_.load_use_latency)) {
        account(now, StallCause::kIntWbPort);
        return std::nullopt;
      }
      mem_addr_ = regs_[op.rs1] + static_cast<std::uint32_t>(op.imm);
      // Program-order interlock: wait for overlapping queued FP stores.
      if (fpss_->store_conflict(mem_addr_, 4)) {
        account(now, StallCause::kIntMemOrder);
        return std::nullopt;
      }
      mem_action_ = MemAction::kLoad;
      return mem::TcdmRequest{mem::TcdmPort::kIntLsu, mem_addr_};
    }
    case ExecUnit::kStore: {
      mem_action_ = MemAction::kStore;
      mem_addr_ = regs_[op.rs1] + static_cast<std::uint32_t>(op.imm);
      return mem::TcdmRequest{mem::TcdmPort::kIntLsu, mem_addr_};
    }
    case ExecUnit::kBranch: {
      const bool taken = isa::branch_taken(op.mnemonic, regs_[op.rs1], regs_[op.rs2]);
      ++counters_->branches;
      if (taken) {
        ++counters_->branches_taken;
        branch_stall_ = params_.branch_taken_penalty;
        retire_and_advance(pc_ + static_cast<std::uint32_t>(op.imm), now);
      } else {
        retire_and_advance(pc_ + 4, now);
      }
      return std::nullopt;
    }
    case ExecUnit::kJump: {
      if (op.rd != 0 && !wb_free(now + 1)) {
        account(now, StallCause::kIntWbPort);
        return std::nullopt;
      }
      std::uint32_t target;
      if (op.mnemonic == Mnemonic::kJal) {
        target = pc_ + static_cast<std::uint32_t>(op.imm);
      } else {
        target = (regs_[op.rs1] + static_cast<std::uint32_t>(op.imm)) & ~1U;
      }
      write_rd(op.rd, pc_ + 4, now + 1);
      if (op.rd != 0) book_wb(now + 1);
      ++counters_->jumps;
      branch_stall_ = params_.branch_taken_penalty;
      retire_and_advance(target, now);
      return std::nullopt;
    }
    case ExecUnit::kCsr:
      if (execute_csr(op, now)) retire_and_advance(pc_ + 4, now);
      return std::nullopt;
    case ExecUnit::kSys:
      if (op.mnemonic == Mnemonic::kEcall) {
        halted_ = true;
        retire_and_advance(pc_ + 4, now);
      } else if (op.mnemonic == Mnemonic::kEbreak) {
        throw SimError("ebreak executed at pc " + std::to_string(pc_));
      } else {  // fence
        retire_and_advance(pc_ + 4, now);
      }
      return std::nullopt;
    case ExecUnit::kFrep: {
      if (fpss_->fifo_full()) {
        account(now, StallCause::kIntOffloadFull);
        return std::nullopt;
      }
      // Operand: the extra repetitions.
      fpss_->offload(OffloadEntry{&op, OffloadKind::kFrepCfg, regs_[op.rs1], epoch_counter_});
      ++epoch_counter_;
      ++counters_->frep_cfg;
      retire_and_advance(pc_ + 4, now);
      return std::nullopt;
    }
    case ExecUnit::kSsrCfg: {
      if (fpss_->fifo_full()) {
        account(now, StallCause::kIntOffloadFull);
        return std::nullopt;
      }
      OffloadEntry entry;
      entry.op = &op;
      entry.epoch = epoch_counter_;
      if (op.mnemonic == Mnemonic::kScfgwi) {
        entry.kind = OffloadKind::kSsrCfgWrite;
        entry.operand = regs_[op.rs1];
      } else {
        entry.kind = OffloadKind::kSsrCfgRead;
        if (op.rd != 0) ready_[op.rd] = kBusy;
      }
      fpss_->offload(entry);
      ++counters_->ssr_cfg;
      retire_and_advance(pc_ + 4, now);
      return std::nullopt;
    }
    case ExecUnit::kDma: {
      if (op.mnemonic == Mnemonic::kDmwait) {
        // The cluster ticks the DMA engine before core prepare, so this
        // observes the post-tick queue: dmwait retires the same cycle the
        // last queued transfer completes.
        if (dma_->pending() > 0) {
          account(now, dma_->dram_pending() > 0 ? StallCause::kIntDmaDram
                                                : StallCause::kIntDmaWait);
          return std::nullopt;
        }
        ++counters_->dma_cmds;
        retire_and_advance(pc_ + 4, now);
        return std::nullopt;
      }
      if (op.rd != 0 && !wb_free(now + 1)) {
        account(now, StallCause::kIntWbPort);
        return std::nullopt;
      }
      switch (op.mnemonic) {
        case Mnemonic::kDmsrc: dma_->set_src(regs_[op.rs1]); break;
        case Mnemonic::kDmdst: dma_->set_dst(regs_[op.rs1]); break;
        case Mnemonic::kDmcpy:
          write_rd(op.rd, dma_->start(regs_[op.rs1]), now + 1);
          if (op.rd != 0) book_wb(now + 1);
          break;
        case Mnemonic::kDmstat:
          write_rd(op.rd, dma_->pending(), now + 1);
          if (op.rd != 0) book_wb(now + 1);
          break;
        default: throw SimError("bad DMA instruction");
      }
      ++counters_->dma_cmds;
      retire_and_advance(pc_ + 4, now);
      return std::nullopt;
    }
    case ExecUnit::kBarrier:
      if (fpss_->quiescent_below(epoch_counter_)) {
        ++counters_->barriers;
        retire_and_advance(pc_ + 4, now);
      } else {
        account(now, StallCause::kIntBarrier);
      }
      return std::nullopt;
    case ExecUnit::kFpu:
    case ExecUnit::kFpLoad:
    case ExecUnit::kFpStore: {
      if (fpss_->fifo_full()) {
        account(now, StallCause::kIntOffloadFull);
        return std::nullopt;
      }
      offload_fp(op, now);
      // Offloaded instructions retire (fp_retired) when the FPSS issues
      // them; the handoff still occupies this cycle's integer issue slot.
      account(now, StallCause::kIntOffload);
      pc_ += 4;
      fetch_done_ = false;
      return std::nullopt;
    }
  }
  return std::nullopt;
}

void IntCore::commit(std::uint64_t now, bool granted) {
  if (mem_action_ == MemAction::kNone) return;
  if (!granted) {
    account(now, StallCause::kIntTcdm);
    mem_action_ = MemAction::kNone;
    return;
  }
  const MicroOp& op = *op_;
  if (mem_action_ == MemAction::kLoad) {
    std::uint32_t v = 0;
    switch (op.mnemonic) {
      case Mnemonic::kLw: v = memory_->load32(mem_addr_); break;
      case Mnemonic::kLh:
        v = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(static_cast<std::int16_t>(memory_->load16(mem_addr_))));
        break;
      case Mnemonic::kLhu: v = memory_->load16(mem_addr_); break;
      case Mnemonic::kLb:
        v = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(static_cast<std::int8_t>(memory_->load8(mem_addr_))));
        break;
      case Mnemonic::kLbu: v = memory_->load8(mem_addr_); break;
      default: throw SimError("bad load");
    }
    write_rd(op.rd, v, now + params_.load_use_latency);
    if (op.rd != 0) book_wb(now + params_.load_use_latency);
    ++counters_->int_load;
    ++counters_->tcdm_reads;
  } else {
    const std::uint32_t v = regs_[op.rs2];
    switch (op.mnemonic) {
      case Mnemonic::kSw: memory_->store32(mem_addr_, v); break;
      case Mnemonic::kSh: memory_->store16(mem_addr_, static_cast<std::uint16_t>(v)); break;
      case Mnemonic::kSb: memory_->store8(mem_addr_, static_cast<std::uint8_t>(v)); break;
      default: throw SimError("bad store");
    }
    ++counters_->int_store;
    ++counters_->tcdm_writes;
  }
  retire_and_advance(pc_ + 4, now);
  mem_action_ = MemAction::kNone;
}

}  // namespace copift::sim
