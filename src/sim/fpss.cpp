#include "sim/fpss.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"
#include "isa/reg.hpp"

namespace copift::sim {

using isa::FpuClass;
using isa::Mnemonic;

namespace {
/// Longest issue-to-writeback distance the writeback-port ring must cover.
unsigned max_wb_horizon(const SimParams& params) {
  const fpu::FpuLatencies& f = params.fpu;
  unsigned h = params.fp_load_latency;
  for (unsigned lat : {f.add, f.mul, f.fma, f.div_sqrt, f.cmp, f.cvt, f.move, f.minmax, f.fclass}) {
    h = std::max(h, lat);
  }
  return h;
}
}  // namespace

FpSubsystem::FpSubsystem(const SimParams& params, mem::AddressSpace& memory, ssr::SsrUnit& ssr,
                         ActivityCounters& counters, Tracer& tracer)
    : params_(params),
      memory_(&memory),
      ssr_(&ssr),
      counters_(&counters),
      tracer_(&tracer),
      fifo_(params.offload_fifo_depth),
      sequencer_(params.frep_capacity) {
  std::uint64_t cap = 2;
  while (cap < max_wb_horizon(params) + 1) cap *= 2;
  wb_ring_.assign(cap, ~std::uint64_t{0});
  wb_mask_ = cap - 1;
  wheel_.resize(cap);
  for (auto& slot : wheel_) slot.reserve(4);
  same_cycle_.reserve(4);
  outstanding_by_epoch_.reserve(8);
  for (unsigned cls = 0; cls < kNumFpuClasses; ++cls) {
    latency_[cls] = params.fpu.of(static_cast<FpuClass>(cls));
  }
  static_assert(kNumFpuClasses == 10, "one counter per FpuClass, in enum order");
  op_counter_ = {nullptr,              &counters.fp_add, &counters.fp_mul,  &counters.fp_fma,
                 &counters.fp_divsqrt, &counters.fp_cmp, &counters.fp_cvt,  &counters.fp_move,
                 &counters.fp_minmax,  &counters.fp_class};
}

void FpSubsystem::offload(OffloadEntry entry) {
  if (fifo_full()) throw SimError("offload to full FPSS FIFO");
  add_outstanding(entry.epoch);
  fifo_.push_back(entry);
}

bool FpSubsystem::idle() const noexcept {
  return fifo_.empty() && sequencer_.idle() && total_outstanding_ == 0 && int_wb_queue_.empty();
}

bool FpSubsystem::store_conflict(std::uint32_t addr, std::uint32_t size) const noexcept {
  for (std::size_t i = 0; i < fifo_.size(); ++i) {
    const OffloadEntry& e = fifo_[i];
    if (e.kind != OffloadKind::kStore) continue;
    const std::uint32_t ssize = e.op->mnemonic == Mnemonic::kFsd ? 8 : 4;
    if (e.operand < addr + size && addr < e.operand + ssize) return true;
  }
  return false;
}

bool FpSubsystem::quiescent_below(std::uint64_t epoch) const noexcept {
  return outstanding_by_epoch_.empty() || outstanding_by_epoch_.front().first >= epoch;
}

void FpSubsystem::add_outstanding(std::uint64_t epoch, std::uint64_t n) {
  if (n == 0) return;
  // Epochs only grow, so the slot is almost always the last one.
  auto it = outstanding_by_epoch_.end();
  while (it != outstanding_by_epoch_.begin() && std::prev(it)->first > epoch) --it;
  if (it != outstanding_by_epoch_.begin() && std::prev(it)->first == epoch) {
    std::prev(it)->second += n;
  } else {
    outstanding_by_epoch_.insert(it, {epoch, n});
  }
  total_outstanding_ += n;
}

void FpSubsystem::complete_epoch(std::uint64_t epoch) {
  // Completions target the oldest outstanding epochs, so scan from the front.
  auto it = outstanding_by_epoch_.begin();
  while (it != outstanding_by_epoch_.end() && it->first != epoch) ++it;
  if (it == outstanding_by_epoch_.end() || it->second == 0) {
    throw SimError("epoch completion underflow");
  }
  if (--it->second == 0) outstanding_by_epoch_.erase(it);
  --total_outstanding_;
}

void FpSubsystem::schedule_completion(std::uint64_t now, unsigned latency, Completion c) {
  (latency == 0 ? same_cycle_ : wheel_[(now + latency) & wb_mask_]).push_back(c);
}

void FpSubsystem::begin_cycle(std::uint64_t now) {
  // Retire completions due this cycle in schedule order: last cycle's
  // latency-0 ones first, then this cycle's wheel slot.
  const auto retire = [this](std::vector<Completion>& due) {
    for (const Completion& c : due) {
      if (c.has_int_wb) int_wb_queue_.push_back(c.int_wb);
      complete_epoch(c.epoch);
    }
    due.clear();
  };
  if (!same_cycle_.empty()) retire(same_cycle_);
  retire(wheel_[now & wb_mask_]);
  // SSR write-stream drains complete their producing instructions.
  if (!ssr_->armed()) return;
  for (unsigned lane = 0; lane < isa::kNumSsrLanes; ++lane) {
    ssr::SsrLane& l = ssr_->lane(lane);
    if (!l.has_drained_tokens()) continue;
    for (std::uint64_t epoch : l.drained_tokens()) complete_epoch(epoch);
    l.clear_drained_tokens();
  }
}

void FpSubsystem::process_cfg(std::uint64_t now, const OffloadEntry& entry) {
  if (entry.kind == OffloadKind::kFrepCfg) {
    const auto mode = entry.op->mnemonic == Mnemonic::kFrepI ? frep::FrepSequencer::Mode::kInner
                                                             : frep::FrepSequencer::Mode::kOuter;
    const auto body = static_cast<unsigned>(entry.op->imm);
    const std::uint64_t extra_reps = entry.operand;
    sequencer_.configure(body, extra_reps, mode);
    // Replays belong to the body's epoch (offloaded after this frep.o).
    add_outstanding(entry.epoch + 1, static_cast<std::uint64_t>(body) * extra_reps);
  } else if (entry.kind == OffloadKind::kSsrCfgWrite) {
    ssr_->write_cfg(static_cast<unsigned>(entry.op->imm), entry.operand);
    fpu_busy_until_ = std::max<std::uint64_t>(fpu_busy_until_, now + params_.ssr_cfg_latency);
  } else {  // kSsrCfgRead
    const std::uint32_t value = ssr_->read_cfg(static_cast<unsigned>(entry.op->imm));
    int_wb_queue_.push_back(IntWriteback{entry.op->rd, value});
    fpu_busy_until_ = std::max<std::uint64_t>(fpu_busy_until_, now + params_.ssr_cfg_latency);
  }
  complete_epoch(entry.epoch);
}

bool FpSubsystem::try_issue_compute(std::uint64_t now, const MicroOp& op, std::uint32_t operand,
                                    std::uint64_t epoch, bool from_replay) {
  if (fpu_busy_until_ > now) {
    account(now, StallCause::kFpStruct);
    return false;
  }
  // Source readiness. Integer sources were captured at offload. An SSR
  // stream register may be read by several operands of one instruction
  // (e.g. `fmul.d ft0, ft2, ft2` popping w then s); the lane must have that
  // many elements ready.
  const std::uint32_t ssr_read = ssr_->read_mask();
  std::array<unsigned, isa::kNumSsrLanes> ssr_need{};
  bool raw_stall = false;
  const auto check_src = [&](std::uint8_t fp_bit, unsigned reg) {
    if ((op.fp_regs & fp_bit) == 0) return;
    if ((ssr_read >> reg) & 1U) {
      ++ssr_need[reg];
    } else if (fp_ready_[reg] > now) {
      raw_stall = true;
    }
  };
  check_src(MicroOp::kFpRs1, op.rs1);
  check_src(MicroOp::kFpRs2, op.rs2);
  check_src(MicroOp::kFpRs3, op.rs3);
  bool ssr_stall = false;
  if (ssr_read != 0) {
    for (unsigned lane = 0; lane < isa::kNumSsrLanes; ++lane) {
      if (ssr_->lane(lane).ready_count() < ssr_need[lane]) ssr_stall = true;
    }
  }
  if (raw_stall || ssr_stall) {
    if (ssr_stall) {
      account(now, StallCause::kFpSsr);
    } else {
      account(now, StallCause::kFpRaw);
    }
    return false;
  }
  // Destination checks.
  const unsigned latency = latency_[static_cast<unsigned>(op.fpu_class)];
  const bool dest_ssr = op.fp_rd() && ((ssr_->write_mask() >> op.rd) & 1U);
  if (dest_ssr) {
    if (!ssr_->lane(op.rd).can_push()) {
      account(now, StallCause::kFpSsr);
      return false;
    }
  } else if (op.fp_rd()) {
    if (fp_ready_[op.rd] > now) {  // WAW: wait for in-flight write
      account(now, StallCause::kFpRaw);
      return false;
    }
    if (wb_port_booked(now + latency)) {  // one FP-RF write per cycle
      account(now, StallCause::kFpStruct);
      return false;
    }
  }
  // Issue: gather operands (SSR reads pop their lane).
  const auto source = [&](std::uint8_t fp_bit, unsigned reg) -> std::uint64_t {
    if ((op.fp_regs & fp_bit) == 0) return 0;
    if ((ssr_read >> reg) & 1U) return ssr_->lane(reg).pop();
    return rf_.read(reg);
  };
  const std::uint64_t a = source(MicroOp::kFpRs1, op.rs1);
  const std::uint64_t b = source(MicroOp::kFpRs2, op.rs2);
  const std::uint64_t c = source(MicroOp::kFpRs3, op.rs3);
  const fpu::FpuResult result = fpu::execute(*op.instr, a, b, c, operand);

  if (op.fpu_class == FpuClass::kDivSqrt) fpu_busy_until_ = now + latency;

  if (result.writes_fp) {
    if (dest_ssr) {
      // Completion deferred until the value drains to memory.
      ssr_->lane(op.rd).push(result.fp, epoch);
    } else {
      rf_.write(op.rd, result.fp);
      fp_ready_[op.rd] = now + latency;
      book_wb_port(now + latency);
      schedule_completion(now, latency, Completion{epoch, false, {}});
    }
  } else if (result.writes_int) {
    schedule_completion(now, latency, Completion{epoch, true, IntWriteback{op.rd, result.intval}});
  } else {
    schedule_completion(now, latency, Completion{epoch, false, {}});
  }

  if (std::uint64_t* counter = op_counter_[static_cast<unsigned>(op.fpu_class)]) ++*counter;
  ++counters_->fp_retired;
  tracer_->record(now, 0, *op.instr, from_replay ? TraceUnit::kFrepReplay : TraceUnit::kFpss);
  if (from_replay) {
    ++counters_->frep_replays;
    sequencer_.advance();
  } else {
    if (sequencer_.recording()) {
      // The first iteration already ran; replays re-enter via the sequencer.
      sequencer_.record(frep::FrepEntry{&op, operand, epoch});
    }
    fifo_.pop_front();
  }
  return true;
}

std::optional<mem::TcdmRequest> FpSubsystem::prepare(std::uint64_t now) {
  mem_action_ = MemAction::kNone;
  // Replays take priority: the FIFO is blocked while a loop replays.
  if (sequencer_.replaying()) {
    const frep::FrepEntry& e = sequencer_.current();
    try_issue_compute(now, *e.op, e.operand, e.epoch, /*from_replay=*/true);
    return std::nullopt;
  }
  if (fifo_.empty()) {
    account(now, StallCause::kFpIdle);
    return std::nullopt;
  }
  const OffloadEntry& head = fifo_.front();
  switch (head.kind) {
    case OffloadKind::kCompute:
      try_issue_compute(now, *head.op, head.operand, head.epoch, /*from_replay=*/false);
      return std::nullopt;
    case OffloadKind::kFrepCfg:
    case OffloadKind::kSsrCfgWrite:
    case OffloadKind::kSsrCfgRead: {
      if (sequencer_.recording()) {
        throw SimError("FREP/SSR config inside an FREP body");
      }
      if (head.kind == OffloadKind::kSsrCfgWrite) {
        // Re-arming a lane (RPTR/WPTR write) backpressures until the lane
        // has drained its previous stream.
        const auto imm = static_cast<unsigned>(head.op->imm);
        const unsigned reg = imm % 32;
        const unsigned lane = imm / 32;
        if (reg >= ssr::kRegRptr0 && lane < isa::kNumSsrLanes && !ssr_->lane(lane).idle()) {
          account(now, StallCause::kFpStruct);
          return std::nullopt;
        }
      }
      OffloadEntry entry = head;
      fifo_.pop_front();
      process_cfg(now, entry);
      // Config consumption occupies this cycle's FPSS issue slot but is not
      // an FP retire (the int core already counted ssr_cfg/frep_cfg).
      account(now, StallCause::kFpCfg);
      return std::nullopt;
    }
    case OffloadKind::kLoad: {
      // WAW on the destination register.
      if (fp_ready_[head.op->rd] > now) {
        account(now, StallCause::kFpRaw);
        return std::nullopt;
      }
      if (wb_port_booked(now + params_.fp_load_latency)) {
        account(now, StallCause::kFpStruct);
        return std::nullopt;
      }
      mem_action_ = MemAction::kLoad;
      return mem::TcdmRequest{mem::TcdmPort::kFpLsu, head.operand};
    }
    case OffloadKind::kStore: {
      const unsigned rs2 = head.op->rs2;
      if ((ssr_->read_mask() >> rs2) & 1U) {
        if (!ssr_->lane(rs2).can_pop()) {
          account(now, StallCause::kFpSsr);
          return std::nullopt;
        }
      } else if (fp_ready_[rs2] > now) {
        account(now, StallCause::kFpRaw);
        return std::nullopt;
      }
      mem_action_ = MemAction::kStore;
      return mem::TcdmRequest{mem::TcdmPort::kFpLsu, head.operand};
    }
  }
  return std::nullopt;
}

void FpSubsystem::commit(std::uint64_t now, bool granted) {
  if (mem_action_ == MemAction::kNone) return;
  if (!granted) {
    account(now, StallCause::kFpTcdm);
    mem_action_ = MemAction::kNone;
    return;
  }
  const OffloadEntry entry = fifo_.front();
  fifo_.pop_front();
  const MicroOp& op = *entry.op;
  if (mem_action_ == MemAction::kLoad) {
    std::uint64_t value;
    if (op.mnemonic == Mnemonic::kFld) {
      value = memory_->load64(entry.operand);
    } else {
      value = 0xFFFFFFFF00000000ULL | memory_->load32(entry.operand);
    }
    rf_.write(op.rd, value);
    fp_ready_[op.rd] = now + params_.fp_load_latency;
    book_wb_port(now + params_.fp_load_latency);
    schedule_completion(now, params_.fp_load_latency, Completion{entry.epoch, false, {}});
    ++counters_->fp_load;
    ++counters_->tcdm_reads;
  } else {
    const std::uint64_t value =
        ((ssr_->read_mask() >> op.rs2) & 1U) ? ssr_->lane(op.rs2).pop() : rf_.read(op.rs2);
    if (op.mnemonic == Mnemonic::kFsd) {
      memory_->store64(entry.operand, value);
    } else {
      memory_->store32(entry.operand, static_cast<std::uint32_t>(value));
    }
    schedule_completion(now, 1, Completion{entry.epoch, false, {}});
    ++counters_->fp_store;
    ++counters_->tcdm_writes;
  }
  ++counters_->fp_retired;
  tracer_->record(now, 0, *op.instr, TraceUnit::kFpss);
  mem_action_ = MemAction::kNone;
}

}  // namespace copift::sim
