#include "sim/fpss.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"
#include "isa/reg.hpp"

namespace copift::sim {

using isa::ExecUnit;
using isa::FpuClass;
using isa::Mnemonic;
using isa::RegClass;

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

/// Min-heap comparator: the completion with the smallest (cycle, seq) is on
/// top, so equal-cycle completions retire in schedule order (the multimap
/// insertion order this replaces).
struct CompletionLater {
  bool operator()(const auto& a, const auto& b) const noexcept {
    return a.cycle != b.cycle ? a.cycle > b.cycle : a.seq > b.seq;
  }
};
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
  completions_.reserve(16);
  outstanding_by_epoch_.reserve(8);
}

void FpSubsystem::account(std::uint64_t now, StallCause cause) {
  switch (cause) {
    case StallCause::kFpRaw: ++counters_->fpss_stall_raw; break;
    case StallCause::kFpSsr: ++counters_->fpss_stall_ssr; break;
    case StallCause::kFpStruct: ++counters_->fpss_stall_struct; break;
    case StallCause::kFpTcdm: ++counters_->fpss_stall_tcdm; break;
    case StallCause::kFpCfg: ++counters_->fpss_cfg_cycles; break;
    case StallCause::kFpIdle: ++counters_->fpss_idle; break;
    default: throw SimError("integer-core stall cause attributed to the FPSS");
  }
  tracer_->record_stall(now, TraceUnit::kFpss, cause);
}

void FpSubsystem::offload(OffloadEntry entry) {
  if (fifo_full()) throw SimError("offload to full FPSS FIFO");
  if (entry.meta == nullptr) entry.meta = &entry.instr.meta();
  add_outstanding(entry.epoch);
  fifo_.push_back(std::move(entry));
}

std::optional<IntWriteback> FpSubsystem::take_int_writeback() {
  if (int_wb_queue_.empty()) return std::nullopt;
  IntWriteback wb = int_wb_queue_.front();
  int_wb_queue_.pop_front();
  return wb;
}

bool FpSubsystem::idle() const noexcept {
  return fifo_.empty() && sequencer_.idle() && total_outstanding_ == 0 && int_wb_queue_.empty();
}

bool FpSubsystem::store_conflict(std::uint32_t addr, std::uint32_t size) const noexcept {
  for (std::size_t i = 0; i < fifo_.size(); ++i) {
    const OffloadEntry& e = fifo_[i];
    if (e.kind != OffloadKind::kStore) continue;
    const std::uint32_t ssize = e.instr.mnemonic == Mnemonic::kFsd ? 8 : 4;
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

void FpSubsystem::schedule_completion(std::uint64_t cycle, Completion c) {
  completions_.push_back(ScheduledCompletion{cycle, completion_seq_++, std::move(c)});
  std::push_heap(completions_.begin(), completions_.end(), CompletionLater{});
}

void FpSubsystem::begin_cycle(std::uint64_t now) {
  // Retire completions due this cycle, oldest (cycle, seq) first.
  while (!completions_.empty() && completions_.front().cycle <= now) {
    std::pop_heap(completions_.begin(), completions_.end(), CompletionLater{});
    const Completion& c = completions_.back().c;
    if (c.has_int_wb) int_wb_queue_.push_back(c.int_wb);
    complete_epoch(c.epoch);
    completions_.pop_back();
  }
  // SSR write-stream drains complete their producing instructions.
  for (unsigned lane = 0; lane < isa::kNumSsrLanes; ++lane) {
    ssr::SsrLane& l = ssr_->lane(lane);
    if (!l.has_drained_tokens()) continue;
    for (std::uint64_t epoch : l.drained_tokens()) complete_epoch(epoch);
    l.clear_drained_tokens();
  }
}

bool FpSubsystem::ssr_read_reg(unsigned reg) const {
  return ssr_->enabled() && reg < isa::kNumSsrLanes && ssr_->lane(reg).is_read_stream();
}

bool FpSubsystem::ssr_write_reg(unsigned reg) const {
  return ssr_->enabled() && reg < isa::kNumSsrLanes && ssr_->lane(reg).is_write_stream();
}

void FpSubsystem::count_fpu_op(FpuClass cls) {
  switch (cls) {
    case FpuClass::kAdd: ++counters_->fp_add; break;
    case FpuClass::kMul: ++counters_->fp_mul; break;
    case FpuClass::kFma: ++counters_->fp_fma; break;
    case FpuClass::kDivSqrt: ++counters_->fp_divsqrt; break;
    case FpuClass::kCmp: ++counters_->fp_cmp; break;
    case FpuClass::kCvt: ++counters_->fp_cvt; break;
    case FpuClass::kMove: ++counters_->fp_move; break;
    case FpuClass::kMinMax: ++counters_->fp_minmax; break;
    case FpuClass::kClass: ++counters_->fp_class; break;
    case FpuClass::kNone: break;
  }
}

void FpSubsystem::process_cfg(std::uint64_t now, const OffloadEntry& entry) {
  if (entry.kind == OffloadKind::kFrepCfg) {
    const auto mode = entry.instr.mnemonic == Mnemonic::kFrepI ? frep::FrepSequencer::Mode::kInner
                                                               : frep::FrepSequencer::Mode::kOuter;
    const auto body = static_cast<unsigned>(entry.instr.imm);
    const std::uint64_t extra_reps = entry.operand;
    sequencer_.configure(body, extra_reps, mode);
    // Replays belong to the body's epoch (offloaded after this frep.o).
    add_outstanding(entry.epoch + 1, static_cast<std::uint64_t>(body) * extra_reps);
  } else if (entry.kind == OffloadKind::kSsrCfgWrite) {
    ssr_->write_cfg(static_cast<unsigned>(entry.instr.imm), entry.operand);
    fpu_busy_until_ = std::max<std::uint64_t>(fpu_busy_until_, now + params_.ssr_cfg_latency);
  } else {  // kSsrCfgRead
    const std::uint32_t value = ssr_->read_cfg(static_cast<unsigned>(entry.instr.imm));
    int_wb_queue_.push_back(IntWriteback{entry.instr.rd, value});
    fpu_busy_until_ = std::max<std::uint64_t>(fpu_busy_until_, now + params_.ssr_cfg_latency);
  }
  complete_epoch(entry.epoch);
  (void)now;
}

bool FpSubsystem::try_issue_compute(std::uint64_t now, const OffloadEntry& entry,
                                    bool from_replay) {
  const auto& meta = *entry.meta;
  if (fpu_busy_until_ > now) {
    account(now, StallCause::kFpStruct);
    return false;
  }
  // Source readiness. Integer sources were captured at offload. An SSR
  // stream register may be read by several operands of one instruction
  // (e.g. `fmul.d ft0, ft2, ft2` popping w then s); the lane must have that
  // many elements ready.
  std::array<unsigned, isa::kNumSsrLanes> ssr_need{};
  bool raw_stall = false;
  const auto check_src = [&](RegClass cls, unsigned reg) {
    if (cls != RegClass::kFp) return;
    if (ssr_read_reg(reg)) {
      ++ssr_need[reg];
    } else if (fp_ready_[reg] > now) {
      raw_stall = true;
    }
  };
  check_src(meta.rs1_class, entry.instr.rs1);
  check_src(meta.rs2_class, entry.instr.rs2);
  check_src(meta.rs3_class, entry.instr.rs3);
  bool ssr_stall = false;
  for (unsigned lane = 0; lane < isa::kNumSsrLanes; ++lane) {
    if (ssr_need[lane] > 0 && ssr_->lane(lane).ready_count() < ssr_need[lane]) ssr_stall = true;
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
  const unsigned latency = params_.fpu.of(meta.fpu_class);
  const bool dest_ssr = meta.rd_class == RegClass::kFp && ssr_write_reg(entry.instr.rd);
  if (dest_ssr) {
    if (!ssr_->lane(entry.instr.rd).can_push()) {
      account(now, StallCause::kFpSsr);
      return false;
    }
  } else if (meta.rd_class == RegClass::kFp) {
    if (fp_ready_[entry.instr.rd] > now) {  // WAW: wait for in-flight write
      account(now, StallCause::kFpRaw);
      return false;
    }
    if (wb_port_booked(now + latency)) {  // one FP-RF write per cycle
      account(now, StallCause::kFpStruct);
      return false;
    }
  }
  // Issue: gather operands (SSR reads pop their lane).
  const auto operand = [&](RegClass cls, unsigned reg) -> std::uint64_t {
    if (cls != RegClass::kFp) return 0;
    if (ssr_read_reg(reg)) return ssr_->lane(reg).pop();
    return rf_.read(reg);
  };
  const std::uint64_t a = operand(meta.rs1_class, entry.instr.rs1);
  const std::uint64_t b = operand(meta.rs2_class, entry.instr.rs2);
  const std::uint64_t c = operand(meta.rs3_class, entry.instr.rs3);
  const fpu::FpuResult result = fpu::execute(entry.instr, a, b, c, entry.operand);

  if (meta.fpu_class == FpuClass::kDivSqrt) fpu_busy_until_ = now + latency;

  if (result.writes_fp) {
    if (dest_ssr) {
      // Completion deferred until the value drains to memory.
      ssr_->lane(entry.instr.rd).push(result.fp, entry.epoch);
    } else {
      rf_.write(entry.instr.rd, result.fp);
      fp_ready_[entry.instr.rd] = now + latency;
      book_wb_port(now + latency);
      schedule_completion(now + latency, Completion{entry.epoch, false, {}});
    }
  } else if (result.writes_int) {
    Completion comp;
    comp.epoch = entry.epoch;
    comp.has_int_wb = true;
    comp.int_wb = IntWriteback{entry.instr.rd, result.intval};
    schedule_completion(now + latency, std::move(comp));
  } else {
    schedule_completion(now + latency, Completion{entry.epoch, false, {}});
  }

  count_fpu_op(meta.fpu_class);
  ++counters_->fp_retired;
  tracer_->record(now, 0, entry.instr,
                  from_replay ? TraceUnit::kFrepReplay : TraceUnit::kFpss);
  if (from_replay) {
    ++counters_->frep_replays;
    sequencer_.advance();
  } else {
    if (sequencer_.recording()) {
      sequencer_.record(frep::FrepEntry{entry.instr, entry.epoch});
      // The first iteration already ran; replays re-enter via the sequencer.
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
    OffloadEntry entry;
    entry.instr = e.instr;
    entry.meta = &e.instr.meta();
    entry.kind = OffloadKind::kCompute;
    entry.epoch = e.epoch;
    try_issue_compute(now, entry, /*from_replay=*/true);
    return std::nullopt;
  }
  if (fifo_.empty()) {
    account(now, StallCause::kFpIdle);
    return std::nullopt;
  }
  const OffloadEntry& head = fifo_.front();
  switch (head.kind) {
    case OffloadKind::kCompute:
      try_issue_compute(now, head, /*from_replay=*/false);
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
        const auto imm = static_cast<unsigned>(head.instr.imm);
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
      if (fp_ready_[head.instr.rd] > now) {
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
      const unsigned rs2 = head.instr.rs2;
      if (ssr_read_reg(rs2)) {
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
  OffloadEntry entry = fifo_.front();
  fifo_.pop_front();
  if (mem_action_ == MemAction::kLoad) {
    std::uint64_t value;
    if (entry.instr.mnemonic == Mnemonic::kFld) {
      value = memory_->load64(entry.operand);
    } else {
      value = 0xFFFFFFFF00000000ULL | memory_->load32(entry.operand);
    }
    rf_.write(entry.instr.rd, value);
    fp_ready_[entry.instr.rd] = now + params_.fp_load_latency;
    book_wb_port(now + params_.fp_load_latency);
    schedule_completion(now + params_.fp_load_latency, Completion{entry.epoch, false, {}});
    ++counters_->fp_load;
    ++counters_->tcdm_reads;
  } else {
    const std::uint64_t value =
        ssr_read_reg(entry.instr.rs2) ? ssr_->lane(entry.instr.rs2).pop() : rf_.read(entry.instr.rs2);
    if (entry.instr.mnemonic == Mnemonic::kFsd) {
      memory_->store64(entry.operand, value);
    } else {
      memory_->store32(entry.operand, static_cast<std::uint32_t>(value));
    }
    schedule_completion(now + 1, Completion{entry.epoch, false, {}});
    ++counters_->fp_store;
    ++counters_->tcdm_writes;
  }
  ++counters_->fp_retired;
  tracer_->record(now, 0, entry.instr, TraceUnit::kFpss);
  mem_action_ = MemAction::kNone;
}

}  // namespace copift::sim
