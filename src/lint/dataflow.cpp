#include "lint/dataflow.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <optional>
#include <string>

#include "common/layout.hpp"
#include "isa/csr.hpp"
#include "isa/eval.hpp"
#include "isa/instr.hpp"
#include "isa/reg.hpp"
#include "ssr/ssr.hpp"

namespace copift::lint {

// ---------------------------------------------------------------------------
// Lattice operations
// ---------------------------------------------------------------------------

Value Value::join(const Value& o) const noexcept {
  if (tag == o.tag) {
    if (tag != Tag::kConst || c == o.c) return *this;
    return unknown();  // two different constants
  }
  // Any mix involving (maybe-)undef is maybe-undef: the register is not
  // written on every path.
  if (tag == Tag::kUndef || o.tag == Tag::kUndef || tag == Tag::kMaybeUndef ||
      o.tag == Tag::kMaybeUndef) {
    return {Tag::kMaybeUndef, 0};
  }
  return unknown();  // const vs unknown
}

FpDef join(FpDef a, FpDef b) noexcept {
  if (a == b) return a;
  return FpDef::kMaybeUndef;
}

Tri join(Tri a, Tri b) noexcept { return a == b ? a : Tri::kTop; }

bool LaneState::join_from(const LaneState& o) noexcept {
  const LaneState before = *this;
  if (armed != o.armed) armed = Armed::kTop;
  if (remaining != o.remaining) remaining = Count::unknown();
  for (std::size_t i = 0; i < cfg.size(); ++i) cfg[i] = cfg[i].join(o.cfg[i]);
  idx_touched = idx_touched || o.idx_touched;
  return !(*this == before);
}

bool DmaState::join_from(const DmaState& o) {
  const DmaState before = *this;
  src = src.join(o.src);
  dst = dst.join(o.dst);
  saturated = saturated || o.saturated;
  if (saturated) {
    pending.clear();
  } else {
    // Keep only windows pending on *both* paths, so the load-before-wait
    // rule stays a must-property.
    std::vector<Interval> both;
    for (const Interval& iv : pending) {
      if (std::find(o.pending.begin(), o.pending.end(), iv) != o.pending.end()) {
        both.push_back(iv);
      }
    }
    pending = std::move(both);
  }
  return !(*this == before);
}

void DmaState::add_pending(std::uint32_t lo, std::uint32_t hi) {
  if (saturated || lo >= hi) return;
  if (pending.size() >= kMaxPending) {
    saturated = true;
    pending.clear();
    return;
  }
  pending.push_back({lo, hi});
  std::sort(pending.begin(), pending.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
}

HartState HartState::entry(unsigned hart) {
  HartState s;
  s.reachable = true;
  s.gpr[0] = Value::konst(0);
  s.gpr[2] = Value::konst(kStackTop - hart * kHartStackBytes);  // sp
  // SSR config words reset to zero in hardware; starting them as constant 0
  // keeps stream element counts exact for codegen that never writes `repeat`.
  for (LaneState& lane : s.lane) lane.cfg.fill(Value::konst(0));
  return s;
}

bool HartState::join_from(const HartState& o) {
  if (!o.reachable) return false;
  if (!reachable) {
    *this = o;
    return true;
  }
  bool changed = false;
  for (std::size_t i = 0; i < 32; ++i) {
    const Value v = gpr[i].join(o.gpr[i]);
    if (!(v == gpr[i])) { gpr[i] = v; changed = true; }
    const FpDef f = lint::join(fpr[i], o.fpr[i]);
    if (f != fpr[i]) { fpr[i] = f; changed = true; }
  }
  const Tri e = lint::join(ssr_enabled, o.ssr_enabled);
  if (e != ssr_enabled) { ssr_enabled = e; changed = true; }
  for (std::size_t l = 0; l < lane.size(); ++l) {
    changed = lane[l].join_from(o.lane[l]) || changed;
  }
  changed = dma.join_from(o.dma) || changed;
  return changed;
}

// ---------------------------------------------------------------------------
// Transfer function
// ---------------------------------------------------------------------------

namespace {

using isa::ExecUnit;
using isa::Format;
using isa::InstrInfo;
using isa::Mnemonic;
using isa::RegClass;

std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%x", v);
  return buf;
}

/// Streams never total more than this; larger products mean garbage geometry
/// and the counter degrades to unknown rather than risking overflow.
constexpr std::uint64_t kMaxElements = std::uint64_t{1} << 40;

unsigned access_bytes(Mnemonic m) {
  switch (m) {
    case Mnemonic::kLb: case Mnemonic::kLbu: case Mnemonic::kSb: return 1;
    case Mnemonic::kLh: case Mnemonic::kLhu: case Mnemonic::kSh: return 2;
    case Mnemonic::kFld: case Mnemonic::kFsd: return 8;
    default: return 4;  // lw/sw/flw/fsw
  }
}

/// One block-local walk context: applies the transfer function instruction
/// by instruction, tracking the active FREP replay multiplier, and (in the
/// report pass) emits diagnostics into `sink`.
class Walker {
 public:
  Walker(const rvasm::Program& program, const Cfg& cfg, unsigned hart,
         std::vector<LintDiag>* sink, std::vector<InstrIndex>* barriers)
      : program_(program), cfg_(cfg), hart_(hart), sink_(sink), barriers_(barriers) {
    // Map each frep instruction to its region id for multiplier tracking.
    frep_region_by_instr_.assign(program.text.size(), kNoInstr);
    for (std::size_t r = 0; r < cfg.frep_regions.size(); ++r) {
      frep_region_by_instr_[cfg.frep_regions[r].frep] = static_cast<std::uint32_t>(r);
    }
  }

  void begin_block() {
    active_region_ = kNoInstr;
    mult_ = Count::of(1);
    queued_region_ = kNoInstr;
    queued_mult_ = Count::of(1);
  }

  void step(HartState& s, InstrIndex idx) {
    sync_frep_region(idx);
    const isa::Instr& in = program_.text[idx];
    const InstrInfo& mi = in.meta();

    check_gpr_reads(s, in, mi, idx);
    const std::array<unsigned, 3> pops = check_fp_reads(s, in, mi, idx);
    apply_pops(s, pops);

    switch (mi.unit) {
      case ExecUnit::kIntAlu:
      case ExecUnit::kMul:
      case ExecUnit::kDiv:
        step_alu(s, in, mi, idx);
        break;
      case ExecUnit::kLoad:
        check_access(s, in, idx, /*is_load=*/true);
        set_gpr(s, in.rd, Value::unknown());
        break;
      case ExecUnit::kStore:
        check_access(s, in, idx, /*is_load=*/false);
        break;
      case ExecUnit::kBranch:
        break;  // reads already checked; successor choice is the caller's
      case ExecUnit::kJump:
        set_gpr(s, in.rd, Value::konst(cfg_.pc_of(idx) + 4));
        break;
      case ExecUnit::kCsr:
        step_csr(s, in, idx);
        break;
      case ExecUnit::kSys:
      case ExecUnit::kBarrier:
        break;
      case ExecUnit::kFpu:
        step_fp_result(s, in, mi);
        break;
      case ExecUnit::kFpLoad:
        check_access(s, in, idx, /*is_load=*/true);
        step_fp_result(s, in, mi);
        break;
      case ExecUnit::kFpStore:
        check_access(s, in, idx, /*is_load=*/false);
        break;
      case ExecUnit::kFrep:
        queue_frep(s, in, idx);
        break;
      case ExecUnit::kSsrCfg:
        step_ssr_cfg(s, in, idx);
        break;
      case ExecUnit::kDma:
        step_dma(s, in, idx);
        break;
    }
  }

  /// Fold the terminator branch of a block whose walk ended in `s`:
  /// true/false when both operands are constants, nullopt otherwise.
  [[nodiscard]] std::optional<bool> fold_branch(const HartState& s,
                                                InstrIndex idx) const {
    const isa::Instr& in = program_.text[idx];
    if (in.meta().unit != ExecUnit::kBranch) return std::nullopt;
    const Value a = get(s, in.rs1);
    const Value b = get(s, in.rs2);
    if (!a.is_const() || !b.is_const()) return std::nullopt;
    return isa::branch_taken(in.mnemonic, a.c, b.c);
  }

 private:
  static Value get(const HartState& s, unsigned r) {
    return r == 0 ? Value::konst(0) : s.gpr[r];
  }
  static void set_gpr(HartState& s, unsigned r, Value v) {
    if (r != 0) s.gpr[r] = v;
  }

  void diag(Rule rule, InstrIndex idx, std::string message) {
    if (!sink_) return;
    LintDiag d;
    d.rule = rule;
    d.pc = cfg_.pc_of(idx);
    d.hart = hart_;
    d.message = std::move(message);
    d.label = program_.symbolize(d.pc);
    sink_->push_back(std::move(d));
  }

  void sync_frep_region(InstrIndex idx) {
    const std::uint32_t r = cfg_.frep_region_of[idx];
    if (r == active_region_) return;
    active_region_ = r;
    if (r == kNoInstr) {
      mult_ = Count::of(1);
    } else if (r == queued_region_) {
      mult_ = queued_mult_;  // entered the body right after its frep
    } else {
      mult_ = Count::unknown();  // entered a body without executing its frep
    }
  }

  void queue_frep(HartState& s, const isa::Instr& in, InstrIndex idx) {
    queued_region_ = frep_region_by_instr_[idx];
    const Value n = get(s, in.rs1);
    if (n.is_const() && n.c < kMaxElements) {
      queued_mult_ = Count::of(static_cast<std::uint64_t>(n.c) + 1);
    } else {
      queued_mult_ = Count::unknown();
    }
  }

  void check_gpr_reads(const HartState& s, const isa::Instr& in,
                       const InstrInfo& mi, InstrIndex idx) {
    const auto check = [&](RegClass cls, unsigned r) {
      if (cls != RegClass::kInt || r == 0) return;
      if (s.gpr[r].is_undef()) {
        diag(Rule::kUseBeforeDef, idx,
             isa::int_reg_name(r) + " read by " + std::string(mi.name) +
                 " but never written on any path to this point");
      }
    };
    check(mi.rs1_class, in.rs1);
    check(mi.rs2_class, in.rs2);
  }

  /// Check FP source reads and return the per-lane pop count of this
  /// instruction (occurrences, not yet multiplied by the FREP factor).
  std::array<unsigned, 3> check_fp_reads(const HartState& s, const isa::Instr& in,
                                         const InstrInfo& mi, InstrIndex idx) {
    std::array<unsigned, 3> pops{};
    const auto check = [&](RegClass cls, unsigned r) {
      if (cls != RegClass::kFp) return;
      if (r >= isa::kNumSsrLanes || s.ssr_enabled == Tri::kFalse) {
        // A plain FP register read (lanes only remap ft0..ft2 under SSR).
        if (s.fpr[r] == FpDef::kUndef) {
          diag(Rule::kUseBeforeDef, idx,
               isa::fp_reg_name(r) + " read by " + std::string(mi.name) +
                   " but never written on any path to this point");
        }
        return;
      }
      const LaneState& lane = s.lane[r];
      if (s.ssr_enabled == Tri::kTrue && lane.armed == LaneState::Armed::kRead) {
        ++pops[r];  // stream pop
        return;
      }
      if (s.ssr_enabled == Tri::kTrue && lane.armed == LaneState::Armed::kIdle &&
          s.fpr[r] == FpDef::kUndef) {
        diag(Rule::kSsrReadBeforeConfig, idx,
             isa::fp_reg_name(r) + " read under SSR but lane " + std::to_string(r) +
                 " was never armed (no rptr/wptr config write) and the register "
                 "itself holds no value");
      }
      // Armed-write or unknown lane state: stay silent (conservative).
    };
    check(mi.rs1_class, in.rs1);
    check(mi.rs2_class, in.rs2);
    check(mi.rs3_class, in.rs3);
    return pops;
  }

  void apply_pops(HartState& s, const std::array<unsigned, 3>& pops) {
    for (unsigned l = 0; l < isa::kNumSsrLanes; ++l) {
      if (pops[l] == 0) continue;
      LaneState& lane = s.lane[l];
      if (!lane.remaining.known) continue;
      if (!mult_.known) {
        lane.remaining = Count::unknown();
        continue;
      }
      const std::uint64_t consumed = static_cast<std::uint64_t>(pops[l]) * mult_.v;
      lane.remaining.v = consumed >= lane.remaining.v ? 0 : lane.remaining.v - consumed;
    }
  }

  void step_alu(HartState& s, const isa::Instr& in, const InstrInfo& mi,
                InstrIndex idx) {
    Value a = get(s, in.rs1);
    Value b = get(s, in.rs2);
    // U-format (lui/auipc) has no register sources; the fold only needs imm/pc.
    const bool unary = mi.rs1_class != RegClass::kInt;
    const bool binary = mi.rs2_class == RegClass::kInt;
    if ((unary || a.is_const()) && (!binary || b.is_const())) {
      set_gpr(s, in.rd,
              Value::konst(isa::alu_result(in.mnemonic, a.c, b.c, in.imm, cfg_.pc_of(idx))));
    } else {
      set_gpr(s, in.rd, Value::unknown());
    }
  }

  void check_access(HartState& s, const isa::Instr& in, InstrIndex idx,
                    bool is_load) {
    const Value base = get(s, in.rs1);
    if (!base.is_const()) return;
    const std::uint32_t lo = base.c + static_cast<std::uint32_t>(in.imm);
    const unsigned size = access_bytes(in.mnemonic);
    const std::uint64_t hi = static_cast<std::uint64_t>(lo) + size;
    const bool tcdm = lo >= kTcdmBase && hi <= std::uint64_t{kTcdmBase} + kTcdmSize;
    const bool dram = lo >= kDramBase && hi <= std::uint64_t{kDramBase} + kDramSize;
    if (!tcdm && !dram) {
      diag(Rule::kOobAccess, idx,
           std::string(in.meta().name) + " of " + std::to_string(size) +
               " bytes at constant address " + hex(lo) +
               " lies outside TCDM [" + hex(kTcdmBase) + ", +128KiB) and DRAM [" +
               hex(kDramBase) + ", +32MiB)");
      return;
    }
    if (is_load && !s.dma.saturated) {
      for (const Interval& iv : s.dma.pending) {
        if (lo < iv.hi && hi > iv.lo) {
          diag(Rule::kDmaLoadBeforeWait, idx,
               std::string(in.meta().name) + " at " + hex(lo) +
                   " reads DMA destination window [" + hex(iv.lo) + ", " +
                   hex(iv.hi) + ") with no dmwait since the dmcpy that wrote it");
          break;
        }
      }
    }
  }

  void step_csr(HartState& s, const isa::Instr& in, InstrIndex idx) {
    const auto csr = static_cast<std::uint16_t>(in.imm);
    const bool imm_form = in.mnemonic == Mnemonic::kCsrrwi ||
                          in.mnemonic == Mnemonic::kCsrrsi ||
                          in.mnemonic == Mnemonic::kCsrrci;
    // Source value: zimm5 for the immediate forms, rs1 for the register forms.
    Value src = imm_form ? Value::konst(in.rs1) : get(s, in.rs1);
    const bool is_write = in.mnemonic == Mnemonic::kCsrrw || in.mnemonic == Mnemonic::kCsrrwi;
    const bool is_set = in.mnemonic == Mnemonic::kCsrrs || in.mnemonic == Mnemonic::kCsrrsi;
    // A csrrs/csrrc with source x0 / zimm 0 is a pure read.
    const bool pure_read = !is_write && ((imm_form && in.rs1 == 0) ||
                                         (!imm_form && in.rs1 == 0));

    if (csr == isa::kCsrBarrier && barriers_) barriers_->push_back(idx);

    if (csr == isa::kCsrSsr && !pure_read) {
      if (src.is_const()) {
        const bool bit0 = (src.c & 1) != 0;
        if (is_write) {
          set_ssr_enabled(s, bit0);
        } else if (bit0) {
          set_ssr_enabled(s, is_set);  // csrrs sets the bit, csrrc clears it
        }
      } else {
        s.ssr_enabled = Tri::kTop;
      }
    }

    // Result value.
    if (csr == isa::kCsrMhartid) {
      set_gpr(s, in.rd, Value::konst(hart_));
    } else {
      set_gpr(s, in.rd, Value::unknown());
    }
  }

  void set_ssr_enabled(HartState& s, bool on) {
    s.ssr_enabled = on ? Tri::kTrue : Tri::kFalse;
    if (!on) {
      // Disabling waits for write streams to drain and discards the read
      // generators: every lane returns to idle. Geometry words persist.
      for (LaneState& lane : s.lane) {
        lane.armed = LaneState::Armed::kIdle;
        lane.remaining = Count::of(0);
      }
    }
  }

  void step_ssr_cfg(HartState& s, const isa::Instr& in, InstrIndex idx) {
    if (in.mnemonic == Mnemonic::kScfgri) {
      set_gpr(s, in.rd, Value::unknown());
      return;
    }
    const auto word = static_cast<std::uint32_t>(in.imm);
    const std::uint32_t lane_no = word / 32;
    const std::uint32_t reg = word % 32;
    if (lane_no >= isa::kNumSsrLanes) return;
    LaneState& lane = s.lane[lane_no];
    const Value v = get(s, in.rs1);

    const bool is_arm = (reg >= ssr::kRegRptr0 && reg <= ssr::kRegWptr3) ||
                        reg == ssr::kRegIdxCfg;
    if (!is_arm) {
      // Geometry/stride/index-setup write. Rewriting these while a stream is
      // provably mid-flight is the classic lost-update codegen bug: the
      // in-flight generator keeps its armed snapshot, so the write silently
      // applies to the *next* arm only.
      if (s.ssr_enabled == Tri::kTrue &&
          (lane.armed == LaneState::Armed::kRead ||
           lane.armed == LaneState::Armed::kWrite) &&
          lane.remaining.known && lane.remaining.v > 0) {
        diag(Rule::kSsrReconfigWhileStreaming, idx,
             "lane " + std::to_string(lane_no) + " config word " +
                 std::to_string(reg) + " rewritten while the armed stream still has " +
                 std::to_string(lane.remaining.v) + " elements in flight");
      }
      if (reg <= ssr::kRegBound3) {
        lane.cfg[reg] = v;
      } else if (reg >= ssr::kRegIdxBase && reg <= ssr::kRegIdxShift) {
        lane.idx_touched = true;
      }
      return;
    }

    if (reg == ssr::kRegIdxCfg) {
      // ISSR: writing the index count arms the lane as an indirect read
      // stream; element accounting is data-dependent, so unknown.
      lane.armed = LaneState::Armed::kRead;
      lane.remaining = Count::unknown();
      lane.idx_touched = true;
      return;
    }

    const bool write_stream = reg >= ssr::kRegWptr0;
    const std::uint32_t dims = write_stream ? reg - ssr::kRegWptr0 + 1
                                            : reg - ssr::kRegRptr0 + 1;
    lane.armed = write_stream ? LaneState::Armed::kWrite : LaneState::Armed::kRead;
    lane.remaining = stream_total(lane, dims);
  }

  /// (repeat+1) * prod(bound_d + 1) for d < dims, when the geometry the arm
  /// snapshots is fully constant.
  static Count stream_total(const LaneState& lane, std::uint32_t dims) {
    if (lane.idx_touched) return Count::unknown();
    std::uint64_t total = 1;
    for (std::uint32_t w = 0; w <= dims; ++w) {  // word 0 = repeat, 1..dims = bounds
      const Value& v = lane.cfg[w];
      if (!v.is_const()) return Count::unknown();
      total *= static_cast<std::uint64_t>(v.c) + 1;
      if (total > kMaxElements) return Count::unknown();
    }
    return Count::of(total);
  }

  void step_fp_result(HartState& s, const isa::Instr& in, const InstrInfo& mi) {
    if (mi.rd_class == RegClass::kInt) {
      set_gpr(s, in.rd, Value::unknown());  // feq/flt/fle, fclass, fcvt.w.d, fmv.x.w
      return;
    }
    if (mi.rd_class != RegClass::kFp) return;
    if (in.rd < isa::kNumSsrLanes && s.ssr_enabled == Tri::kTrue &&
        s.lane[in.rd].armed == LaneState::Armed::kWrite) {
      // Result goes to the write stream, not the register file.
      LaneState& lane = s.lane[in.rd];
      if (lane.remaining.known) {
        if (!mult_.known) {
          lane.remaining = Count::unknown();
        } else {
          lane.remaining.v = mult_.v >= lane.remaining.v ? 0 : lane.remaining.v - mult_.v;
        }
      }
      return;
    }
    s.fpr[in.rd] = FpDef::kDef;
  }

  void step_dma(HartState& s, const isa::Instr& in, InstrIndex) {
    switch (in.mnemonic) {
      case Mnemonic::kDmsrc:
        s.dma.src = get(s, in.rs1);
        break;
      case Mnemonic::kDmdst:
        s.dma.dst = get(s, in.rs1);
        break;
      case Mnemonic::kDmcpy: {
        const Value size = get(s, in.rs1);
        if (s.dma.dst.is_const() && size.is_const()) {
          s.dma.add_pending(s.dma.dst.c,
                            static_cast<std::uint32_t>(
                                std::min<std::uint64_t>(std::uint64_t{s.dma.dst.c} + size.c,
                                                        ~std::uint32_t{0})));
        }
        // An untracked transfer cannot invalidate tracked windows: both stay
        // pending until dmwait either way.
        set_gpr(s, in.rd, Value::unknown());
        break;
      }
      case Mnemonic::kDmstat:
        set_gpr(s, in.rd, Value::unknown());
        break;
      case Mnemonic::kDmwait:
        s.dma.pending.clear();
        s.dma.saturated = false;
        break;
      default:
        break;
    }
  }

  const rvasm::Program& program_;
  const Cfg& cfg_;
  unsigned hart_;
  std::vector<LintDiag>* sink_;
  std::vector<InstrIndex>* barriers_;

  std::vector<std::uint32_t> frep_region_by_instr_;
  std::uint32_t active_region_ = kNoInstr;
  Count mult_ = Count::of(1);
  std::uint32_t queued_region_ = kNoInstr;
  Count queued_mult_ = Count::of(1);
};

}  // namespace

// ---------------------------------------------------------------------------
// Fixpoint driver + report pass
// ---------------------------------------------------------------------------

namespace {

/// Successor blocks of `b` given the out-state of its walk: a constant
/// branch condition folds to the single edge the hart actually takes.
std::vector<std::uint32_t> successors(const rvasm::Program& program, const Cfg& cfg,
                                      const Walker& walker, const HartState& out,
                                      std::uint32_t b) {
  const BasicBlock& block = cfg.blocks[b];
  const auto taken = walker.fold_branch(out, block.last);
  if (!taken.has_value()) return block.succs;
  std::vector<std::uint32_t> succs;
  if (*taken) {
    const InstrIndex t = resolve_target(cfg, program, block.last);
    if (t != kNoInstr) succs.push_back(cfg.block_of[t]);
  } else {
    const InstrIndex next = block.last + 1;
    if (next < program.text.size()) succs.push_back(cfg.block_of[next]);
  }
  return succs;
}

}  // namespace

HartAnalysis analyze_hart(const rvasm::Program& program, const Cfg& cfg,
                          unsigned hart, unsigned /*cores*/) {
  HartAnalysis result;
  result.hart = hart;
  result.block_in.assign(cfg.blocks.size(), HartState{});
  if (program.text.empty()) return result;

  // --- fixpoint ---
  (void)result.block_in[cfg.entry_block].join_from(HartState::entry(hart));
  std::deque<std::uint32_t> worklist{cfg.entry_block};
  std::vector<bool> queued(cfg.blocks.size(), false);
  queued[cfg.entry_block] = true;
  Walker walker(program, cfg, hart, nullptr, nullptr);
  while (!worklist.empty()) {
    const std::uint32_t b = worklist.front();
    worklist.pop_front();
    queued[b] = false;
    HartState out = result.block_in[b];
    walker.begin_block();
    const BasicBlock& block = cfg.blocks[b];
    for (InstrIndex i = block.first; i <= block.last; ++i) walker.step(out, i);
    for (const std::uint32_t succ : successors(program, cfg, walker, out, b)) {
      if (result.block_in[succ].join_from(out) && !queued[succ]) {
        queued[succ] = true;
        worklist.push_back(succ);
      }
    }
  }

  // --- report pass over the stable states ---
  Walker reporter(program, cfg, hart, &result.diags, &result.barrier_sites);
  for (std::uint32_t b = 0; b < cfg.blocks.size(); ++b) {
    if (!result.block_in[b].reachable) continue;
    HartState state = result.block_in[b];
    reporter.begin_block();
    const BasicBlock& block = cfg.blocks[b];
    for (InstrIndex i = block.first; i <= block.last; ++i) reporter.step(state, i);
  }
  return result;
}

}  // namespace copift::lint
