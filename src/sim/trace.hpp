// Instruction trace and issue-slot attribution (Snitch-style traces).
//
// When attached to a cluster, the tracer records two parallel streams:
//
//  * one `TraceEntry` per retired instruction (issue cycle, pc, unit), and
//  * one `StallEvent` per non-retiring cycle of each unit, tagged with the
//    stall cause (RAW, write-port conflict, offload FIFO full, frontend,
//    TCDM conflict, barrier wait, ...) or the occupied/idle reason
//    (offload handoff, SSR/FREP config, post-ecall drain, empty FIFO).
//
// Together the streams cover every simulated cycle of every unit exactly
// once — the same attribution the ActivityCounters accumulate in aggregate.
// `render()` produces a human-readable listing; `sim/trace_export.hpp` adds
// the Chrome/Perfetto trace-event JSON exporter and the top-down stall
// report. This is the tool of first resort when a kernel's schedule doesn't
// behave (stalls, barrier waits, FREP replays): see
// docs/performance-debugging.md for the workflow.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "isa/instr.hpp"
#include "sim/stall_cause.hpp"

namespace copift::sim {

/// One-line-per-cause legend of the whole taxonomy (printed by
/// `copift_sim --report` so the output is self-describing).
[[nodiscard]] std::string stall_taxonomy_legend();

struct TraceEntry {
  std::uint64_t cycle = 0;
  std::uint32_t pc = 0;  // 0 for FPSS-side entries (no fetch)
  isa::Instr instr;
  TraceUnit unit = TraceUnit::kIntCore;
};

/// One non-retiring cycle of one unit, attributed to its cause. FREP replay
/// issue slots live on the FPSS track, so `unit` is kIntCore or kFpss only.
struct StallEvent {
  std::uint64_t cycle = 0;
  TraceUnit unit = TraceUnit::kIntCore;
  StallCause cause = StallCause::kIntRaw;
};

class Tracer {
 public:
  void record(std::uint64_t cycle, std::uint32_t pc, const isa::Instr& instr,
              TraceUnit unit) {
    if (!enabled_) return;
    entries_.push_back(TraceEntry{cycle, pc, instr, unit});
  }

  /// Attribute a non-retiring cycle of `unit` to `cause`. Called by the
  /// units in lockstep with the ActivityCounters slot counters, so with
  /// tracing on, entries + stalls cover every cycle of every unit once.
  void record_stall(std::uint64_t cycle, TraceUnit unit, StallCause cause) {
    if (!enabled_) return;
    stalls_.push_back(StallEvent{cycle, unit, cause});
  }

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const std::vector<TraceEntry>& entries() const noexcept { return entries_; }
  [[nodiscard]] const std::vector<StallEvent>& stalls() const noexcept { return stalls_; }
  void clear() {
    entries_.clear();
    stalls_.clear();
  }

  /// Render the trace (optionally a cycle range) as text, one line per
  /// retired instruction: cycle, unit tag, pc, disassembly.
  [[nodiscard]] std::string render(std::uint64_t from_cycle = 0,
                                   std::uint64_t to_cycle = UINT64_MAX) const;

  /// Dual-issue cycles: cycles in which both the integer core and the FPSS
  /// retired an instruction.
  [[nodiscard]] std::uint64_t dual_issue_cycles() const;

 private:
  bool enabled_ = false;
  std::vector<TraceEntry> entries_;
  std::vector<StallEvent> stalls_;
};

}  // namespace copift::sim
