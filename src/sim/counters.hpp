// Activity and stall counters.
//
// Every architectural event the energy model charges for is counted here;
// region markers (csrw region, id) snapshot the whole struct so callers can
// compute per-region deltas (e.g. steady-state IPC as in paper Fig. 2a).
//
// The issue-slot counters obey an exact per-unit accounting identity over
// any simulated interval (asserted in tests/test_trace.cpp):
//
//   unit_cycles(u, kIssue) + unit_cycles(u, kStall) + unit_cycles(u, kIdle) == cycles
//
// for u = kIntCore and kFpss, i.e. every cycle of each unit is attributed
// to exactly one cause: an issue (retire, offload handoff, or config
// consumption), a named stall, or idleness. `sim/trace.hpp` records the
// same attribution per cycle when tracing is enabled; `sim/trace_export.hpp`
// renders it.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/stall_cause.hpp"

namespace copift::sim {

struct ActivityCounters {
  std::uint64_t cycles = 0;

  // Retired instructions. `int_retired` counts instructions issued by the
  // integer core (including FREP/SSR config and CSR ops); `fp_retired`
  // counts FPSS issues including FREP replays — their sum over time divided
  // by cycles is the dual-issue IPC reported in the paper.
  std::uint64_t int_retired = 0;
  std::uint64_t fp_retired = 0;
  std::uint64_t frep_replays = 0;

  // Integer-side events.
  std::uint64_t int_alu = 0;
  std::uint64_t int_mul = 0;
  std::uint64_t int_div = 0;
  std::uint64_t int_load = 0;
  std::uint64_t int_store = 0;
  std::uint64_t branches = 0;
  std::uint64_t branches_taken = 0;
  std::uint64_t jumps = 0;
  std::uint64_t csr_ops = 0;
  std::uint64_t dma_cmds = 0;
  std::uint64_t ssr_cfg = 0;
  std::uint64_t frep_cfg = 0;
  std::uint64_t barriers = 0;

  // FP-side events (by FPU class).
  std::uint64_t fp_add = 0;
  std::uint64_t fp_mul = 0;
  std::uint64_t fp_fma = 0;
  std::uint64_t fp_divsqrt = 0;
  std::uint64_t fp_cmp = 0;
  std::uint64_t fp_cvt = 0;
  std::uint64_t fp_move = 0;
  std::uint64_t fp_minmax = 0;
  std::uint64_t fp_class = 0;
  std::uint64_t fp_load = 0;
  std::uint64_t fp_store = 0;

  // Memory system.
  std::uint64_t tcdm_reads = 0;
  std::uint64_t tcdm_writes = 0;
  std::uint64_t tcdm_conflicts = 0;
  std::uint64_t ssr_elements = 0;
  std::uint64_t issr_indices = 0;
  std::uint64_t l0_hits = 0;
  std::uint64_t l0_refills = 0;
  std::uint64_t dma_busy_cycles = 0;
  std::uint64_t dma_bytes = 0;
  std::uint64_t dram_row_hits = 0;    // DRAM bursts that found their row open
  std::uint64_t dram_row_misses = 0;  // DRAM bursts that paid precharge+activate

  // Issue-slot cycles, one counter per StallCause (sim/stall_cause.hpp):
  // every non-retiring cycle of each unit, whether a stall, an issue slot
  // used without a retire (offload handoff, SSR/FREP config), or idleness.
  std::array<std::uint64_t, kNumStallCauses> slots{};

  [[nodiscard]] std::uint64_t slot(StallCause cause) const noexcept {
    return slots[static_cast<unsigned>(cause)];
  }
  [[nodiscard]] std::uint64_t& slot(StallCause cause) noexcept {
    return slots[static_cast<unsigned>(cause)];
  }

  [[nodiscard]] std::uint64_t retired() const noexcept { return int_retired + fp_retired; }
  [[nodiscard]] double ipc() const noexcept {
    return cycles == 0 ? 0.0 : static_cast<double>(retired()) / static_cast<double>(cycles);
  }

  /// Issue-slot cycles of `unit` (kIntCore or kFpss) of one kind, summed
  /// over the taxonomy; a unit's retires count as issue cycles.
  [[nodiscard]] std::uint64_t unit_cycles(TraceUnit unit, SlotKind kind) const noexcept;
  [[nodiscard]] std::uint64_t int_issue_cycles() const noexcept {
    return unit_cycles(TraceUnit::kIntCore, SlotKind::kIssue);
  }
  [[nodiscard]] std::uint64_t int_stall_cycles() const noexcept {
    return unit_cycles(TraceUnit::kIntCore, SlotKind::kStall);
  }
  [[nodiscard]] std::uint64_t fpss_issue_cycles() const noexcept {
    return unit_cycles(TraceUnit::kFpss, SlotKind::kIssue);
  }
  [[nodiscard]] std::uint64_t fpss_stall_cycles() const noexcept {
    return unit_cycles(TraceUnit::kFpss, SlotKind::kStall);
  }

  /// Element-wise difference (this - earlier) for region-delta analysis.
  [[nodiscard]] ActivityCounters minus(const ActivityCounters& earlier) const noexcept;

  /// Element-wise sum for cluster-level aggregation over harts. Every event
  /// and slot counter adds; `cycles` takes the max (all harts share the
  /// cluster clock, so summing it would double-count wall time).
  [[nodiscard]] ActivityCounters plus(const ActivityCounters& other) const noexcept;
};

/// Fingerprint of ActivityCounters' word layout: each field's offset in
/// field-list order, then the slot array's offset, its length and each
/// cause's counter name. A file persisting the raw words stamps it, so a
/// build whose words moved rejects the file instead of misreading it.
[[nodiscard]] std::uint64_t counters_layout_fingerprint();

/// Region marker event, recorded when the program writes the `region` CSR.
struct RegionEvent {
  std::uint32_t id = 0;
  ActivityCounters snapshot;
};

}  // namespace copift::sim
