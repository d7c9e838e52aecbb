// The issue-slot taxonomy: the one list of slot causes.
//
// Every cycle of each unit (integer core, FPSS) that does not retire an
// instruction goes to exactly one StallCause. ActivityCounters keeps one
// slot counter per cause, indexed by the enum, and every consumer (the
// per-unit totals, minus/plus, the result-table columns, the pipeline
// report, the CLI summary, the debug stub's `monitor stalls`, the legend)
// iterates kCauseInfo. Adding a cause takes one enum value and one row.
#pragma once

#include <array>
#include <cstdint>

namespace copift::sim {

enum class TraceUnit : std::uint8_t { kIntCore, kFpss, kFrepReplay };

/// Why a unit's issue slot did not retire an instruction this cycle. The
/// first group are integer-core causes, the second FPSS causes.
enum class StallCause : std::uint8_t {
  // Integer core.
  kIntRaw,
  kIntWbPort,
  kIntOffloadFull,
  kIntFrontend,
  kIntBranch,
  kIntDivBusy,
  kIntTcdm,
  kIntMemOrder,
  kIntBarrier,
  kIntHwBarrier,
  kIntDmaWait,
  kIntDmaDram,
  kIntOffload,
  kIntHalted,
  // FPSS.
  kFpRaw,
  kFpSsr,
  kFpStruct,
  kFpTcdm,
  kFpCfg,
  kFpIdle,
};

inline constexpr unsigned kNumStallCauses = static_cast<unsigned>(StallCause::kFpIdle) + 1;

/// Coarse classification of a StallCause: an issue slot used without a
/// retire (offload handoff, config consumption), a named stall, or idleness.
enum class SlotKind : std::uint8_t { kIssue, kStall, kIdle };

struct CauseInfo {
  StallCause cause;
  const char* name;     // "<unit>/<cause>": trace slices, reports, legend
  const char* counter;  // result-table column of the slot counter
  TraceUnit unit;       // kIntCore or kFpss
  SlotKind kind;
  const char* legend;
};

inline constexpr std::array<CauseInfo, kNumStallCauses> kCauseInfo = {{
    {StallCause::kIntRaw, "int/raw", "stall_raw", TraceUnit::kIntCore, SlotKind::kStall,
     "operand not ready (register in flight, incl. waiting on an FPSS int writeback)"},
    {StallCause::kIntWbPort, "int/wb-port", "stall_wb_port", TraceUnit::kIntCore,
     SlotKind::kStall, "single RF write port already booked for the result's writeback cycle"},
    {StallCause::kIntOffloadFull, "int/offload-full", "stall_offload_full", TraceUnit::kIntCore,
     SlotKind::kStall, "offload FIFO full (accelerator bus busy; often FREP replay serialization)"},
    {StallCause::kIntFrontend, "int/frontend", "stall_icache", TraceUnit::kIntCore,
     SlotKind::kStall, "L0 I-cache miss / fetch refill penalty"},
    {StallCause::kIntBranch, "int/branch", "stall_branch", TraceUnit::kIntCore, SlotKind::kStall,
     "bubble after a taken branch or jump"},
    {StallCause::kIntDivBusy, "int/div-busy", "stall_div_busy", TraceUnit::kIntCore,
     SlotKind::kStall, "iterative divider still occupied by an earlier div/rem"},
    {StallCause::kIntTcdm, "int/tcdm", "stall_tcdm", TraceUnit::kIntCore, SlotKind::kStall,
     "lost TCDM bank arbitration (bank conflict)"},
    {StallCause::kIntMemOrder, "int/mem-order", "stall_mem_order", TraceUnit::kIntCore,
     SlotKind::kStall, "load held back by an overlapping FP store still queued in the FPSS"},
    {StallCause::kIntBarrier, "int/barrier", "stall_barrier", TraceUnit::kIntCore,
     SlotKind::kStall, "copift.barrier or SSR/FPSS drain wait"},
    {StallCause::kIntHwBarrier, "int/hw-barrier", "stall_hw_barrier", TraceUnit::kIntCore,
     SlotKind::kStall, "waiting for the other harts at the inter-hart barrier CSR"},
    {StallCause::kIntDmaWait, "int/dma-wait", "stall_dma_wait", TraceUnit::kIntCore,
     SlotKind::kStall, "dmwait: queued DMA transfers still draining (TCDM-local traffic)"},
    {StallCause::kIntDmaDram, "int/dma-dram", "stall_dma_dram", TraceUnit::kIntCore,
     SlotKind::kStall, "dmwait: DMA transfer in flight against the DRAM row/bandwidth model"},
    {StallCause::kIntOffload, "int/offload", "int_offloads", TraceUnit::kIntCore,
     SlotKind::kIssue, "issue slot used to hand an instruction to the FPSS FIFO (retires FP-side)"},
    {StallCause::kIntHalted, "int/halted", "int_halt_cycles", TraceUnit::kIntCore,
     SlotKind::kIdle, "post-ecall: core halted, cluster draining in-flight FP work"},
    {StallCause::kFpRaw, "fp/raw", "fpss_stall_raw", TraceUnit::kFpss, SlotKind::kStall,
     "FP operand still in flight (RAW/WAW on the FP register file)"},
    {StallCause::kFpSsr, "fp/ssr", "fpss_stall_ssr", TraceUnit::kFpss, SlotKind::kStall,
     "SSR lane not ready (read stream empty or write stream full)"},
    {StallCause::kFpStruct, "fp/struct", "fpss_stall_struct", TraceUnit::kFpss, SlotKind::kStall,
     "structural: FPU busy (div/sqrt or cfg), FP-RF write port booked, or lane re-arm wait"},
    {StallCause::kFpTcdm, "fp/tcdm", "fpss_stall_tcdm", TraceUnit::kFpss, SlotKind::kStall,
     "lost TCDM bank arbitration (bank conflict)"},
    {StallCause::kFpCfg, "fp/cfg", "fpss_cfg_cycles", TraceUnit::kFpss, SlotKind::kIssue,
     "issue slot used to consume an SSR/FREP configuration entry"},
    {StallCause::kFpIdle, "fp/idle", "fpss_idle", TraceUnit::kFpss, SlotKind::kIdle,
     "offload FIFO empty: integer core has not produced FP work"},
}};

[[nodiscard]] constexpr const CauseInfo& cause_info(StallCause cause) noexcept {
  return kCauseInfo[static_cast<unsigned>(cause)];
}

static_assert(
    [] {
      for (unsigned i = 0; i < kNumStallCauses; ++i) {
        if (static_cast<unsigned>(kCauseInfo[i].cause) != i) return false;
      }
      return true;
    }(),
    "kCauseInfo rows must follow StallCause order");

}  // namespace copift::sim
