#include "sim/counters.hpp"

#include <algorithm>
#include <cstddef>
#include <string>

#include "common/fnv1a.hpp"

namespace copift::sim {

namespace {

// Every event field except `cycles` (which is wall time, not an event
// count: minus subtracts it, plus takes the max) and the slot array (which
// minus/plus walk as a whole). Keeping one list makes it impossible for
// minus(), plus() and the layout fingerprint to drift apart when a field is
// added; the static_assert below catches a field missing from it.
constexpr std::uint64_t ActivityCounters::* kEventFields[] = {
    &ActivityCounters::int_retired,
    &ActivityCounters::fp_retired,
    &ActivityCounters::frep_replays,
    &ActivityCounters::int_alu,
    &ActivityCounters::int_mul,
    &ActivityCounters::int_div,
    &ActivityCounters::int_load,
    &ActivityCounters::int_store,
    &ActivityCounters::branches,
    &ActivityCounters::branches_taken,
    &ActivityCounters::jumps,
    &ActivityCounters::csr_ops,
    &ActivityCounters::dma_cmds,
    &ActivityCounters::ssr_cfg,
    &ActivityCounters::frep_cfg,
    &ActivityCounters::barriers,
    &ActivityCounters::fp_add,
    &ActivityCounters::fp_mul,
    &ActivityCounters::fp_fma,
    &ActivityCounters::fp_divsqrt,
    &ActivityCounters::fp_cmp,
    &ActivityCounters::fp_cvt,
    &ActivityCounters::fp_move,
    &ActivityCounters::fp_minmax,
    &ActivityCounters::fp_class,
    &ActivityCounters::fp_load,
    &ActivityCounters::fp_store,
    &ActivityCounters::tcdm_reads,
    &ActivityCounters::tcdm_writes,
    &ActivityCounters::tcdm_conflicts,
    &ActivityCounters::ssr_elements,
    &ActivityCounters::issr_indices,
    &ActivityCounters::l0_hits,
    &ActivityCounters::l0_refills,
    &ActivityCounters::dma_busy_cycles,
    &ActivityCounters::dma_bytes,
    &ActivityCounters::dram_row_hits,
    &ActivityCounters::dram_row_misses,
};

static_assert(sizeof(ActivityCounters) ==
                  sizeof(std::uint64_t) * (1 + std::size(kEventFields) + kNumStallCauses),
              "every ActivityCounters field must be in kEventFields");

}  // namespace

std::uint64_t ActivityCounters::unit_cycles(TraceUnit unit, SlotKind kind) const noexcept {
  std::uint64_t sum = 0;
  if (kind == SlotKind::kIssue) sum = unit == TraceUnit::kIntCore ? int_retired : fp_retired;
  for (const CauseInfo& info : kCauseInfo) {
    if (info.unit == unit && info.kind == kind) sum += slot(info.cause);
  }
  return sum;
}

ActivityCounters ActivityCounters::minus(const ActivityCounters& e) const noexcept {
  ActivityCounters d;
  d.cycles = cycles - e.cycles;
  for (const auto field : kEventFields) d.*field = this->*field - e.*field;
  for (unsigned i = 0; i < kNumStallCauses; ++i) d.slots[i] = slots[i] - e.slots[i];
  return d;
}

ActivityCounters ActivityCounters::plus(const ActivityCounters& other) const noexcept {
  ActivityCounters s;
  s.cycles = std::max(cycles, other.cycles);
  for (const auto field : kEventFields) s.*field = this->*field + other.*field;
  for (unsigned i = 0; i < kNumStallCauses; ++i) s.slots[i] = slots[i] + other.slots[i];
  return s;
}

std::uint64_t counters_layout_fingerprint() {
  const ActivityCounters probe;
  const auto offset = [&](const void* member) {
    return std::to_string(static_cast<const std::byte*>(member) -
                          reinterpret_cast<const std::byte*>(&probe));
  };
  std::string layout = offset(&probe.cycles);
  for (const auto field : kEventFields) layout += ',' + offset(&(probe.*field));
  layout += ';' + offset(probe.slots.data()) + 'x' + std::to_string(kNumStallCauses);
  for (const CauseInfo& info : kCauseInfo) layout += std::string(",") + info.counter;
  return fnv1a(layout);
}

}  // namespace copift::sim
