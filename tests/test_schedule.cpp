#include "core/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "isa/reg.hpp"
#include "kernels/kernel_internal.hpp"
#include "rvasm/assembler.hpp"
#include "workload/software_pipeline.hpp"
#include "workload/workload.hpp"

namespace copift::core {
namespace {

Partition partition_of(const std::string& body, Dfg& g) {
  g = Dfg::build(rvasm::assemble(body).text);
  return partition(g);
}

TEST(Schedule, AdjacentPhasesDoubleBuffer) {
  Dfg g;
  const Partition p = partition_of(R"(
  addi a0, x0, 3
  fcvt.d.w fa0, a0
)", g);
  const PipelineSchedule s = plan_pipeline(p, g);
  ASSERT_EQ(s.buffers.size(), 1u);
  // Producer phase 0 -> consumer phase 1: distance 1 => 2 replicas.
  EXPECT_EQ(s.buffers[0].replicas, 2u);
  EXPECT_EQ(s.depth(), 1u);
}

TEST(Schedule, SkippedPhaseTripleBuffers) {
  // fp -> int -> fp with a value flowing directly from phase 0 to phase 2:
  // the paper's w buffer needs 3 replicas.
  Dfg g;
  const Partition p = partition_of(R"(
  fadd.d fa0, fa1, fa2
  fcvt.w.d a0, fa0
  addi a1, a0, 1
  fcvt.d.w fa3, a1
  fmul.d fa4, fa3, fa0
)", g);
  const PipelineSchedule s = plan_pipeline(p, g);
  ASSERT_EQ(p.phases.size(), 3u);
  unsigned max_replicas = 0;
  for (const auto& b : s.buffers) max_replicas = std::max(max_replicas, b.replicas);
  // fa0 flows phase 0 -> phase 2: 3 replicas (paper Section II-A Step 5).
  EXPECT_EQ(max_replicas, 3u);
}

TEST(Schedule, BlockAssignmentIsPipelined) {
  PipelineSchedule s;
  s.num_phases = 3;
  // Iteration j: phase p works on block j - p (paper Fig. 1g).
  EXPECT_EQ(s.block_for(0, 5), 5);
  EXPECT_EQ(s.block_for(1, 5), 4);
  EXPECT_EQ(s.block_for(2, 5), 3);
  EXPECT_LT(s.block_for(2, 1), 0);  // prologue: phase idle
}

TEST(Schedule, TcdmBytesScaleWithBlock) {
  PipelineSchedule s;
  s.num_phases = 2;
  BufferPlan b;
  b.bytes_per_element = 8;
  b.replicas = 2;
  s.buffers.push_back(b);
  s.io_bytes_per_element = 16;
  EXPECT_EQ(s.tcdm_bytes(10), 10u * (8 * 2 + 16));
  EXPECT_EQ(s.max_block(3200), 3200u / 32u);
}

TEST(Schedule, MaxBlockMatchesPaperScale) {
  // The exp kernel: per element, buffers ki (2x8), w (3x8), t (2x8) plus
  // x and y blocks (8 each): max block for a 6 KiB budget ~ 82.
  PipelineSchedule s;
  s.num_phases = 3;
  s.buffers = {
      {"ki", 0, 1, 8, 2},
      {"w", 0, 2, 8, 3},
      {"t", 1, 2, 8, 2},
  };
  s.io_bytes_per_element = 16;
  const auto bytes_per_elem = s.tcdm_bytes(1);
  EXPECT_EQ(bytes_per_elem, 8u * (2 + 3 + 2) + 16u);
  EXPECT_EQ(s.max_block(72 * 1024), 72u * 1024u / bytes_per_elem);
}

TEST(Schedule, SharedValueReadTwiceUsesOneBuffer) {
  // One produced value consumed twice in the same later phase: one buffer.
  Dfg g;
  const Partition p = partition_of(R"(
  addi a0, x0, 3
  fcvt.d.w fa0, a0
  fcvt.d.w fa1, a0
)", g);
  const PipelineSchedule s = plan_pipeline(p, g);
  EXPECT_EQ(s.buffers.size(), 1u);
}

TEST(Schedule, DumpListsBuffers) {
  Dfg g;
  const Partition p = partition_of("addi a0, x0, 1\nfcvt.d.w fa0, a0\n", g);
  const PipelineSchedule s = plan_pipeline(p, g);
  EXPECT_NE(s.dump().find("buffer"), std::string::npos);
}

// --- The methodology against the codegen ----------------------------------

/// Steps 1-5 on a baseline kernel's loop body: the assembled program between
/// `body_begin` and `body_end`, without the loop control (the t3 countdown and
/// its branch) and the x/y pointer bumps (a3, a4), which tiling replaces.
PipelineSchedule plan_baseline_body(const std::string& kernel, std::vector<Domain>& kinds) {
  workload::WorkloadConfig config;
  config.n = 1920;
  config.block = 96;
  const auto program =
      rvasm::assemble(workload::generate(kernel, workload::Variant::kBaseline, config).source);
  const unsigned t3 = *isa::parse_int_reg("t3");
  const unsigned a3 = *isa::parse_int_reg("a3");
  const unsigned a4 = *isa::parse_int_reg("a4");
  std::vector<isa::Instr> body;
  for (std::size_t i = program.text_index(program.symbol("body_begin"));
       i < program.text_index(program.symbol("body_end")); ++i) {
    const isa::Instr& in = program.text[i];
    const bool bump = in.mnemonic == isa::Mnemonic::kAddi && in.rd == in.rs1 &&
                      (in.rd == t3 || in.rd == a3 || in.rd == a4);
    if (bump || (in.mnemonic == isa::Mnemonic::kBne && in.rs1 == t3)) continue;
    body.push_back(in);
  }
  const Dfg dfg = Dfg::build(body);
  const Partition part = partition(dfg);
  validate(part, dfg);
  kinds.clear();
  for (const Phase& phase : part.phases) kinds.push_back(phase.domain);
  return plan_pipeline(part, dfg);
}

// Steps 1-5 agree with the codegen on the phases and the depth of every
// COPIFT pipeline but the Monte Carlo ones, and plan fewer buffer bytes per
// element than the codegen allocates; each difference has its reason below.
TEST(Methodology, PlansEachBaselineBodyAsItsCopiftPipeline) {
  using workload::PhaseKind;
  // The Monte Carlo baselines test each sample with flt.d, which writes the
  // integer RF, and accumulate the hits with an integer add: the model
  // plans a third, integer phase for that. The COPIFT kernels test with
  // flt.d.cop and accumulate with fadd.d (Xcopift), so the hits never leave
  // the FP RF and the third phase is gone.
  const std::vector<PhaseKind> mc_model = {PhaseKind::kInt, PhaseKind::kFp, PhaseKind::kInt};
  const struct {
    const char* kernel;
    unsigned unroll;
    std::vector<PhaseKind> model;      // the phases Steps 1-2 find
    std::span<const PhaseKind> codegen;
    std::uint64_t plan_bytes;          // buffer bytes per element, Step 5
    const char* arena;                 // the COPIFT program's slot arena
    const char* arena_end;             // the symbol after it (nullptr: end of data)
    std::uint64_t codegen_bytes;       // arena bytes per element
  } kKernels[] = {
      // The plan gives the fields that cross one phase (ki, t) 2 replicas and
      // w 3, 56 B. exp keeps ki, w and t of a block in one slot of a 3-slot
      // arena and rotates the three slot pointers once per block, so every
      // field has 3 replicas, 72 B; per-field replica counts would take
      // separate pointers and rotations, which changes the program.
      {"exp", 4, {PhaseKind::kFp, PhaseKind::kInt, PhaseKind::kFp}, kernels::kExpPhases, 56,
       "arena", "xarr", 72},
      // The plan passes k, iz and one table address per element, 4 B each,
      // double-buffered: 24 B. The SSR streams 64-bit words, so iz and k sit
      // in 8-byte cells, and the ISSR fetches invc and logc with one index
      // each: (2 x 8 + 2 x 4) B double-buffered, 48 B.
      {"log", 4, {PhaseKind::kInt, PhaseKind::kFp}, kernels::kLogPhases, 24, "izk_arena", "xarr",
       48},
      // The plan passes the raw x and y PRNs (4 B each) and the hit flag
      // (4 B; xoshiro's deferred last hit of a group stays in a register, so
      // 7 flags per 8 samples) double-buffered: 24 B or 23 B. The codegen
      // streams the raw PRNs in 8-byte cells (the SSR moves 64-bit words)
      // and keeps the hits in the FP RF: 2 x 8 B double-buffered, 32 B.
      {"pi_lcg", 8, mc_model, kernels::kMcPhases, 24, "arena", nullptr, 32},
      {"poly_lcg", 8, mc_model, kernels::kMcPhases, 24, "arena", nullptr, 32},
      {"pi_xoshiro128p", 8, mc_model, kernels::kMcPhases, 23, "arena", nullptr, 32},
      {"poly_xoshiro128p", 8, mc_model, kernels::kMcPhases, 23, "arena", nullptr, 32},
  };
  for (const auto& k : kKernels) {
    SCOPED_TRACE(k.kernel);
    std::vector<PhaseKind> kinds;
    const PipelineSchedule plan = plan_baseline_body(k.kernel, kinds);
    EXPECT_EQ(kinds, k.model);
    EXPECT_EQ(plan.depth(), kinds.size() - 1);
    const bool mc = k.codegen.size() != kinds.size();
    // The codegen's pipeline is the model's, less the Monte Carlo third phase.
    EXPECT_TRUE(std::equal(k.codegen.begin(), k.codegen.end(), kinds.begin()));
    EXPECT_EQ(workload::SoftwarePipeline::min_blocks(k.codegen) - 1, plan.depth() - (mc ? 1 : 0));
    EXPECT_EQ(plan.tcdm_bytes(1), k.plan_bytes * k.unroll);

    workload::WorkloadConfig config;
    config.n = 1920;
    config.block = 96;
    const auto copift =
        rvasm::assemble(workload::generate(k.kernel, workload::Variant::kCopift, config).source);
    const std::uint32_t end =
        k.arena_end != nullptr ? copift.symbol(k.arena_end)
                               : copift.data_base + static_cast<std::uint32_t>(copift.data.size());
    EXPECT_EQ((end - copift.symbol(k.arena)) / config.block, k.codegen_bytes);
  }
}

}  // namespace
}  // namespace copift::core
