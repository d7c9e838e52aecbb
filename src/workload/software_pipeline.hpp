// Software-pipelining codegen helper: the one place that knows how a COPIFT
// kernel overlaps its phases across blocks (Step 5 of the methodology,
// paper Section II-A, Fig. 1g/1j).
//
// A loop split into P phases, each run by the integer core or the FPSS,
// works in block iteration j' on block j' - p in phase p. A run of nb blocks
// takes P - 1 prologue iterations (iteration k runs phases 0..k), nb - P + 1
// steady iterations with every phase active, and P - 1 epilogue iterations
// (iteration NB+k runs phases k+1..P-1). The steady iterations are one
// do-while loop (`steady`, between `body_begin` and `body_end`) counted down
// in t3, so a run needs depth + 1 blocks, where the depth P - 1 is
// core::PipelineSchedule::depth().
//
// Each iteration emits its active FP phases in phase order, then its active
// integer phases, then the slot rotation (after every iteration but the
// last). When both kinds are active, a `copift.barrier` follows the first FP
// phase's slot, active or not: it holds the integer core until the FP work
// of earlier iterations has completed, so the integer phases read finished
// results and reuse only slots the FP thread is done with.
//
//   const workload::SoftwarePipeline pipe(kExpPhases,  // shared with validate()
//                                         {emit_a, emit_int, emit_b}, emit_rotate);
//   pipe.load_steady_count(b, nb);                     // li t3, nb - depth
//   pipe.emit(b);                                      // prologue, loop, epilogue
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/dfg.hpp"
#include "kernels/codegen.hpp"

namespace copift::workload {

/// The thread that runs one pipeline phase.
using PhaseKind = core::Domain;

class SoftwarePipeline {
 public:
  /// Emits one phase for one block. `site` counts the phase's earlier
  /// emissions (0 the first time), so labels inside it stay unique.
  using EmitPhase = std::function<void(kernels::AsmBuilder&, unsigned site)>;

  /// Fewest blocks a run of a pipeline with these phases needs:
  /// core::PipelineSchedule::depth() + 1.
  [[nodiscard]] static std::uint32_t min_blocks(std::span<const PhaseKind> kinds) noexcept;

  /// Phase p has kind `kinds[p]` and is emitted by `phases[p]`; `rotate`
  /// emits the slot rotation. Throws copift::Error when the two lists differ
  /// in length.
  SoftwarePipeline(std::span<const PhaseKind> kinds, std::vector<EmitPhase> phases,
                   std::function<void(kernels::AsmBuilder&)> rotate);

  /// `li t3, blocks - depth`: the steady iterations of a run of `blocks`
  /// blocks, which validate() keeps at least min_blocks().
  void load_steady_count(kernels::AsmBuilder& b, std::uint32_t blocks) const;

  /// The prologue, the steady loop and the epilogue.
  void emit(kernels::AsmBuilder& b) const;

 private:
  /// One block iteration running phases [first, last].
  void emit_iteration(kernels::AsmBuilder& b, std::size_t first, std::size_t last, bool rotate,
                      std::vector<unsigned>& sites) const;

  std::span<const PhaseKind> kinds_;
  std::vector<EmitPhase> phases_;
  std::function<void(kernels::AsmBuilder&)> rotate_;
  std::size_t depth_;
};

}  // namespace copift::workload
