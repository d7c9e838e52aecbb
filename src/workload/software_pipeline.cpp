#include "workload/software_pipeline.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "core/schedule.hpp"

namespace copift::workload {

using kernels::AsmBuilder;
using kernels::cat;

std::uint32_t SoftwarePipeline::min_blocks(std::span<const PhaseKind> kinds) noexcept {
  core::PipelineSchedule schedule;
  schedule.num_phases = kinds.size();
  return static_cast<std::uint32_t>(schedule.depth()) + 1;
}

SoftwarePipeline::SoftwarePipeline(std::span<const PhaseKind> kinds, std::vector<EmitPhase> phases,
                                   std::function<void(AsmBuilder&)> rotate)
    : kinds_(kinds), phases_(std::move(phases)), rotate_(std::move(rotate)),
      depth_(min_blocks(kinds) - 1) {
  if (phases_.size() != kinds_.size()) {
    throw Error("SoftwarePipeline: " + std::to_string(kinds_.size()) + " phase kinds but " +
                std::to_string(phases_.size()) + " phase emitters");
  }
}

void SoftwarePipeline::load_steady_count(AsmBuilder& b, std::uint32_t blocks) const {
  b.l(cat("li t3, ", blocks - depth_));
}

void SoftwarePipeline::emit_iteration(AsmBuilder& b, std::size_t first, std::size_t last,
                                      bool rotate, std::vector<unsigned>& sites) const {
  // Both kinds run when some, but not all, of the running phases are FP.
  const auto fp = std::count(kinds_.begin() + first, kinds_.begin() + last + 1, PhaseKind::kFp);
  bool barrier = fp > 0 && fp <= static_cast<std::ptrdiff_t>(last - first);
  for (const PhaseKind kind : {PhaseKind::kFp, PhaseKind::kInt}) {
    for (std::size_t p = 0; p < kinds_.size(); ++p) {
      if (kinds_[p] != kind) continue;
      if (p >= first && p <= last) phases_[p](b, sites[p]++);
      if (kind == PhaseKind::kFp && barrier) {
        b.l("copift.barrier");  // after the first FP phase's slot only
        barrier = false;
      }
    }
  }
  if (rotate) rotate_(b);
}

void SoftwarePipeline::emit(AsmBuilder& b) const {
  const std::size_t last = kinds_.size() - 1;
  std::vector<unsigned> sites(kinds_.size(), 0);
  for (std::size_t k = 0; k < depth_; ++k) {
    b.c(cat("prologue j'=", k, ": phases 0..", k, " on blocks ", k, "..0"));
    emit_iteration(b, 0, k, /*rotate=*/true, sites);
  }
  b.label("steady");
  b.label("body_begin");
  emit_iteration(b, 0, last, /*rotate=*/true, sites);
  b.l("addi t3, t3, -1");
  b.l("bnez t3, steady");
  b.label("body_end");
  for (std::size_t k = 0; k < depth_; ++k) {
    b.c(cat("epilogue j'=NB+", k, ": phases ", k + 1, "..", last, " on blocks NB-1..NB-",
            last - k));
    emit_iteration(b, k + 1, last, /*rotate=*/k + 1 < depth_, sites);
  }
}

}  // namespace copift::workload
