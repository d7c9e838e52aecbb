#include "sim/cluster.hpp"

#include <array>
#include <cstdio>

#include "common/error.hpp"

namespace copift::sim {

namespace {
std::shared_ptr<const rvasm::Program> require(std::shared_ptr<const rvasm::Program> p) {
  if (!p) throw Error("Cluster requires a non-null program");
  return p;
}
}  // namespace

Cluster::Cluster(std::shared_ptr<const rvasm::Program> program, ClusterTopology topology)
    : program_(require(std::move(program))),
      decoded_(DecodedProgram::get(program_)),
      topo_((topology.validate(), std::move(topology))),
      arbiter_(topo_.shared().num_tcdm_banks, topo_.num_cores()),
      dma_(memory_, topo_.shared().dma_bytes_per_cycle),
      barrier_(topo_.num_cores()) {
  const SimParams& shared = topo_.shared();
  if (shared.dram_enabled) {
    mem::DramTiming timing;
    timing.t_row_hit = shared.dram_t_row_hit;
    timing.t_row_miss = shared.dram_t_row_miss;
    timing.row_bytes = shared.dram_row_bytes;
    timing.bytes_per_cycle = shared.dram_bytes_per_cycle;
    timing.channels = shared.dram_channels;
    dram_ = std::make_unique<mem::DramModel>(timing);
    dma_.attach_dram(*dram_, shared.dram_burst_bytes);
  }
  complexes_.reserve(topo_.num_cores());
  for (unsigned h = 0; h < topo_.num_cores(); ++h) {
    complexes_.push_back(std::make_unique<CoreComplex>(h, topo_.num_cores(), topo_.complex(h),
                                                       *decoded_, memory_, dma_, barrier_));
  }
  memory_.write_block(program_->data_base, program_->data);
  memory_.write_block(program_->dram_base, program_->dram);
}

Cluster::Cluster(std::shared_ptr<const rvasm::Program> program, SimParams params)
    : Cluster(std::move(program), ClusterTopology(params)) {}

Cluster::Cluster(rvasm::Program program, SimParams params)
    : Cluster(std::make_shared<const rvasm::Program>(std::move(program)), params) {}

Cluster::Cluster(rvasm::Program program, ClusterTopology topology)
    : Cluster(std::make_shared<const rvasm::Program>(std::move(program)),
              std::move(topology)) {}

bool Cluster::halted() const noexcept {
  for (const auto& cx : complexes_) {
    if (!cx->core().halted()) return false;
  }
  return true;
}

bool Cluster::all_fpss_idle() const noexcept {
  for (const auto& cx : complexes_) {
    if (!cx->fpss().idle()) return false;
  }
  return true;
}

const ActivityCounters& Cluster::counters() const noexcept {
  if (complexes_.size() == 1) return complexes_.front()->counters();
  agg_ = ActivityCounters{};
  agg_.cycles = cycle_;
  for (const auto& cx : complexes_) agg_ = agg_.plus(cx->counters());
  return agg_;
}

void Cluster::set_tracing(bool enabled) {
  for (auto& cx : complexes_) cx->tracer().set_enabled(enabled);
}

void Cluster::tick() {
  // counters().cycles needs no refresh here: the end of the previous tick
  // left it at cycle_, and mcycle/region reads stamp `now` themselves.
  for (auto& cx : complexes_) cx->fpss().begin_cycle(cycle_);
  dma_.tick();

  // Phase 1: every agent of every hart decides what it wants from the TCDM
  // this cycle.
  requests_.clear();
  tags_.clear();
  // Whether hart h's core/fpss presented a request this cycle (commit must
  // still run for them on denial so the tcdm stall is attributed).
  std::array<std::uint8_t, kMaxHarts> core_pending{};
  std::array<std::uint8_t, kMaxHarts> fpss_pending{};
  std::array<std::uint8_t, kMaxHarts> core_granted{};
  std::array<std::uint8_t, kMaxHarts> fpss_granted{};

  for (unsigned h = 0; h < complexes_.size(); ++h) {
    CoreComplex& cx = *complexes_[h];
    if (const auto core_req = cx.core().prepare(cycle_)) {
      auto req = *core_req;
      req.hart = h;
      requests_.push_back(req);
      tags_.push_back(RequestTag{h, RequestSrc::kCore, {}});
      core_pending[h] = 1;
    }
    if (const auto fpss_req = cx.fpss().prepare(cycle_)) {
      auto req = *fpss_req;
      req.hart = h;
      requests_.push_back(req);
      tags_.push_back(RequestTag{h, RequestSrc::kFpss, {}});
      fpss_pending[h] = 1;
    }
    ssr_requests_.clear();
    ssr_tags_.clear();
    cx.ssr().collect_requests(ssr_requests_, ssr_tags_);
    for (std::size_t i = 0; i < ssr_requests_.size(); ++i) {
      auto req = ssr_requests_[i];
      req.hart = h;
      requests_.push_back(req);
      tags_.push_back(RequestTag{h, RequestSrc::kSsr, ssr_tags_[i]});
    }
  }

  // Phase 2: bank arbitration over the shared TCDM.
  const std::uint64_t grants = requests_.empty() ? 0 : arbiter_.arbitrate(requests_);

  // Phase 3: commit, attributing every grant/denial to the owning hart.
  for (std::size_t i = 0; i < requests_.size(); ++i) {
    const bool granted = (grants >> i) & 1;
    CoreComplex& cx = *complexes_[tags_[i].hart];
    if (!granted) ++cx.counters().tcdm_conflicts;
    switch (tags_[i].src) {
      case RequestSrc::kCore:
        core_granted[tags_[i].hart] = granted ? 1 : 0;
        break;
      case RequestSrc::kFpss:
        fpss_granted[tags_[i].hart] = granted ? 1 : 0;
        break;
      case RequestSrc::kSsr:
        if (granted) {
          ActivityCounters& c = cx.counters();
          cx.ssr().apply_grant(tags_[i].ssr_tag);
          ++c.ssr_elements;
          if (tags_[i].ssr_tag.index) {
            ++c.issr_indices;
            ++c.tcdm_reads;
          } else if (cx.ssr().lane(tags_[i].ssr_tag.lane).is_write_stream()) {
            ++c.tcdm_writes;
          } else {
            ++c.tcdm_reads;
          }
        }
        break;
    }
  }
  for (unsigned h = 0; h < complexes_.size(); ++h) {
    CoreComplex& cx = *complexes_[h];
    if (core_pending[h]) cx.core().commit(cycle_, core_granted[h] != 0);
    if (fpss_pending[h]) cx.fpss().commit(cycle_, fpss_granted[h] != 0);
    cx.ssr().commit_cycle();
  }

  // The DMA is cluster-shared; its activity is attributed to hart 0 (and
  // thereby to the aggregate view).
  complexes_.front()->counters().dma_busy_cycles = dma_.busy_cycles();
  complexes_.front()->counters().dma_bytes = dma_.bytes_moved();
  if (dram_) {
    complexes_.front()->counters().dram_row_hits = dram_->row_hits();
    complexes_.front()->counters().dram_row_misses = dram_->row_misses();
  }
  ++cycle_;
  for (auto& cx : complexes_) cx->counters().cycles = cycle_;
}

std::string Cluster::fault_location() const {
  std::string out = " (cycle " + std::to_string(cycle_);
  char pc[16];
  for (unsigned h = 0; h < complexes_.size(); ++h) {
    const IntCore& core = complexes_[h]->core();
    std::snprintf(pc, sizeof(pc), "0x%08x", core.pc());
    out += "; hart " + std::to_string(h) + " pc " + pc;
    const std::string sym = program_->symbolize(core.pc());
    if (!sym.empty()) out += " <" + sym + ">";
    if (core.halted()) out += " [halted]";
  }
  return out + ")";
}

RunResult Cluster::run() {
  const std::uint64_t max_cycles = topo_.shared().max_cycles;
  try {
    while (!halted() && cycle_ < max_cycles) tick();
    // Drain in-flight FP work so memory state is final at halt.
    while (halted() && !all_fpss_idle() && cycle_ < max_cycles) tick();
  } catch (const SimError& fault) {
    // tick() throws before advancing cycle_, so this names the faulting cycle.
    throw SimError(fault, fault_location());
  }
  RunResult result;
  result.halted = halted();
  result.cycles = cycle_;
  result.exit_code = complexes_.front()->core().exit_code();
  if (!result.halted) {
    throw SimError("simulation exceeded max_cycles (" + std::to_string(max_cycles) + ")");
  }
  return result;
}

}  // namespace copift::sim
