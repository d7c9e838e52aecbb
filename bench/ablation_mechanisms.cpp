// Ablation study (extension beyond the paper): how much each modeled
// mechanism contributes to COPIFT's dual-issue performance, by sweeping the
// corresponding simulator parameters.
//
// Each section is one engine experiment whose params axis enumerates the
// mechanism's settings; the programs are assembled once per kernel and
// shared across all parameter variants (ProgramCache), and the runs execute
// in parallel on the worker pool.
#include <cstdio>
#include <string>

#include "bench_util.hpp"

namespace {

using namespace copift;
using workload::Variant;

double ipc_of(const engine::ResultTable& table, std::string_view name, Variant variant,
              const std::string& label) {
  const auto* row = table.find(name, variant, 0, 0, label);
  if (row == nullptr) throw Error("missing ablation row");
  return row->run.ipc();
}

/// Sweep one SimParams knob over `values` for two COPIFT kernels and print
/// one line per value (the same list drives the sweep and the report, so
/// they cannot diverge).
template <typename Apply>
void knob_sweep(engine::SimEngine& pool, const char* label, std::string_view a,
                std::string_view b, std::initializer_list<unsigned> values, Apply&& apply) {
  engine::Experiment e;
  e.over({a, b}).over(Variant::kCopift).n(1920).block(96);
  for (const unsigned v : values) {
    sim::SimParams p;
    apply(p, v);
    e.with_params(std::to_string(v), p);
  }
  const auto t = e.run(pool);
  for (const unsigned v : values) {
    std::printf("  %s %2u: %s %.3f  %s %.3f\n", label, v,
                std::string(a).c_str(), ipc_of(t, a, Variant::kCopift, std::to_string(v)),
                std::string(b).c_str(), ipc_of(t, b, Variant::kCopift, std::to_string(v)));
  }
}

}  // namespace

int main(int argc, char** argv) {
  engine::SimEngine pool(bench::parse_threads(argc, argv));
  std::printf("Ablations: COPIFT IPC sensitivity to the modeled mechanisms\n\n");

  std::printf("[offload FIFO depth] (decoupling between integer core and FPSS)\n");
  knob_sweep(pool, "depth", "exp", "pi_lcg", {2u, 4u, 8u, 16u},
             [](sim::SimParams& p, unsigned v) { p.offload_fifo_depth = v; });

  std::printf("\n[SSR config latency] (per-block lane-arming cost, drives Fig. 3)\n");
  knob_sweep(pool, "latency", "exp", "poly_lcg", {1u, 5u, 10u, 20u},
             [](sim::SimParams& p, unsigned v) { p.ssr_cfg_latency = v; });

  std::printf("\n[FPU FMA latency] (dependency chains inside FREP bodies)\n");
  knob_sweep(pool, "latency", "poly_lcg", "log", {2u, 3u, 4u, 6u}, [](sim::SimParams& p, unsigned v) {
               p.fpu.fma = v;
               p.fpu.add = v;
               p.fpu.mul = v;
             });

  std::printf("\n[TCDM banks] (SSR/LSU bank conflicts)\n");
  knob_sweep(pool, "banks", "exp", "log", {2u, 4u, 8u, 32u},
             [](sim::SimParams& p, unsigned v) { p.num_tcdm_banks = v; });

  std::printf("\n[SSR FIFO depth] (stream prefetch slack)\n");
  knob_sweep(pool, "depth", "exp", "pi_lcg", {1u, 2u, 4u, 8u},
             [](sim::SimParams& p, unsigned v) { p.ssr_fifo_depth = v; });

  std::printf("\n[mul latency] (the LCG writeback-port hazard, paper Section III-A)\n");
  {
    const std::initializer_list<unsigned> lats = {1u, 2u, 3u, 5u};
    engine::Experiment e;
    e.over("pi_lcg")
        .over({Variant::kBaseline, Variant::kCopift})
        .n(1920)
        .block(96);
    for (const unsigned lat : lats) {
      sim::SimParams p;
      p.mul_latency = lat;
      e.with_params(std::to_string(lat), p);
    }
    const auto t = e.run(pool);
    for (const unsigned lat : lats) {
      const auto* base = t.find("pi_lcg", Variant::kBaseline, 0, 0, std::to_string(lat));
      const auto* cop = t.find("pi_lcg", Variant::kCopift, 0, 0, std::to_string(lat));
      if (base == nullptr || cop == nullptr) throw Error("missing ablation row");
      std::printf("  latency %u: pi_lcg base %.3f copift %.3f (speedup %.2fx, wb stalls %llu)\n",
                  lat, base->run.ipc(), cop->run.ipc(),
                  static_cast<double>(base->run.region.cycles) / cop->run.region.cycles,
                  static_cast<unsigned long long>(
                      cop->run.region.slot(sim::StallCause::kIntWbPort)));
    }
  }
  return 0;
}
