#include "kernels/runner.hpp"

#include <cmath>

#include "common/error.hpp"
#include "kernels/prng.hpp"
#include "lint/lint.hpp"
#include "rvasm/assembler.hpp"

namespace copift::kernels {

std::vector<double> exp_inputs(std::uint32_t n, std::uint32_t seed) {
  Lcg gen(seed ^ 0xE0E0E0E0u);
  std::vector<double> x(n);
  for (auto& v : x) v = to_unit_double(gen.next()) * 2.0 - 1.0;  // [-1, 1)
  return x;
}

std::vector<float> log_inputs(std::uint32_t n, std::uint32_t seed) {
  Lcg gen(seed ^ 0x10601060u);
  std::vector<float> x(n);
  for (auto& v : x) {
    v = static_cast<float>(0.25 + to_unit_double(gen.next()) * 3.75);  // [0.25, 4)
  }
  return x;
}

void populate_inputs(sim::Cluster& cluster, const GeneratedKernel& kernel) {
  if (kernel.workload == nullptr) throw Error("populate_inputs: kernel has no workload");
  kernel.workload->populate_inputs(cluster, kernel.config);
}

void verify_outputs(sim::Cluster& cluster, const GeneratedKernel& kernel) {
  if (kernel.workload == nullptr) throw Error("verify_outputs: kernel has no workload");
  kernel.workload->verify_outputs(cluster, kernel.variant, kernel.config);
}

std::shared_ptr<const rvasm::Program> assemble_kernel(const GeneratedKernel& kernel) {
  auto program = std::make_shared<const rvasm::Program>(rvasm::assemble(kernel.source));
  // Every generated program funnels through here (CLI single runs, engine
  // sweeps, serve jobs), so this is the one post-assembly lint hook.
  lint::pipeline_check(*program, kernel.config.cores, kernel.name());
  return program;
}

KernelRun run_kernel(const GeneratedKernel& kernel, const sim::SimParams& params, bool verify) {
  return run_kernel(kernel, assemble_kernel(kernel), params, verify);
}

namespace {

/// Delta between region markers 1 and 2 of one hart's region stream.
sim::ActivityCounters region_delta(const std::vector<sim::RegionEvent>& regions,
                                   unsigned hart) {
  const sim::RegionEvent* begin = nullptr;
  const sim::RegionEvent* end = nullptr;
  for (const auto& r : regions) {
    if (r.id == 1) begin = &r;
    if (r.id == 2) end = &r;
  }
  if (begin == nullptr || end == nullptr) {
    throw Error("kernel did not emit region markers 1 and 2 on hart " + std::to_string(hart));
  }
  return end->snapshot.minus(begin->snapshot);
}

}  // namespace

KernelRun run_kernel(const GeneratedKernel& kernel,
                     std::shared_ptr<const rvasm::Program> program,
                     const sim::SimParams& params, bool verify) {
  // The workload config owns the hart count: the generated program encodes
  // its partitioning, so the topology must match it exactly.
  sim::SimParams run_params = params;
  run_params.num_cores = kernel.config.cores;
  sim::Cluster cluster(std::move(program), run_params);
  populate_inputs(cluster, kernel);
  KernelRun out;
  out.result = cluster.run();
  out.total = cluster.counters();
  const energy::EnergyModel model;
  if (cluster.num_cores() == 1) {
    out.region = region_delta(cluster.regions(), 0);
    out.region_energy = model.evaluate(out.region);
  } else {
    // Per-hart attribution: each hart's own marker-1..2 window, summed into
    // the aggregate (cycles = the slowest hart's window).
    out.hart_region.reserve(cluster.num_cores());
    for (unsigned h = 0; h < cluster.num_cores(); ++h) {
      out.hart_region.push_back(region_delta(cluster.complex(h).regions(), h));
    }
    out.region = sim::ActivityCounters{};
    for (const auto& r : out.hart_region) out.region = out.region.plus(r);
    out.hart_energy = model.evaluate_harts(out.hart_region);
    out.region_energy = energy::sum_reports(out.hart_energy);
  }
  if (verify) {
    verify_outputs(cluster, kernel);
    out.verified = true;
  }
  return out;
}

SteadyMetrics steady_from_runs(const KernelRun& r1, const KernelRun& r2, std::uint64_t items1,
                               std::uint64_t items2) {
  if (items2 <= items1) throw Error("steady_from_runs requires items2 > items1");
  SteadyMetrics m;
  const auto dc = r2.region.cycles - r1.region.cycles;
  const auto di = r2.region.retired() - r1.region.retired();
  const double de = r2.region_energy.total_pj - r1.region_energy.total_pj;
  const auto d_items = static_cast<double>(items2 - items1);
  m.delta_cycles = dc;
  m.ipc = dc == 0 ? 0.0 : static_cast<double>(di) / static_cast<double>(dc);
  m.power_mw = dc == 0 ? 0.0 : de / static_cast<double>(dc);
  m.cycles_per_item = static_cast<double>(dc) / d_items;
  m.energy_pj_per_item = de / d_items;
  return m;
}

}  // namespace copift::kernels
