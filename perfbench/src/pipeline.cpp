#include "pipeline.hpp"

#include <cstdio>
#include <vector>

#include "common/error.hpp"
#include "energy/energy.hpp"
#include "lint/lint.hpp"
#include "rvasm/assembler.hpp"
#include "sim/cluster.hpp"
#include "sim/decode.hpp"

namespace perfbench {

using namespace copift;

namespace {

sim::ActivityCounters region_delta(const std::vector<sim::RegionEvent>& regions) {
  const sim::RegionEvent* begin = nullptr;
  const sim::RegionEvent* end = nullptr;
  for (const auto& r : regions) {
    if (r.id == 1) begin = &r;
    if (r.id == 2) end = &r;
  }
  if (begin == nullptr || end == nullptr) throw Error("program did not emit region markers 1 and 2");
  return end->snapshot.minus(begin->snapshot);
}

}  // namespace

std::string describe(const PointSpec& spec) {
  const auto& c = spec.config;
  return spec.workload->name() + " " + workload::variant_name(spec.variant) +
         " n=" + std::to_string(c.n) + " block=" + std::to_string(c.block) +
         " cores=" + std::to_string(c.cores) + " tile=" + std::to_string(c.tile) +
         " seed=" + std::to_string(c.seed);
}

std::string digest_line(const std::string& point, std::uint64_t cycles, std::uint64_t retired,
                        double energy_pj) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), " cycles=%llu retired=%llu energy_pj=%.17g",
                static_cast<unsigned long long>(cycles), static_cast<unsigned long long>(retired),
                energy_pj);
  return point + buf;
}

PointResult run_pipeline(const PointSpec& spec, Trace& trace, bool strict_lint) {
  workload::GeneratedWorkload generated;
  {
    Span span(trace, "workload.generate");
    generated = spec.workload->instantiate(spec.variant, spec.config);
  }
  std::shared_ptr<const rvasm::Program> program;
  {
    Span span(trace, "rvasm.assemble");
    program = std::make_shared<const rvasm::Program>(rvasm::assemble(generated.source));
  }
  PointResult out;
  if (strict_lint) {
    lint::LintReport report;
    {
      Span span(trace, "lint.lint");
      report = lint::lint_program(*program, spec.config.cores);
    }
    out.lint_diags = report.diags.size();
    if (!report.clean()) throw Error("lint: " + describe(spec) + ":\n" + report.summary());
  }
  std::shared_ptr<const sim::DecodedProgram> decoded;
  {
    Span span(trace, "sim.decode");
    decoded = sim::DecodedProgram::get(program);
  }
  sim::SimParams params = spec.params;
  params.num_cores = spec.config.cores;
  std::unique_ptr<sim::Cluster> cluster;
  {
    Span span(trace, "sim.build");
    cluster = std::make_unique<sim::Cluster>(program, params);
  }
  {
    Span span(trace, "workload.populate");
    spec.workload->populate_inputs(*cluster, spec.config);
  }
  sim::RunResult run;
  {
    Span span(trace, "sim.run");
    run = cluster->run();
  }
  if (!run.halted) throw Error(describe(spec) + ": did not halt");
  {
    Span span(trace, "workload.verify");
    spec.workload->verify_outputs(*cluster, spec.variant, spec.config);
  }
  {
    Span span(trace, "energy.evaluate");
    const energy::EnergyModel model;
    if (cluster->num_cores() == 1) {
      out.energy_pj = model.evaluate(region_delta(cluster->regions())).total_pj;
    } else {
      std::vector<sim::ActivityCounters> harts;
      for (unsigned h = 0; h < cluster->num_cores(); ++h) {
        harts.push_back(region_delta(cluster->complex(h).regions()));
      }
      out.energy_pj = energy::sum_reports(model.evaluate_harts(harts)).total_pj;
    }
  }
  out.cycles = run.cycles;
  out.hart_cycles = run.cycles * cluster->num_cores();
  out.total = cluster->counters();
  out.retired = out.total.retired();
  out.skipped_cycles = cluster->skipped_cycles();
  out.skip_jumps = cluster->skip_jumps();
  {
    Span span(trace, "sim.teardown");
    cluster.reset();
    decoded.reset();
    program.reset();
  }
  return out;
}

}  // namespace perfbench
