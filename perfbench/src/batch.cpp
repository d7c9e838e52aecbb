// The batch workloads: paper_fig2 (the engine's steady-state Fig. 2c sweep),
// cold_pipeline (the uncached single-point chain over the whole registry) and
// tiled_dram (DMA/DRAM-bound tiled runs). Each run times `--seconds` worth
// of rounds after its set-up and one untimed warm-up round. A traced run
// interleaves traced and untraced rounds, so trace.overhead_pct compares
// like with like under the same host conditions.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <thread>

#include "affinity.hpp"
#include "engine/experiment.hpp"
#include "pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace copift;
using workload::Variant;

namespace {

constexpr std::uint32_t kN1 = 1920;
constexpr std::uint32_t kN2 = 3840;
constexpr std::uint32_t kPaperBlock = 96;
constexpr std::uint32_t kPaperCores[] = {1, 4};
constexpr std::string_view kPaperOrder[] = {
    "pi_xoshiro128p", "poly_xoshiro128p", "pi_lcg", "poly_lcg", "log", "exp",
};
constexpr Variant kVariants[] = {Variant::kBaseline, Variant::kCopift};
// Paper Fig. 2c geomeans, the only reference results the model is validated against.
constexpr double kPaperSpeedup = 1.47;
constexpr double kPaperEnergy = 1.37;
constexpr std::size_t kMinRounds = 3;
/// After each timed operation the reference workload runs, outside the
/// timing, for this share of the operation's time, and the operation's time
/// is scaled by the host speed it measured (see host_speed.hpp).
constexpr double kReferenceShare = 0.25;

/// Unscaled operation times and the host-speed scale applied to each.
struct HostSpeedLog {
  std::vector<double> raw_s;
  std::vector<double> scales;

  void add(double seconds, double scale) {
    raw_s.push_back(seconds);
    scales.push_back(scale);
  }

  /// The host's median speed against the reference host, and the unscaled
  /// throughput, for a run whose operations each complete `points` points.
  [[nodiscard]] std::string note(double points, const char* what) const {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "host speed: x%.3f of the reference host (median of %zu samples, %.3f-%.3f); "
                  "unscaled %s median %.3f ms, %.4g points/s",
                  median(scales), scales.size(),
                  scales.empty() ? 0.0 : *std::min_element(scales.begin(), scales.end()),
                  scales.empty() ? 0.0 : *std::max_element(scales.begin(), scales.end()), what,
                  median(raw_s) * 1e3, raw_s.empty() ? 0.0 : points / median(raw_s));
    return buf;
  }
};

std::uint32_t mix_seed(std::uint32_t seed, std::uint64_t salt) {
  std::uint64_t z = (static_cast<std::uint64_t>(seed) << 32) ^ (salt + 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<std::uint32_t>(z) | 1U;
}

engine::Experiment paper_experiment(std::uint32_t seed, std::span<const std::uint32_t> cores) {
  engine::Experiment exp;
  exp.over(std::span<const std::string_view>(kPaperOrder))
      .over(std::span<const Variant>(kVariants))
      .block(kPaperBlock)
      .seed(seed)
      .sweep_cores(cores)
      .steady(kN1, kN2)
      .verify(true);
  return exp;
}

struct Accuracy {
  double speedup = 0.0;
  double energy = 0.0;
};

/// fig2c_speedup_energy's geomeans, over the cores=1 rows of a steady table.
Accuracy accuracy_of(const engine::ResultTable& table) {
  double log_speedup = 0.0;
  double log_energy = 0.0;
  for (const auto name : kPaperOrder) {
    const auto* base = table.find(name, Variant::kBaseline, 0, 0, {}, 1);
    const auto* cop = table.find(name, Variant::kCopift, 0, 0, {}, 1);
    if (base == nullptr || cop == nullptr) throw Error("paper_fig2: missing cores=1 row");
    log_speedup += std::log(base->metrics.cycles_per_item / cop->metrics.cycles_per_item);
    log_energy += std::log(base->metrics.energy_pj_per_item / cop->metrics.energy_pj_per_item);
  }
  const double n = std::size(kPaperOrder);
  return {std::exp(log_speedup / n), std::exp(log_energy / n)};
}

void set_accuracy(Outcome& out, const Accuracy& acc) {
  out.e2e.speedup_err_pct = 100.0 * std::abs(acc.speedup - kPaperSpeedup) / kPaperSpeedup;
  out.e2e.energy_err_pct = 100.0 * std::abs(acc.energy - kPaperEnergy) / kPaperEnergy;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "accuracy (cores=1): geomean speedup %.2fx (paper 1.47x), energy %.2fx "
                "(paper 1.37x) [%.6f / %.6f]",
                acc.speedup, acc.energy, acc.speedup, acc.energy);
  out.notes.emplace_back(buf);
}

/// Simulated-statistics totals over the points of one round.
struct SimTotals {
  std::uint64_t points = 0;
  std::uint64_t cycles = 0;
  std::uint64_t hart_cycles = 0;
  std::uint64_t retired = 0;
  std::uint64_t skipped = 0;
  std::uint64_t jumps = 0;
  std::uint64_t tcdm_conflicts = 0;
  std::uint64_t dma_busy = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t lint_diags = 0;

  void add(const PointResult& r) {
    ++points;
    cycles += r.cycles;
    hart_cycles += r.hart_cycles;
    retired += r.retired;
    skipped += r.skipped_cycles;
    jumps += r.skip_jumps;
    tcdm_conflicts += r.total.tcdm_conflicts;
    dma_busy += r.total.dma_busy_cycles;
    row_hits += r.total.dram_row_hits;
    row_misses += r.total.dram_row_misses;
    lint_diags += r.lint_diags;
  }

  void set_layers(LayerValues& layers) const {
    const auto ratio = [](std::uint64_t a, std::uint64_t b) {
      return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
    };
    layers.set("sim.ipc", ratio(retired, hart_cycles));
    layers.set("sim.skipped_ratio", ratio(skipped, cycles));
    layers.set("sim.skip_jumps", static_cast<double>(jumps));
    layers.set("mem.tcdm_conflicts_per_kcycle", 1000.0 * ratio(tcdm_conflicts, hart_cycles));
    layers.set("mem.dma_busy_ratio", ratio(dma_busy, cycles));
    layers.set("mem.dram_row_hit_ratio", ratio(row_hits, row_hits + row_misses));
    layers.set("lint.diags", static_cast<double>(lint_diags));
  }
};

/// Per-layer timings gathered over the traced rounds of a run.
class TracedRounds {
 public:
  /// Account the spans recorded since `first`, a round of `points` points
  /// simulating `hart_cycles` hart-cycles.
  void add(const Trace& trace, std::size_t first, std::uint64_t points,
           std::uint64_t hart_cycles) {
    const auto totals = trace.totals_ns(first);
    for (const auto& [name, ns] : totals) per_point_ns_[name].push_back(ns / static_cast<double>(points));
    const auto run = totals.find("sim.run");
    if (run != totals.end() && hart_cycles > 0) {
      sim_ns_per_hart_cycle_.push_back(run->second / static_cast<double>(hart_cycles));
    }
    const auto layers = trace.layer_times(first);
    for (const auto& [layer, ns] : layers.self_ns) self_ns_.self_ns[layer] += ns;
    self_ns_.root_ns += layers.root_ns;
  }

  void set_layers(LayerValues& layers) const {
    static constexpr std::pair<const char*, const char*> kSpanMetrics[] = {
        {"workload.generate", "workload.generate_us"}, {"rvasm.assemble", "rvasm.assemble_us"},
        {"lint.lint", "lint.lint_us"},                 {"sim.decode", "sim.decode_us"},
        {"sim.build", "sim.build_us"},                 {"workload.populate", "workload.populate_us"},
        {"workload.verify", "workload.verify_us"},     {"energy.evaluate", "energy.evaluate_us"},
        {"sim.teardown", "sim.teardown_us"},
    };
    for (const auto& [span, metric] : kSpanMetrics) {
      const auto it = per_point_ns_.find(span);
      if (it != per_point_ns_.end()) layers.set(metric, median(it->second) / 1e3);
    }
    if (const auto it = per_point_ns_.find("sim.run"); it != per_point_ns_.end()) {
      layers.set("sim.run_ms", median(it->second) / 1e6);
    }
    layers.set("sim.ns_per_hart_cycle", median(sim_ns_per_hart_cycle_));
    layers.set_shares(self_ns_);
  }

  [[nodiscard]] const Trace::LayerTimes& self() const noexcept { return self_ns_; }

 private:
  std::map<std::string, std::vector<double>> per_point_ns_;
  std::vector<double> sim_ns_per_hart_cycle_;
  Trace::LayerTimes self_ns_;
};

void set_overhead(Outcome& out, const std::vector<double>& traced_s,
                  const std::vector<double>& untraced_s) {
  if (traced_s.empty() || untraced_s.empty()) return;
  out.layers.set("trace.overhead_pct", 100.0 * (median(traced_s) / median(untraced_s) - 1.0));
}

void run_points(std::span<const PointSpec> points, Trace& trace, bool strict_lint,
                Outcome& out, SimTotals* totals, std::vector<double>* latencies_ms,
                std::vector<PointResult>* results) {
  for (const auto& spec : points) {
    ++out.attempted;
    try {
      const auto t0 = Clock::now();
      const PointResult r = run_pipeline(spec, trace, strict_lint);
      if (latencies_ms != nullptr) latencies_ms->push_back(seconds_between(t0, Clock::now()) * 1e3);
      if (totals != nullptr) totals->add(r);
      if (results != nullptr) results->push_back(r);
    } catch (const std::exception& e) {
      ++out.failed;
      std::fprintf(stderr, "FAIL %s: %s\n", describe(spec).c_str(), e.what());
      if (results != nullptr) results->emplace_back();  // keep indices aligned with `points`
    }
  }
}

/// Validated point for `name`/`variant` at `config`, trying `blocks` in order.
bool resolve(const std::shared_ptr<const workload::Workload>& wl, Variant variant,
             workload::WorkloadConfig config, std::initializer_list<std::uint32_t> blocks,
             const sim::SimParams& params, PointSpec& out) {
  for (const auto block : blocks) {
    config.block = block;
    try {
      wl->validate(variant, config);
    } catch (const workload::ConfigError&) {
      continue;
    }
    out = PointSpec{wl, variant, config, params};
    return true;
  }
  return false;
}

// --- paper_fig2 ---------------------------------------------------------------

std::vector<PointSpec> paper_points(std::uint32_t seed) {
  std::vector<PointSpec> points;
  const auto& registry = workload::WorkloadRegistry::instance();
  for (const auto name : kPaperOrder) {
    for (const auto variant : kVariants) {
      for (const auto cores : kPaperCores) {
        for (const auto n : {kN1, kN2}) {
          workload::WorkloadConfig config;
          config.n = n;
          config.seed = seed;
          config.cores = cores;
          PointSpec spec;
          if (!resolve(registry.at(name), variant, config, {kPaperBlock}, {}, spec)) {
            throw Error("paper_fig2: invalid point " + std::string(name));
          }
          points.push_back(std::move(spec));
        }
      }
    }
  }
  return points;
}

/// Compare a fresh engine table against the reference one, row by row.
std::size_t mismatched_rows(const engine::ResultTable& ref, const engine::ResultTable& table) {
  std::size_t bad = ref.size() > table.size() ? ref.size() - table.size() : 0;
  for (std::size_t i = 0; i < std::min(ref.size(), table.size()); ++i) {
    const auto& a = ref.at(i).run;
    const auto& b = table.at(i).run;
    if (!b.verified || a.result.cycles != b.result.cycles || a.total.retired() != b.total.retired() ||
        a.region_energy.total_pj != b.region_energy.total_pj) {
      ++bad;
    }
  }
  return bad;
}

}  // namespace

std::string coverage_note(const Trace::LayerTimes& t) {
  double layers = 0.0;
  for (const auto& [layer, ns] : t.self_ns) {
    if (layer != "bench") layers += ns;
  }
  const double pct = t.root_ns > 0.0 ? 100.0 * layers / t.root_ns : 0.0;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "trace: layer self times cover %.2f%% of the traced wall (%.3f s) -> %s", pct,
                t.root_ns / 1e9, std::abs(100.0 - pct) <= 5.0 ? "within 5%" : "NOT within 5%");
  return buf;
}

unsigned pool_threads() {
  return std::clamp(std::thread::hardware_concurrency(), 1U, 4U);
}

void set_latency(Outcome& out, const std::vector<double>& latencies_ms, const std::string& what) {
  const Summary s = summarize(latencies_ms);
  out.notes.push_back(what + " latency [ms]: " + s.format());
  out.e2e.p50_ms = s.median;
  const double pct = tail_percentile(latencies_ms.size(), 99.0);
  if (pct == 0.0) return;  // a traced run, which reports no end-to-end metrics
  std::vector<double> sorted = latencies_ms;
  std::sort(sorted.begin(), sorted.end());
  out.e2e.p99_ms = percentile(sorted, pct);
  char buf[128];
  std::snprintf(buf, sizeof(buf), "p99_ms is p%.4g of %zu samples (%zu beyond)", pct,
                sorted.size(), samples_beyond(sorted.size(), pct));
  out.notes.emplace_back(buf);
}

void measure_accuracy(Outcome& out, std::uint32_t seed) {
  engine::SimEngine pool(pool_threads());
  constexpr std::uint32_t kOneCore[] = {1};
  set_accuracy(out, accuracy_of(paper_experiment(seed, kOneCore).run(pool)));
}

Outcome run_paper_fig2(const Options& opt, Trace& trace) {
  Outcome out;
  const unsigned threads = pool_threads();
  std::unique_ptr<engine::SimEngine> pool;
  std::vector<PointSpec> probe;
  out.e2e.setup_s = median_setup([&] {
    pool.reset();
    const auto t0 = Clock::now();
    pool = std::make_unique<engine::SimEngine>(threads);
    probe = paper_points(opt.seed);
    return seconds_between(t0, Clock::now());
  });

  // Warm-up: one engine sweep (the reference table) and one serial probe
  // pass, which yields the round's hart-cycles and cross-checks the
  // benchmark's own pipeline against the engine, point for point.
  const std::uint64_t sims_per_round = probe.size();
  engine::ResultTable ref;
  try {
    ref = paper_experiment(opt.seed, kPaperCores).run(*pool);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL paper_fig2 warm-up sweep: %s\n", e.what());
    out.attempted += sims_per_round;
    out.failed += sims_per_round;
    return out;
  }
  out.attempted += sims_per_round;
  out.failed += 2 * mismatched_rows(ref, ref);  // unverified reference rows
  SimTotals totals;
  std::vector<PointResult> probe_results;
  run_points(probe, trace, false, out, &totals, nullptr, &probe_results);
  for (std::size_t i = 0; i < probe.size() && i < probe_results.size(); ++i) {
    const auto& spec = probe[i];
    if (spec.config.n != kN2) continue;
    const auto* row = ref.find(spec.workload->name(), spec.variant, 0, 0, {}, spec.config.cores);
    if (row == nullptr || row->run.result.cycles != probe_results[i].cycles ||
        row->run.region_energy.total_pj != probe_results[i].energy_pj) {
      ++out.failed;
      std::fprintf(stderr, "FAIL %s: benchmark pipeline disagrees with the engine\n",
                   describe(spec).c_str());
    }
  }
  for (const auto& row : ref.rows()) {
    char point[128];
    std::snprintf(point, sizeof(point), "paper_fig2 %s %s n=%u block=%u cores=%u seed=%u",
                  row.point.name().c_str(), workload::variant_name(row.point.variant), kN2,
                  row.point.config.block, row.point.config.cores, row.point.config.seed);
    out.digest.push_back(digest_line(point, row.run.result.cycles, row.run.total.retired(),
                                     row.run.region_energy.total_pj));
  }
  set_accuracy(out, accuracy_of(ref));

  std::vector<double> batch_ms;  // scaled by host speed
  HostSpeedLog host;
  std::vector<double> traced_probe_s;
  std::vector<double> probe_s;
  TracedRounds traced;
  const auto deadline = Clock::now() + std::chrono::duration<double>(opt.seconds);
  for (std::size_t r = 0; r < kMinRounds || Clock::now() < deadline ||
                          (!opt.trace && batch_ms.size() < kMinLatencySamples);
       ++r) {
    const std::size_t kind = opt.trace ? r % 3 : 0;
    if (kind == 0) {
      out.attempted += sims_per_round;
      const auto t0 = Clock::now();
      try {
        const auto table = paper_experiment(opt.seed, kPaperCores).run(*pool);
        const double s = seconds_between(t0, Clock::now());
        const double scale = run_reference_parallel(kReferenceShare * s, threads).scale();
        batch_ms.push_back(s * scale * 1e3);
        host.add(s, scale);
        out.failed += 2 * mismatched_rows(ref, table);
      } catch (const std::exception& e) {
        out.failed += sims_per_round;
        std::fprintf(stderr, "FAIL paper_fig2 sweep: %s\n", e.what());
      }
      continue;
    }
    const bool traced_round = kind == 1;
    trace.set_enabled(traced_round);
    const std::size_t first = trace.size();
    const auto t0 = Clock::now();
    {
      Span round(trace, "bench.round");
      run_points(probe, trace, false, out, nullptr, nullptr, nullptr);
    }
    (traced_round ? traced_probe_s : probe_s).push_back(seconds_between(t0, Clock::now()));
    if (traced_round) traced.add(trace, first, sims_per_round, totals.hart_cycles);
    trace.set_enabled(false);
  }

  out.e2e.peak_rss_mb = peak_rss_mb();
  const double batch_median_ms = median(batch_ms);
  set_latency(out, batch_ms, "engine sweep round");
  out.e2e.points_per_s = static_cast<double>(sims_per_round) / (batch_median_ms / 1e3);
  out.e2e.ns_per_hart_cycle = batch_median_ms * 1e6 / static_cast<double>(totals.hart_cycles);
  out.notes.push_back(host.note(static_cast<double>(sims_per_round), "engine sweep"));

  totals.set_layers(out.layers);
  const double raw_batch_ms = median(host.raw_s) * 1e3;
  out.layers.set("engine.batch_ms", raw_batch_ms);
  if (opt.trace) {
    traced.set_layers(out.layers);
    set_overhead(out, traced_probe_s, probe_s);
    out.layers.set("engine.parallel_efficiency",
                   median(probe_s) * 1e3 / (static_cast<double>(threads) * raw_batch_ms));
    out.notes.push_back(coverage_note(traced.self()));
  }
  return out;
}

// --- cold_pipeline / tiled_dram -------------------------------------------------

namespace {

/// A workload made of independent single-point pipelines run serially.
struct PipelineWorkload {
  const char* name;
  bool fresh_seeds;  // every pipeline of every round gets its own seed
  // For a round of a few long points: p50/p99 over whole rounds instead of
  // single pipelines, since the points differ so much in size that a
  // per-point median would jump between configurations; and the CPU
  // rotation moves on at every point, so each round samples every vCPU.
  bool long_points;
  std::vector<PointSpec> (*enumerate)(std::uint32_t seed);
};

std::vector<PointSpec> cold_points(std::uint32_t seed) {
  std::vector<PointSpec> points;
  const auto& registry = workload::WorkloadRegistry::instance();
  for (const auto& name : registry.names()) {
    const auto wl = registry.at(name);
    for (const auto variant : wl->variants()) {
      for (const std::uint32_t cores : {1U, 4U}) {
        workload::WorkloadConfig config;
        config.n = 64;
        config.seed = seed;
        config.cores = cores;
        PointSpec spec;
        // Splits into exactly two blocks per hart come last: exp/copift faults
        // on them (unmapped access at the end of TCDM, e.g. n=64 block=32).
        if (resolve(wl, variant, config, {wl->default_config().block, 16, 4, 32, 8}, {}, spec)) {
          points.push_back(std::move(spec));
        }
      }
    }
  }
  return points;
}

std::vector<PointSpec> tiled_points(std::uint32_t seed) {
  std::vector<PointSpec> points;
  const auto& registry = workload::WorkloadRegistry::instance();
  sim::SimParams params;
  params.dram_enabled = true;
  for (const auto& name : registry.names()) {
    const auto wl = registry.at(name);
    for (const auto variant : wl->variants()) {
      if (!wl->tiled_capable(variant)) continue;
      workload::WorkloadConfig config;
      config.n = 65536;
      config.tile = 1024;
      config.cores = 2;
      config.seed = seed;
      PointSpec spec;
      if (!resolve(wl, variant, config, {wl->default_config().block, 64, 32, 128, 16}, params,
                   spec)) {
        throw Error("tiled_dram: no valid block for " + name);
      }
      points.push_back(std::move(spec));
    }
  }
  return points;
}

Outcome run_pipelines(const PipelineWorkload& w, const Options& opt, Trace& trace) {
  Outcome out;
  std::vector<PointSpec> points;
  const auto enumerate_into = [&](std::vector<PointSpec>& into) {
    into.clear();
    const auto t0 = Clock::now();
    into = w.enumerate(opt.seed);
    return seconds_between(t0, Clock::now());
  };
  // Set-up takes microseconds here, so its samples are spread over the run:
  // half before the window, then one after each round (outside its timing),
  // as the vCPUs' speeds drift over seconds.
  std::vector<double> setups;
  {
    const CpuRotation setup_cpus;
    for (int k = 0; k < kSetupSamples / 2; ++k) {
      setup_cpus.pin(static_cast<std::size_t>(k));
      setups.push_back(setup_sample([&] { return enumerate_into(points); }));
    }
  }
  if (points.empty()) throw Error(std::string(w.name) + ": no valid configuration");
  std::vector<PointSpec> spare;

  const auto reseed = [&](std::size_t round) {
    if (!w.fresh_seeds) return;
    for (std::size_t i = 0; i < points.size(); ++i) {
      points[i].config.seed = mix_seed(opt.seed, round * points.size() + i);
    }
  };

  // Warm-up round: its results are the digest and, for fixed-seed workloads,
  // the reference every later round must reproduce exactly.
  reseed(0);
  SimTotals totals;
  std::vector<PointResult> ref;
  run_points(points, trace, true, out, &totals, nullptr, &ref);
  for (std::size_t i = 0; i < points.size() && i < ref.size(); ++i) {
    out.digest.push_back(digest_line(std::string(w.name) + " " + describe(points[i]),
                                     ref[i].cycles, ref[i].retired, ref[i].energy_pj));
  }
  if (out.failed > 0) return out;

  std::vector<double> round_s;  // scaled by host speed
  HostSpeedLog host;
  std::vector<double> traced_s;
  std::vector<double> ns_per_hart_cycle;
  std::vector<double> latencies_ms;
  TracedRounds traced;
  {
    // Scoped: threads spawned after the window (the accuracy pool) must not
    // inherit a one-CPU affinity mask.
    const CpuRotation cpus;
    const auto deadline = Clock::now() + std::chrono::duration<double>(opt.seconds);
    for (std::size_t r = 0; r < kMinRounds || Clock::now() < deadline ||
                            (!opt.trace && latencies_ms.size() < kMinLatencySamples);
         ++r) {
      reseed(r + 1);
      // A traced run pins each traced round and the untraced one after it to
      // the same CPUs, so trace.overhead_pct compares like with like.
      const std::size_t slot = opt.trace ? r / 2 : r;
      cpus.pin(slot);
      const bool traced_round = opt.trace && r % 2 == 0;
      trace.set_enabled(traced_round);
      const std::size_t first = trace.size();
      SimTotals round_totals;
      std::vector<PointResult> results;
      const std::size_t first_latency = latencies_ms.size();
      // Host speed for this round, measured on the CPU each part of it ran
      // on; traced rounds skip it, as they report no scaled times.
      ReferenceTime speed;
      double s = 0.0;
      {
        Span round(trace, "bench.round");
        for (std::size_t i = 0; i < points.size(); ++i) {
          if (w.long_points) cpus.pin(slot + i);
          const auto t0 = Clock::now();
          run_points({&points[i], 1}, trace, true, out, &round_totals,
                     traced_round || w.long_points ? nullptr : &latencies_ms,
                     w.fresh_seeds ? nullptr : &results);
          const double point_s = seconds_between(t0, Clock::now());
          s += point_s;
          if (w.long_points && !traced_round) speed += run_reference(kReferenceShare * point_s);
        }
      }
      trace.set_enabled(false);
      if (!w.long_points && !traced_round) speed = run_reference(kReferenceShare * s);
      const double scale = speed.scale();
      for (std::size_t i = first_latency; i < latencies_ms.size(); ++i) latencies_ms[i] *= scale;
      setups.push_back(setup_sample([&] { return enumerate_into(spare); }));
      for (std::size_t i = 0; i < results.size() && i < ref.size(); ++i) {
        if (results[i].cycles != ref[i].cycles || results[i].retired != ref[i].retired ||
            results[i].energy_pj != ref[i].energy_pj) {
          ++out.failed;
          std::fprintf(stderr, "FAIL %s: round %zu differs from the reference round\n",
                       describe(points[i]).c_str(), r);
        }
      }
      if (traced_round) {
        traced_s.push_back(s);
        traced.add(trace, first, round_totals.points, round_totals.hart_cycles);
      } else {
        round_s.push_back(s * scale);
        host.add(s, scale);
        if (w.long_points) latencies_ms.push_back(s * scale * 1e3);
        if (round_totals.hart_cycles > 0) {
          ns_per_hart_cycle.push_back(s * scale * 1e9 /
                                      static_cast<double>(round_totals.hart_cycles));
        }
      }
    }
  }

  out.e2e.setup_s = median(setups);
  out.e2e.peak_rss_mb = peak_rss_mb();
  set_latency(out, latencies_ms, w.long_points ? "round" : "pipeline");
  out.e2e.points_per_s = static_cast<double>(points.size()) / median(round_s);
  out.e2e.ns_per_hart_cycle = median(ns_per_hart_cycle);
  out.notes.push_back(host.note(static_cast<double>(points.size()), "round"));
  measure_accuracy(out, opt.seed);

  totals.set_layers(out.layers);
  if (opt.trace) {
    traced.set_layers(out.layers);
    set_overhead(out, traced_s, host.raw_s);
    out.notes.push_back(coverage_note(traced.self()));
  }
  return out;
}

}  // namespace

Outcome run_cold_pipeline(const Options& opt, Trace& trace) {
  return run_pipelines({"cold_pipeline", true, false, cold_points}, opt, trace);
}

Outcome run_tiled_dram(const Options& opt, Trace& trace) {
  return run_pipelines({"tiled_dram", false, true, tiled_points}, opt, trace);
}

}  // namespace perfbench
