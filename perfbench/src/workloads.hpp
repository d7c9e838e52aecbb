// The four perfbench workloads and the metric sets every run reports.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "host_speed.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// End-to-end metrics; every workload reports all of them (see README.md for
/// what each one means on each workload).
struct EndToEnd {
  double setup_s = 0.0;
  double points_per_s = 0.0;
  double ns_per_hart_cycle = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double peak_rss_mb = 0.0;
  double speedup_err_pct = 0.0;
  double energy_err_pct = 0.0;

  void emit(MetricSet& out) const;
};

/// Per-layer metrics of a traced run. Every name in kLayerMetrics is always
/// reported; layers a workload does not exercise read 0.
struct LayerMetric {
  std::string_view name;
  std::string_view unit;
};
inline constexpr LayerMetric kLayerMetrics[] = {
    {"workload.generate_us", "us"}, {"rvasm.assemble_us", "us"},
    {"lint.lint_us", "us"},         {"lint.diags", "count"},
    {"sim.decode_us", "us"},        {"sim.build_us", "us"},
    {"workload.populate_us", "us"}, {"sim.run_ms", "ms"},
    {"workload.verify_us", "us"},   {"energy.evaluate_us", "us"},
    {"sim.teardown_us", "us"},      {"sim.ns_per_hart_cycle", "ns"},
    {"sim.ipc", "instr/cycle"},     {"sim.skipped_ratio", "ratio"},
    {"sim.skip_jumps", "count"},    {"mem.tcdm_conflicts_per_kcycle", "1/kcycle"},
    {"mem.dma_busy_ratio", "ratio"}, {"mem.dram_row_hit_ratio", "ratio"},
    {"engine.batch_ms", "ms"},      {"engine.parallel_efficiency", "ratio"},
    {"serve.accepted_ms", "ms"},    {"serve.result_ms", "ms"},
    {"serve.reply_bytes", "bytes"}, {"serve.client_parse_us", "us"},
    {"serve.hit_ratio", "ratio"},   {"serve.coalesced", "count"},
    {"serve.points_simulated", "count"}, {"loadgen.late_p99_ms", "ms"},
    {"trace.overhead_pct", "%"},    {"workload.share", "ratio"},
    {"rvasm.share", "ratio"},       {"lint.share", "ratio"},
    {"sim.share", "ratio"},         {"energy.share", "ratio"},
    {"serve.share", "ratio"},       {"loadgen.share", "ratio"},
    {"bench.share", "ratio"},
};

class LayerValues {
 public:
  /// Set a kLayerMetrics entry; throws on any other name.
  void set(std::string_view name, double value);
  /// Every kLayerMetrics entry, in order.
  void emit(MetricSet& out) const;
  /// `<layer>.share` for each traced layer: self time / traced wall.
  void set_shares(const Trace::LayerTimes& times);

 private:
  std::vector<std::pair<std::string_view, double>> values_;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  EndToEnd e2e;
  LayerValues layers;
  std::vector<std::string> digest;  // simulated statistics, one line per point
  std::vector<std::string> notes;   // human-readable timing summaries
};

Outcome run_paper_fig2(const Options& opt, Trace& trace);
Outcome run_cold_pipeline(const Options& opt, Trace& trace);
Outcome run_tiled_dram(const Options& opt, Trace& trace);
Outcome run_serve_mix(const Options& opt, Trace& trace);

/// Model accuracy (speedup_err_pct, energy_err_pct) for the workloads that
/// do not run the paper sweep in their window: recomputed after it, so every
/// run reports the same metric set.
void measure_accuracy(Outcome& out, std::uint32_t seed);

/// "layer self times cover X% of the traced wall": the check that the
/// traced layers account for the run's time to within 5%.
[[nodiscard]] std::string coverage_note(const Trace::LayerTimes& times);

/// Threads for engine pools: min(nproc, 4).
[[nodiscard]] unsigned pool_threads();

/// The process's peak resident memory so far, in MB. Each workload reads it
/// when its timed window ends, before the accuracy sweep some of them run.
[[nodiscard]] double peak_rss_mb();

/// p50_ms and p99_ms from a run's operation latencies, plus a note naming
/// the percentile p99_ms is: p99 with at least 1000 samples, else the
/// highest percentile that still has kMinBeyond samples beyond it.
void set_latency(Outcome& out, const std::vector<double>& latencies_ms, const std::string& what);

/// Operation latencies a measured run collects at least, so that p99_ms is
/// never below the median.
inline constexpr std::size_t kMinLatencySamples = 2 * kMinBeyond + 1;

/// setup_s is the median of this many set-up samples.
inline constexpr int kSetupSamples = 31;
/// Each sample repeats the set-up until this much time is spent in it and
/// takes the mean, so a set-up of microseconds rises above timer and
/// scheduler noise.
inline constexpr double kSetupSampleSeconds = 0.003;

/// The reference workload run after each set-up sample to scale it.
inline constexpr double kSetupReferenceSeconds = 0.001;

/// One set-up sample: the mean of `once()`, which performs one set-up and
/// returns its seconds, repeated for kSetupSampleSeconds, then scaled by the
/// host speed measured right after it (see host_speed.hpp).
template <class Once>
[[nodiscard]] double setup_sample(Once&& once) {
  double spent = 0.0;
  std::size_t reps = 0;
  do {
    spent += once();
    ++reps;
  } while (spent < kSetupSampleSeconds);
  return spent / static_cast<double>(reps) * run_reference(kSetupReferenceSeconds).scale();
}

/// setup_s: the median of kSetupSamples set-up samples.
template <class Once>
[[nodiscard]] double median_setup(Once&& once) {
  std::vector<double> samples;
  for (int k = 0; k < kSetupSamples; ++k) samples.push_back(setup_sample(once));
  return median(std::move(samples));
}

}  // namespace perfbench
