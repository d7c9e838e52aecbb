// Reporting helpers shared by every perfbench workload: timing summaries
// (median + the highest percentile with at least ten samples beyond it),
// the metric naming rule, and the one-line JSON result the benchmark ends
// its standard output with.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A tail percentile is reported only with at least this many samples beyond it.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the value at
/// 1-based rank ceil(pct/100 * n).
[[nodiscard]] double percentile(const std::vector<double>& sorted, double pct);

/// Samples strictly beyond the nearest-rank position of `pct` among `count`.
[[nodiscard]] std::size_t samples_beyond(std::size_t count, double pct);

/// The highest percentile, at most `cap`, that has at least kMinBeyond of
/// `count` samples beyond it: 100 * (count - kMinBeyond) / count, the
/// (kMinBeyond + 1)-th largest sample. 0 when count <= kMinBeyond.
[[nodiscard]] double tail_percentile(std::size_t count, double cap = 100.0);

/// How the benchmark records a timing distribution.
struct Summary {
  std::size_t count = 0;
  double median = 0.0;
  double tail_pct = 0.0;  // tail_percentile(count); 0 with kMinBeyond samples or fewer
  double tail = 0.0;      // value at tail_pct
  std::size_t beyond = 0;

  /// "median 1.230 / p99 4.560 (n=1000, 10 beyond)".
  [[nodiscard]] std::string format() const;
};

[[nodiscard]] Summary summarize(std::vector<double> samples);

[[nodiscard]] double median(std::vector<double> samples);

/// A metric name starts with a letter or digit and holds at most 64 of
/// [A-Za-z0-9_.-].
[[nodiscard]] bool valid_metric_name(std::string_view name);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Ordered metric list that rejects invalid or duplicate names.
class MetricSet {
 public:
  void add(std::string name, std::string unit, double value);
  [[nodiscard]] const std::vector<Metric>& items() const noexcept { return items_; }

 private:
  std::vector<Metric> items_;
};

/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
/// on one line, written through the repo's JSON writer.
[[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed, const MetricSet& metrics);

/// 64-bit FNV-1a, used for the simulated-statistics digest.
class Fnv1a {
 public:
  void add(std::string_view bytes) noexcept;
  void add(std::uint64_t value) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
