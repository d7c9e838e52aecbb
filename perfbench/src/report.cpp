#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

namespace {

std::size_t rank_of(std::size_t count, double pct) {
  // The epsilon keeps exact products exact: 99.9 / 100 * 10000 evaluates to
  // 9990.000000000002, whose ceiling would be one rank too high.
  const auto rank =
      static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(count) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, count);
}

}  // namespace

double percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) throw copift::Error("percentile of an empty sample");
  return sorted[rank_of(sorted.size(), pct) - 1];
}

std::size_t samples_beyond(std::size_t count, double pct) {
  return count == 0 ? 0 : count - rank_of(count, pct);
}

double tail_percentile(std::size_t count, double cap) {
  if (count <= kMinBeyond) return 0.0;
  const double n = static_cast<double>(count);
  return std::min(cap, 100.0 * (n - static_cast<double>(kMinBeyond)) / n);
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.median = percentile(samples, 50.0);
  s.tail_pct = tail_percentile(samples.size());
  if (s.tail_pct > 0.0) {
    s.tail = percentile(samples, s.tail_pct);
    s.beyond = samples_beyond(samples.size(), s.tail_pct);
  }
  return s;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return percentile(samples, 50.0);
}

std::string Summary::format() const {
  char buf[160];
  if (tail_pct > 0.0) {
    std::snprintf(buf, sizeof(buf), "median %.3f / p%.4g %.3f (n=%zu, %zu beyond)", median,
                  tail_pct, tail, count, beyond);
  } else {
    std::snprintf(buf, sizeof(buf), "median %.3f (n=%zu, no tail with %zu beyond)", median,
                  count, kMinBeyond);
  }
  return buf;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

void MetricSet::add(std::string name, std::string unit, double value) {
  if (!valid_metric_name(name)) throw copift::Error("invalid metric name '" + name + "'");
  if (std::any_of(items_.begin(), items_.end(), [&](const Metric& m) { return m.name == name; })) {
    throw copift::Error("duplicate metric '" + name + "'");
  }
  if (!std::isfinite(value)) throw copift::Error("metric '" + name + "' is not finite");
  items_.push_back(Metric{std::move(name), std::move(unit), value});
}

std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const MetricSet& metrics) {
  using copift::serve::Json;
  Json::Object values;
  for (const auto& m : metrics.items()) {
    values.emplace_back(m.name, Json::object({{"value", Json::number(m.value)},
                                              {"unit", Json::string(m.unit)}}));
  }
  return Json::object({{"correct", Json::boolean(correct)},
                       {"attempted", Json::number(attempted)},
                       {"failed", Json::number(failed)},
                       {"metrics", Json::object(std::move(values))}})
      .dump();
}

void Fnv1a::add(std::string_view bytes) noexcept {
  for (const char c : bytes) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 0x100000001b3ULL;
  }
}

void Fnv1a::add(std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xFF;
    hash_ *= 0x100000001b3ULL;
  }
}

}  // namespace perfbench
