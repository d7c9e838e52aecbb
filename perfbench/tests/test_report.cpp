// Tests of perfbench's own helpers: percentile selection with the
// samples-beyond count, metric-name validation, the result line and trace
// file parsing back through serve::Json, and the host-speed scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "host_speed.hpp"
#include "report.hpp"
#include "serve/protocol.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using copift::serve::Json;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));  // unsorted input
  return v;
}

TEST(Percentile, NearestRank) {
  std::vector<double> sorted = one_to(100);
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(percentile(sorted, 50.0), 50.0);
  EXPECT_EQ(percentile(sorted, 99.0), 99.0);
  EXPECT_EQ(percentile(sorted, 100.0), 100.0);
  EXPECT_EQ(percentile(sorted, 0.0), 1.0);
  EXPECT_EQ(samples_beyond(100, 99.0), 1U);
  EXPECT_EQ(samples_beyond(1000, 99.0), 10U);
  EXPECT_EQ(samples_beyond(0, 99.0), 0U);
}

TEST(Summarize, PicksHighestTailWithTenBeyond) {
  const Summary s1000 = summarize(one_to(1000));
  EXPECT_EQ(s1000.count, 1000U);
  EXPECT_EQ(s1000.median, 500.0);
  EXPECT_EQ(s1000.tail_pct, 99.0);
  EXPECT_EQ(s1000.tail, 990.0);
  EXPECT_EQ(s1000.beyond, 10U);

  // Every count keeps exactly ten samples beyond the tail: the 11th largest.
  for (const std::size_t n : {11U, 19U, 21U, 64U, 999U, 1001U, 4321U, 10000U}) {
    const Summary s = summarize(one_to(n));
    EXPECT_EQ(s.beyond, kMinBeyond) << n;
    EXPECT_EQ(s.tail, static_cast<double>(n - kMinBeyond)) << n;
  }
  EXPECT_EQ(summarize(one_to(10000)).tail_pct, 99.9);

  const Summary s10 = summarize(one_to(10));
  EXPECT_EQ(s10.tail_pct, 0.0);  // no sample has ten beyond it
  EXPECT_EQ(s10.beyond, 0U);

  EXPECT_EQ(summarize({}).count, 0U);
}

TEST(TailPercentile, CappedForP99) {
  EXPECT_EQ(tail_percentile(10000, 99.0), 99.0);  // enough samples: a true p99
  EXPECT_EQ(samples_beyond(10000, tail_percentile(10000, 99.0)), 100U);
  EXPECT_EQ(tail_percentile(100, 99.0), 90.0);  // too few: the 11th largest
  EXPECT_EQ(samples_beyond(100, tail_percentile(100, 99.0)), kMinBeyond);
  EXPECT_EQ(tail_percentile(10, 99.0), 0.0);
}

TEST(MetricName, Validation) {
  EXPECT_TRUE(valid_metric_name("p99_ms"));
  EXPECT_TRUE(valid_metric_name("sim.ns_per_hart_cycle"));
  EXPECT_TRUE(valid_metric_name("a-b.c_9"));
  EXPECT_TRUE(valid_metric_name("9lives"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'x')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'x')));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("_x"));
  EXPECT_FALSE(valid_metric_name("p99 ms"));
  EXPECT_FALSE(valid_metric_name("a/b"));
  EXPECT_FALSE(valid_metric_name("quote\""));

  MetricSet set;
  set.add("ok", "s", 1.0);
  EXPECT_THROW(set.add("ok", "s", 2.0), copift::Error);
  EXPECT_THROW(set.add("bad name", "s", 1.0), copift::Error);
  EXPECT_THROW(set.add("nan", "s", std::nan("")), copift::Error);
}

TEST(ResultLine, ParsesBackWithServeJson) {
  MetricSet set;
  set.add("latency_ms", "ms", 1.2034);
  set.add("setup_s", "s", 0.8127000000000001);
  set.add("points_per_s", "1/s", 12345.0);
  const std::string line = result_line(true, 1000, 0, set);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const Json doc = Json::parse(line);
  ASSERT_EQ(doc.as_object().size(), 4U);
  EXPECT_TRUE(doc.at("correct").as_bool());
  EXPECT_EQ(doc.at("attempted").as_u64(), 1000U);
  EXPECT_EQ(doc.at("failed").as_u64(), 0U);
  const Json& metrics = doc.at("metrics");
  ASSERT_EQ(metrics.as_object().size(), 3U);
  EXPECT_EQ(metrics.at("latency_ms").at("value").as_number(), 1.2034);
  EXPECT_EQ(metrics.at("latency_ms").at("unit").as_string(), "ms");
  // Every digit survives the round trip.
  EXPECT_EQ(metrics.at("setup_s").at("value").as_number(), 0.8127000000000001);
  EXPECT_EQ(metrics.at("points_per_s").at("unit").as_string(), "1/s");
}

TEST(Trace, SelfTimesAddUpAndExportParses) {
  Trace trace;
  trace.set_enabled(true);
  {
    Span root(trace, "bench.round");
    {
      Span a(trace, "sim.run");
      Span b(trace, "sim.inner");
    }
    Span c(trace, "rvasm.assemble");
  }
  trace.set_enabled(false);
  {
    Span off(trace, "sim.run");  // disabled: not recorded
  }
  ASSERT_EQ(trace.size(), 4U);
  const auto times = trace.layer_times();
  double sum = 0.0;
  for (const auto& [layer, ns] : times.self_ns) {
    EXPECT_GE(ns, 0.0) << layer;
    sum += ns;
  }
  EXPECT_NEAR(sum, times.root_ns, 1e-6 * times.root_ns + 1.0);
  EXPECT_EQ(layer_of("sim.run"), "sim");
  EXPECT_EQ(layer_of("bench"), "bench");

  std::ostringstream os;
  trace.write_chrome(os, Json::object({{"seed", Json::number(std::uint64_t{7})}}));
  const Json doc = Json::parse(os.str());
  EXPECT_EQ(doc.at("traceEvents").as_array().size(), 5U);  // 4 spans + thread name
  EXPECT_EQ(doc.at("otherData").at("seed").as_u64(), 7U);
}

TEST(HostSpeed, ScaleIsReferenceOverMeasured) {
  EXPECT_EQ(ReferenceTime{}.scale(), 1.0);  // nothing run: unscaled
  ReferenceTime slow{4 * 2 * kReferenceUnitSeconds, 4};
  EXPECT_DOUBLE_EQ(slow.scale(), 0.5);  // units took twice the reference time
  slow += ReferenceTime{2 * kReferenceUnitSeconds, 4};
  EXPECT_DOUBLE_EQ(slow.scale(), 0.8);  // 8 units in 10 unit-times

  const ReferenceTime one = run_reference(0.0);  // at least one unit
  EXPECT_EQ(one.units, 1U);
  EXPECT_GT(one.seconds, 0.0);
  const ReferenceTime two = run_reference_parallel(0.0, 2);
  EXPECT_EQ(two.units, 2U);
}

}  // namespace
}  // namespace perfbench
