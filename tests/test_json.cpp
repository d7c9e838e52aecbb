// Tests for common/json's writer primitives against its reader: the one
// string escaper and the one number writer round-trip through Json::parse,
// and every JSON producer in the repo (sweep tables, lint reports, Perfetto
// traces) emits text the reader accepts. The reader's own edge cases live in
// tests/test_serve.cpp (ServeJson), next to the protocol that uses it.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include "common/bits.hpp"
#include "common/json.hpp"
#include "engine/experiment.hpp"
#include "kernels/runner.hpp"
#include "lint/lint.hpp"
#include "sim/trace_export.hpp"

namespace copift {
namespace {

std::string json_quoted(std::string_view value) {
  std::string out;
  Json::append_quoted(out, value);
  return out;
}

TEST(JsonWriter, EveryEscapedByteRoundTrips) {
  std::string all;
  for (int c = 0x01; c < 0x20; ++c) all += static_cast<char>(c);
  all += "\"\\/\x7f";
  all += "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80";  // é € 😀
  EXPECT_EQ(Json::parse(json_quoted(all)).as_string(), all);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(Json::parse(json_quoted(all.substr(i, 1))).as_string(), all.substr(i, 1)) << i;
  }
}

TEST(JsonWriter, UsesTheShortEscapesAndPassesEverythingElse) {
  EXPECT_EQ(json_quoted("\b\f\n\r\t"), R"("\b\f\n\r\t")");
  EXPECT_EQ(json_quoted("\x01\x1f"), R"("\u0001\u001f")");
  EXPECT_EQ(json_quoted("a\"b\\c"), R"("a\"b\\c")");
  EXPECT_EQ(json_quoted("/\x7f\xc3\xa9"), "\"/\x7f\xc3\xa9\"");
}

TEST(JsonWriter, NumbersMatchPrintfAndRoundTrip) {
  std::vector<double> values = {0.0,
                                -0.0,
                                1.0,
                                0.1,
                                1.0 / 3.0,
                                -2.5e-7,
                                123456789.0,
                                9007199254740993.0,
                                1e22,
                                1e-320,  // subnormal
                                DBL_MIN,
                                DBL_MAX,
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
  std::uint64_t bits = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 2000; ++i) {
    bits ^= bits << 13;
    bits ^= bits >> 7;
    bits ^= bits << 17;
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    if (std::isfinite(d)) values.push_back(d);
  }
  for (const double v : values) {
    char want[40];
    std::snprintf(want, sizeof(want), "%.17g", v);
    std::string got;
    Json::append_number(got, v);
    EXPECT_EQ(got, want);
    if (std::isfinite(v)) {
      // Bitwise, so the sign of -0.0 must survive too.
      EXPECT_EQ(copift::bit_cast<std::uint64_t>(Json::parse(got).as_number()),
                copift::bit_cast<std::uint64_t>(v))
          << got;
    }
  }
  // Json::dump degrades non-finite numbers to null.
  EXPECT_EQ(Json::number(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json::number(0.1).dump(), "0.10000000000000001");
}

// --- every producer's output parses ------------------------------------------

TEST(JsonProducers, ResultTableWithHostileLabelParses) {
  const std::string hostile = "fifo=1,\"deep\"\\mode\r\n\b\f\x01 \xc3\xa9";
  engine::Experiment e;
  e.over("exp").n(64).block(16).verify(false);
  e.with_params(hostile, sim::SimParams{});
  engine::SimEngine pool(1);
  const auto table = e.run(pool);
  const Json doc = Json::parse(table.json());
  ASSERT_EQ(doc.as_array().size(), 1u);
  EXPECT_EQ(doc.as_array()[0].at("params").as_string(), hostile);
  EXPECT_EQ(doc.as_array()[0].at("cycles").as_u64(), table.at(0).run.result.cycles);
}

TEST(JsonProducers, LintReportWithDiagnosticsParses) {
  auto report = lint::lint_source(
      "_start:\n"
      "  li a0, 0x20000000\n"
      "  lw a1, 0(a0)\n"
      "  ecall\n"
      "dead:\n"
      "  li a0, 1\n",
      2);
  ASSERT_GE(report.diags.size(), 2u);
  // Lint strings get the same short escapes as every other producer.
  report.diags[0].message += " \r\b\f\"";
  const Json doc = Json::parse(report.json());
  EXPECT_FALSE(doc.at("clean").as_bool());
  EXPECT_EQ(doc.at("cores").as_u64(), 2u);
  const auto& diags = doc.at("diags").as_array();
  ASSERT_EQ(diags.size(), report.diags.size());
  for (std::size_t i = 0; i < diags.size(); ++i) {
    EXPECT_EQ(diags[i].at("rule").as_string(), lint::rule_id(report.diags[i].rule));
    EXPECT_EQ(diags[i].at("pc").as_u64(), report.diags[i].pc);
    EXPECT_EQ(diags[i].at("label").as_string(), report.diags[i].label);
    EXPECT_EQ(diags[i].at("message").as_string(), report.diags[i].message);
  }
  EXPECT_NE(report.json().find(R"( \r\b\f\")"), std::string::npos);
}

TEST(JsonProducers, ChromeTraceOfATwoHartRunParses) {
  workload::WorkloadConfig cfg;
  cfg.n = 256;
  cfg.cores = 2;
  const auto kernel = workload::generate("axpy", workload::Variant::kCopift, cfg);
  sim::SimParams params;
  params.num_cores = 2;
  sim::Cluster cluster(kernels::assemble_kernel(kernel), params);
  cluster.set_tracing(true);
  kernels::populate_inputs(cluster, kernel);
  (void)cluster.run();
  std::ostringstream os;
  sim::write_chrome_trace(os, cluster);

  const Json doc = Json::parse(os.str());
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());
  std::vector<std::string> processes;
  std::size_t slices = 0;
  for (const Json& e : events) {
    if (e.at("ph").as_string() == "M" && e.at("name").as_string() == "process_name") {
      processes.push_back(e.at("args").at("name").as_string());
    }
    slices += e.at("ph").as_string() == "X";
  }
  EXPECT_EQ(processes, (std::vector<std::string>{"hart 0", "hart 1"}));
  EXPECT_GT(slices, 0u);
}

}  // namespace
}  // namespace copift
