// Batch engine tests: worker-pool semantics, assemble-once program sharing,
// grid expansion, and — most importantly — determinism: a sweep must produce
// bit-identical results at any thread count. The engine addresses workloads
// by registry name (see tests/test_workload.cpp for the registry itself).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>

#include "common/error.hpp"
#include "engine/experiment.hpp"

namespace copift::engine {
namespace {

using workload::Variant;

// --- SimEngine --------------------------------------------------------------

TEST(SimEngine, RunsEveryJobExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    SimEngine pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    std::vector<std::atomic<int>> hits(97);
    pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(SimEngine, EmptyBatchIsANoop) {
  SimEngine pool(4);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(SimEngine, PoolIsReusableAcrossBatches) {
  SimEngine pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round) {
    pool.parallel_for(10, [&](std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 50);
}

TEST(SimEngine, BackToBackBatchesNeverLeakJobsAcrossBatches) {
  // Regression: a worker waking late for a finished batch must not steal
  // indices from (or run the closure of) the batch posted after it.
  SimEngine pool(8);
  for (int round = 0; round < 300; ++round) {
    const std::size_t count = 1 + static_cast<std::size_t>(round % 7);
    std::vector<std::atomic<int>> hits(count);
    pool.parallel_for(count, [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

TEST(SimEngine, ParseThreadsRejectsNonsenseAsUsageErrors) {
  char prog[] = "prog", flag[] = "--threads";
  char neg[] = "-1", huge[] = "4000000000", junk[] = "abc", trail[] = "4x", four[] = "4";
  // Malformed values used to fall back silently to hardware concurrency,
  // masking typos with a full-width pool; they are usage errors now.
  {
    char* argv[] = {prog, flag, neg};
    EXPECT_THROW(parse_threads(3, argv), Error);
  }
  {
    char* argv[] = {prog, flag, huge};
    EXPECT_THROW(parse_threads(3, argv), Error);
  }
  {
    char* argv[] = {prog, flag, junk};
    EXPECT_THROW(parse_threads(3, argv), Error);
  }
  {
    char* argv[] = {prog, flag, trail};
    EXPECT_THROW(parse_threads(3, argv), Error);
  }
  // Regression: `--threads` as the very last argument was silently ignored
  // (the scan loop stopped one short); it must be a usage error.
  {
    char* argv[] = {prog, flag};
    try {
      parse_threads(2, argv);
      FAIL() << "expected an exception";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("requires a value"), std::string::npos)
          << e.what();
    }
  }
  {
    char* argv[] = {prog, flag, four};
    EXPECT_EQ(parse_threads(3, argv), 4u);
  }
  {
    char* argv[] = {prog};
    EXPECT_EQ(parse_threads(1, argv), 0u);
  }
}

TEST(SimEngine, RethrowsLowestIndexException) {
  // The same (lowest-index) exception must surface at any thread count.
  for (const unsigned threads : {1u, 8u}) {
    SimEngine pool(threads);
    try {
      pool.parallel_for(16, [](std::size_t i) {
        if (i % 2 == 1) throw Error("job " + std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "job 1");
    }
  }
}

TEST(SimEngine, ZeroThreadsMeansHardwareConcurrency) {
  SimEngine pool(0);
  EXPECT_GE(pool.threads(), 1u);
}

TEST(SimEngine, NestedParallelForThrowsInsteadOfDeadlocking) {
  // A job that re-enters its own engine would deadlock waiting for the
  // worker slot it occupies; the engine must detect this and throw a
  // descriptive error from the job instead.
  for (const unsigned threads : {1u, 4u}) {
    SimEngine pool(threads);
    try {
      pool.parallel_for(2, [&](std::size_t) {
        pool.parallel_for(2, [](std::size_t) {});
      });
      FAIL() << "nested parallel_for did not throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("inside one of its own jobs"), std::string::npos)
          << e.what();
    }
    // The pool stays usable after the misuse.
    std::atomic<int> ran{0};
    EXPECT_TRUE(pool.parallel_for(4, [&](std::size_t) { ++ran; }));
    EXPECT_EQ(ran.load(), 4);
  }
}

TEST(SimEngine, CancelTokenStopsBetweenJobs) {
  SimEngine pool(2);
  CancelToken cancel;
  cancel.request_stop();
  std::atomic<int> ran{0};
  // A pre-cancelled batch runs nothing and reports incompleteness.
  EXPECT_FALSE(pool.parallel_for(8, [&](std::size_t) { ++ran; }, &cancel));
  EXPECT_EQ(ran.load(), 0);

  cancel.reset();
  std::atomic<int> invocations{0};
  const bool complete = pool.parallel_for(
      1000,
      [&](std::size_t) {
        ++invocations;
        cancel.request_stop();  // first job cancels the rest
      },
      &cancel);
  EXPECT_FALSE(complete);
  // At most the jobs already claimed before the stop flag landed ran —
  // far fewer than the full batch.
  EXPECT_LT(invocations.load(), 1000);

  // The token is per-batch input: a fresh batch without it completes fully.
  std::atomic<int> after{0};
  EXPECT_TRUE(pool.parallel_for(8, [&](std::size_t) { ++after; }));
  EXPECT_EQ(after.load(), 8);
}

TEST(Experiment, CancelledRunReturnsFinishedPrefixRows) {
  Experiment e;
  e.over("exp").n(256).sweep({8, 16, 32, 64}).verify(false);
  SimEngine pool(1);

  CancelToken cancel;
  cancel.request_stop();
  const auto none = e.run(pool, &cancel);
  EXPECT_EQ(none.size(), 0u);  // cancelled before any point ran

  cancel.reset();
  const auto all = e.run(pool, &cancel);
  EXPECT_EQ(all.size(), e.grid().size());  // un-cancelled token is harmless
}

// --- ProgramCache -----------------------------------------------------------

TEST(ProgramCache, SharesOneProgramPerDistinctConfig) {
  ProgramCache cache;
  kernels::KernelConfig cfg;
  cfg.n = 256;
  cfg.block = 32;
  const auto k = workload::generate("exp", Variant::kCopift, cfg);
  const auto a = cache.get(k);
  const auto b = cache.get(k);
  EXPECT_EQ(a.get(), b.get());  // same immutable program, not a copy
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);

  cfg.block = 64;
  const auto c = cache.get(workload::generate("exp", Variant::kCopift, cfg));
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ProgramCache, SharedProgramRunsManyClustersBitIdentically) {
  kernels::KernelConfig cfg;
  cfg.n = 256;
  cfg.block = 32;
  const auto k = workload::generate("pi_lcg", Variant::kCopift, cfg);
  const auto program = kernels::assemble_kernel(k);
  const auto r1 = kernels::run_kernel(k, program);
  const auto r2 = kernels::run_kernel(k, program);
  EXPECT_EQ(r1.result.cycles, r2.result.cycles);
  EXPECT_EQ(r1.region.cycles, r2.region.cycles);
  EXPECT_TRUE(r1.verified);
  // And identical to the assemble-per-run path.
  const auto r3 = kernels::run_kernel(k);
  EXPECT_EQ(r1.result.cycles, r3.result.cycles);
}

// --- ParamGrid --------------------------------------------------------------

TEST(ParamGrid, ExpandsCartesianProductRowMajor) {
  ParamGrid grid;
  grid.workloads = {"exp", "log"};
  grid.variants = {Variant::kBaseline, Variant::kCopift};
  grid.ns = {256, 512};
  grid.blocks = {32};
  grid.seeds = {1, 2, 3};
  ASSERT_EQ(grid.size(), 2u * 2u * 2u * 1u * 3u);

  // Last axis (params, then seeds) moves fastest.
  EXPECT_EQ(grid.point(0).config.seed, 1u);
  EXPECT_EQ(grid.point(1).config.seed, 2u);
  EXPECT_EQ(grid.point(2).config.seed, 3u);
  EXPECT_EQ(grid.point(3).config.n, 512u);
  EXPECT_EQ(grid.point(0).name(), "exp");
  EXPECT_EQ(grid.point(grid.size() - 1).name(), "log");
  EXPECT_EQ(grid.point(grid.size() - 1).variant, Variant::kCopift);
  EXPECT_EQ(grid.point(grid.size() - 1).config.seed, 3u);
  for (std::size_t i = 0; i < grid.size(); ++i) EXPECT_EQ(grid.point(i).index, i);
  EXPECT_THROW(grid.point(grid.size()), Error);
}

TEST(ParamGrid, UnknownWorkloadNameThrowsWithRegisteredNames) {
  ParamGrid grid;
  grid.workloads = {"no_such_workload"};
  try {
    (void)grid.point(0);
    FAIL() << "expected an exception";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no_such_workload"), std::string::npos);
    EXPECT_NE(what.find("exp"), std::string::npos);  // lists what is registered
  }
}

// --- Experiment determinism (the satellite requirement) ---------------------

/// Field-by-field bitwise comparison of two result tables.
void expect_identical(const ResultTable& a, const ResultTable& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& ra = a.at(i);
    const auto& rb = b.at(i);
    EXPECT_EQ(ra.point.name(), rb.point.name());
    EXPECT_EQ(ra.point.variant, rb.point.variant);
    EXPECT_EQ(ra.point.config.n, rb.point.config.n);
    EXPECT_EQ(ra.point.config.block, rb.point.config.block);
    EXPECT_EQ(ra.run.result.cycles, rb.run.result.cycles);
    EXPECT_EQ(ra.run.region.cycles, rb.run.region.cycles);
    EXPECT_EQ(ra.run.region.int_retired, rb.run.region.int_retired);
    EXPECT_EQ(ra.run.region.fp_retired, rb.run.region.fp_retired);
    EXPECT_EQ(ra.run.verified, rb.run.verified);
    // Doubles must match bit-for-bit, not approximately.
    EXPECT_EQ(std::memcmp(&ra.run.region_energy, &rb.run.region_energy,
                          sizeof(ra.run.region_energy)),
              0);
    EXPECT_EQ(ra.steady, rb.steady);
    if (ra.steady) {
      EXPECT_EQ(std::memcmp(&ra.metrics, &rb.metrics, sizeof(ra.metrics)), 0);
      EXPECT_EQ(ra.steady_region.cycles, rb.steady_region.cycles);
    }
  }
  // The emitted artifacts are deterministic too.
  EXPECT_EQ(a.csv(), b.csv());
  EXPECT_EQ(a.json(), b.json());
}

Experiment small_sweep() {
  Experiment e;
  e.over({"exp", "pi_lcg"})
      .over({Variant::kBaseline, Variant::kCopift})
      .n(256)
      .sweep({16, 32});
  return e;
}

TEST(Experiment, OneThreadAndEightThreadsAreBitIdentical) {
  const Experiment e = small_sweep();
  SimEngine serial(1);
  SimEngine wide(8);
  const auto a = e.run(serial);
  const auto b = e.run(wide);
  ASSERT_EQ(a.size(), 8u);
  expect_identical(a, b);
  for (const auto& row : a.rows()) EXPECT_TRUE(row.run.verified);
}

TEST(Experiment, SteadyModeMatchesSteadyMetricsAndIsDeterministic) {
  Experiment e;
  e.over("exp").over(Variant::kCopift).block(32).steady(320, 640);
  SimEngine serial(1);
  SimEngine wide(8);
  const auto a = e.run(serial);
  const auto b = e.run(wide);
  expect_identical(a, b);

  ASSERT_EQ(a.size(), 1u);
  const auto& row = a.at(0);
  ASSERT_TRUE(row.steady);
  // The same two runs by hand, combined by the same formula.
  const auto exp = workload::WorkloadRegistry::instance().at("exp");
  kernels::KernelConfig c1;
  c1.block = 32;
  c1.n = 320;
  kernels::KernelConfig c2 = c1;
  c2.n = 640;
  const auto direct = kernels::steady_from_runs(
      kernels::run_kernel(exp->instantiate(Variant::kCopift, c1)),
      kernels::run_kernel(exp->instantiate(Variant::kCopift, c2)), exp->items(c1),
      exp->items(c2));
  EXPECT_EQ(row.metrics.delta_cycles, direct.delta_cycles);
  EXPECT_EQ(row.metrics.ipc, direct.ipc);
  EXPECT_EQ(row.metrics.energy_pj_per_item, direct.energy_pj_per_item);
}

TEST(Experiment, ParamsAxisSweepsSimulatorConfigs) {
  Experiment e;
  e.over("pi_lcg").over(Variant::kBaseline).n(256).block(32);
  for (const unsigned lat : {1u, 5u}) {
    sim::SimParams p;
    p.mul_latency = lat;
    e.with_params(std::to_string(lat), p);
  }
  SimEngine pool(2);
  const auto table = e.run(pool);
  ASSERT_EQ(table.size(), 2u);
  const auto* fast = table.find("pi_lcg", Variant::kBaseline, 0, 0, "1");
  const auto* slow = table.find("pi_lcg", Variant::kBaseline, 0, 0, "5");
  ASSERT_NE(fast, nullptr);
  ASSERT_NE(slow, nullptr);
  EXPECT_LT(fast->run.region.cycles, slow->run.region.cycles);
  EXPECT_EQ(slow->point.params.mul_latency, 5u);
}

TEST(Experiment, VerifyPredicateSelectsPerPoint) {
  Experiment e;
  e.over("exp").over(Variant::kCopift).sweep_n({256, 512}).block(32).verify_if(
      [](const GridPoint& p) { return p.config.n <= 256; });
  SimEngine pool(2);
  const auto table = e.run(pool);
  ASSERT_EQ(table.size(), 2u);
  EXPECT_TRUE(table.at(0).run.verified);
  EXPECT_FALSE(table.at(1).run.verified);
}

TEST(Experiment, VerificationFailurePropagatesFromWorkers) {
  // pi estimation at a size that violates the MC unroll contract throws in
  // validate(); a grid with such a point must surface the error.
  Experiment e;
  e.over("pi_lcg").over(Variant::kCopift).sweep_n({12}).block(32);
  SimEngine pool(4);
  EXPECT_THROW((void)e.run(pool), Error);
}

TEST(ResultTable, CsvAndJsonCarryTheGrid) {
  Experiment e;
  e.over("exp").over(Variant::kCopift).n(256).sweep({16, 32});
  SimEngine pool(2);
  const auto table = e.run(pool);
  const std::string csv = table.csv();
  EXPECT_NE(csv.find("index,kernel,variant,n,block"), std::string::npos);
  EXPECT_NE(csv.find("exp,copift,256,16"), std::string::npos);
  EXPECT_NE(csv.find("exp,copift,256,32"), std::string::npos);
  const std::string json = table.json();
  EXPECT_NE(json.find("\"kernel\":\"exp\""), std::string::npos);
  EXPECT_NE(json.find("\"block\":32"), std::string::npos);
}

// Regression: find() ignored the cores and seed axes, so in a cores/seed
// sweep it silently returned the first row of the wrong configuration.
TEST(ResultTable, FindDisambiguatesByCoresAndSeed) {
  Experiment e;
  e.over("axpy").over(Variant::kCopift).n(256).sweep_cores({1, 2}).sweep_seeds({7, 9});
  SimEngine pool(4);
  const auto table = e.run(pool);
  ASSERT_EQ(table.size(), 4u);

  for (const std::uint32_t cores : {1u, 2u}) {
    for (const std::uint32_t seed : {7u, 9u}) {
      const auto* row = table.find("axpy", Variant::kCopift, 0, 0, {}, cores, seed);
      ASSERT_NE(row, nullptr) << "cores=" << cores << " seed=" << seed;
      EXPECT_EQ(row->point.config.cores, cores);
      EXPECT_EQ(row->point.config.seed, seed);
    }
  }
  // Unfiltered lookups keep the historical "first match" behaviour.
  const auto* first = table.find("axpy", Variant::kCopift);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->point.index, 0u);
  // seed=0 must mean "exactly seed 0" (no row here), not "any".
  EXPECT_EQ(table.find("axpy", Variant::kCopift, 0, 0, {}, 0, 0u), nullptr);
  EXPECT_EQ(table.find("axpy", Variant::kCopift, 0, 0, {}, 4), nullptr);
}

namespace {

/// Minimal RFC 4180 parser: split one CSV record into fields, honouring
/// quoted fields with doubled quotes. Used to prove the emitted CSV
/// round-trips through a conforming reader.
std::vector<std::string> parse_csv_record(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
        cur += '"';
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        cur += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  fields.push_back(cur);
  return fields;
}

/// Minimal JSON string decoder for the escapes write_json produces.
std::string decode_json_string(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u':
        out += static_cast<char>(std::stoi(s.substr(i + 1, 4), nullptr, 16));
        i += 4;
        break;
      default: out += s[i];
    }
  }
  return out;
}

}  // namespace

// Regression: params labels (and workload names) were written unescaped, so
// a label containing a comma corrupted the CSV columns and a quote produced
// invalid JSON.
TEST(ResultTable, HostileLabelsRoundTripThroughCsvAndJson) {
  const std::string hostile = "fifo=1,\"deep\" mode\nline2";
  Experiment e;
  e.over("exp").over(Variant::kCopift).n(256).block(32);
  e.with_params(hostile, sim::SimParams{});
  SimEngine pool(2);
  const auto table = e.run(pool);
  ASSERT_EQ(table.size(), 1u);

  // CSV: the header names the column layout; the data record must parse back
  // to the same number of fields with the label intact.
  const std::string csv = table.csv();
  const std::size_t header_end = csv.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  const auto header = parse_csv_record(csv.substr(0, header_end));
  // The record may legitimately contain an escaped newline; take the rest.
  const auto record = parse_csv_record(
      csv.substr(header_end + 1, csv.size() - header_end - 2));
  ASSERT_EQ(record.size(), header.size());
  std::size_t params_col = 0;
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == "params") params_col = i;
  }
  EXPECT_EQ(record[params_col], hostile);
  EXPECT_EQ(record[1], "exp");  // neighbouring columns uncorrupted
  EXPECT_EQ(record[2], "copift");

  // JSON: extract the "params" string value and decode it.
  const std::string json = table.json();
  const std::string key = "\"params\":\"";
  const std::size_t start = json.find(key);
  ASSERT_NE(start, std::string::npos);
  std::size_t end = start + key.size();
  while (end < json.size() && !(json[end] == '"' && json[end - 1] != '\\')) ++end;
  EXPECT_EQ(decode_json_string(json.substr(start + key.size(), end - start - key.size())),
            hostile);
  // No raw control characters may survive inside the JSON document.
  for (const char c : json) EXPECT_NE(c, '\t');
  EXPECT_EQ(json.find(hostile), std::string::npos);  // i.e. it was escaped
}

}  // namespace
}  // namespace copift::engine
