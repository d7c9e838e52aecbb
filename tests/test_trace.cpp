#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <sstream>
#include <string>

#include "kernels/runner.hpp"
#include "rvasm/assembler.hpp"
#include "sim/cluster.hpp"
#include "sim/trace_export.hpp"
#include "workload/workload.hpp"

namespace copift::sim {
namespace {

// --- helpers ----------------------------------------------------------------

// Heap-allocated: Cluster's units hold pointers into sibling members, so it
// must not be moved after construction.
std::unique_ptr<Cluster> run_traced(const std::string& source) {
  auto cluster = std::make_unique<Cluster>(rvasm::assemble(source));
  cluster->tracer().set_enabled(true);
  cluster->run();
  return cluster;
}

struct UnitCoverage {
  std::uint64_t entries = 0;
  std::uint64_t stalls = 0;
};

/// Entries + stall annotations per issue-slot track (FREP replays issue on
/// the FPSS track).
void coverage(const Cluster& cluster, UnitCoverage& int_core, UnitCoverage& fpss) {
  for (const TraceEntry& e : cluster.tracer().entries()) {
    (e.unit == TraceUnit::kIntCore ? int_core : fpss).entries++;
  }
  for (const StallEvent& s : cluster.tracer().stalls()) {
    (s.unit == TraceUnit::kIntCore ? int_core : fpss).stalls++;
  }
}

/// The central invariant: every cycle of each unit is attributed exactly
/// once — as a retired instruction or as a stall/issue/idle annotation —
/// and the aggregate counters agree with the per-cycle trace.
void expect_full_attribution(const Cluster& cluster) {
  const ActivityCounters& c = cluster.counters();
  const std::uint64_t cycles = cluster.cycles();
  EXPECT_EQ(c.int_issue_cycles() + c.int_stall_cycles() + c.slot(StallCause::kIntHalted),
            cycles);
  EXPECT_EQ(c.fpss_issue_cycles() + c.fpss_stall_cycles() + c.slot(StallCause::kFpIdle),
            cycles);
  if (!cluster.tracer().enabled()) return;
  UnitCoverage ic, fp;
  coverage(cluster, ic, fp);
  EXPECT_EQ(ic.entries + ic.stalls, cycles);
  EXPECT_EQ(fp.entries + fp.stalls, cycles);
  EXPECT_EQ(ic.entries, c.int_retired);
  EXPECT_EQ(fp.entries, c.fp_retired);
  // Per-cause stall-event counts match the aggregate counters. Iterating
  // the taxonomy (rather than hand-listing fields) keeps this check
  // automatically complete when a cause is added.
  std::uint64_t per_cause[kNumStallCauses] = {};
  for (const StallEvent& s : cluster.tracer().stalls()) {
    ++per_cause[static_cast<unsigned>(s.cause)];
  }
  for (const CauseInfo& info : kCauseInfo) {
    EXPECT_EQ(per_cause[static_cast<unsigned>(info.cause)], c.slot(info.cause))
        << info.name << " vs " << info.counter;
  }
}

/// Minimal recursive-descent JSON validator: accepts exactly the RFC 8259
/// grammar (minus number edge cases we never emit). Returns true iff the
/// whole string is one valid JSON value.
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : s_(text) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        ++pos_;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  std::string_view s_;
  std::size_t pos_ = 0;
};

// --- original tracer behaviour ----------------------------------------------

TEST(Trace, DisabledByDefault) {
  Cluster cluster(rvasm::assemble("nop\nnop\necall\n"));
  cluster.run();
  EXPECT_TRUE(cluster.tracer().entries().empty());
  EXPECT_TRUE(cluster.tracer().stalls().empty());
}

TEST(Trace, RecordsRetiredInstructions) {
  Cluster cluster(rvasm::assemble("li a0, 1\nadd a1, a0, a0\necall\n"));
  cluster.tracer().set_enabled(true);
  cluster.run();
  const auto& entries = cluster.tracer().entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].instr.mnemonic, isa::Mnemonic::kAddi);
  EXPECT_EQ(entries[1].instr.mnemonic, isa::Mnemonic::kAdd);
  EXPECT_EQ(entries[2].instr.mnemonic, isa::Mnemonic::kEcall);
  EXPECT_LT(entries[0].cycle, entries[1].cycle);
  EXPECT_EQ(entries[0].unit, TraceUnit::kIntCore);
}

TEST(Trace, MarksFpssAndReplayEntries) {
  const auto cluster = run_traced(R"(
  fcvt.d.w fa0, zero
  li t0, 3
  frep.o t0, 1
  fadd.d fa1, fa1, fa0
  csrr t1, fpss
  ecall
)");
  unsigned fpss = 0;
  unsigned replay = 0;
  for (const auto& e : cluster->tracer().entries()) {
    if (e.unit == TraceUnit::kFpss) ++fpss;
    if (e.unit == TraceUnit::kFrepReplay) ++replay;
  }
  EXPECT_EQ(fpss, 2u);    // fcvt + first fadd iteration
  EXPECT_EQ(replay, 3u);  // remaining FREP iterations
}

TEST(Trace, DualIssueCyclesPositiveUnderFrep) {
  const auto cluster = run_traced(R"(
  fcvt.d.w fa0, zero
  li t0, 49
  frep.o t0, 2
  fadd.d fa1, fa1, fa0
  fadd.d fa2, fa2, fa0
  li a1, 60
x:
  addi a2, a2, 1
  addi a1, a1, -1
  bnez a1, x
  csrr t1, fpss
  ecall
)");
  EXPECT_GT(cluster->tracer().dual_issue_cycles(), 20u);
}

TEST(Trace, RenderContainsDisassembly) {
  const auto cluster = run_traced("li a0, 5\necall\n");
  const std::string text = cluster->tracer().render();
  EXPECT_NE(text.find("addi a0, zero, 5"), std::string::npos);
  EXPECT_NE(text.find("[int ]"), std::string::npos);
}

TEST(Trace, RangeFilter) {
  const auto cluster = run_traced("nop\nnop\nnop\nnop\necall\n");
  const std::string all = cluster->tracer().render();
  const std::string some = cluster->tracer().render(0, 1);
  EXPECT_LT(some.size(), all.size());
}

// --- stall attribution: micro-programs with causes known by construction ----

// fcvt.d.w (cvt latency 2) feeds fadd #1, which feeds fadd #2 (add latency
// 3). The FPSS receives each fadd one cycle after its producer issued, so
// fadd #1 waits cvt_latency-1 = 1 cycle on fa0 and fadd #2 waits
// add_latency-1 = 2 cycles on fa1: exactly 3 fp/raw stall cycles.
TEST(StallAttribution, BackToBackFpRawExactCounts) {
  const auto cluster = run_traced(R"(
  fcvt.d.w fa0, zero
  fadd.d fa1, fa0, fa0
  fadd.d fa2, fa1, fa1
  csrr t0, fpss
  ecall
)");
  const ActivityCounters& c = cluster->counters();
  EXPECT_EQ(c.slot(StallCause::kFpRaw), 3u);
  EXPECT_EQ(c.slot(StallCause::kFpSsr), 0u);
  EXPECT_EQ(c.slot(StallCause::kFpStruct), 0u);
  EXPECT_EQ(c.slot(StallCause::kIntOffload), 3u);  // fcvt + 2 fadd handed to the FPSS FIFO
  EXPECT_GT(c.slot(StallCause::kIntBarrier), 0u);  // csrr fpss drains the in-flight adds
  expect_full_attribution(*cluster);
}

// Two independent divs: the iterative divider is busy for div_latency
// cycles, so the second div stalls exactly div_latency-1 cycles (it arrives
// one cycle after the first issued).
TEST(StallAttribution, DividerBusyExactCounts) {
  const auto cluster = run_traced(R"(
  li a0, 100
  li a1, 7
  div t0, a0, a1
  div t1, a0, a1
  ecall
)");
  const SimParams params{};
  EXPECT_EQ(cluster->counters().slot(StallCause::kIntDivBusy),
            static_cast<std::uint64_t>(params.div_latency) - 1);
  EXPECT_EQ(cluster->counters().slot(StallCause::kIntRaw), 0u);
  expect_full_attribution(*cluster);
}

// fcvt.w.d writes the *integer* register file through the FPSS writeback
// queue; the dependent add observes int/raw stalls until the result drains
// back over the shared write port (offload + cvt latency + drain = 3 cycles
// at default latencies). The second fcvt also waits 1 cycle on fa0 (fp/raw).
TEST(StallAttribution, IntRawOnFpssWritebackExactCounts) {
  const auto cluster = run_traced(R"(
  fcvt.d.w fa0, zero
  fcvt.w.d t0, fa0
  add t1, t0, t0
  ecall
)");
  const ActivityCounters& c = cluster->counters();
  EXPECT_EQ(c.slot(StallCause::kIntRaw), 3u);
  EXPECT_EQ(c.slot(StallCause::kFpRaw), 1u);
  EXPECT_EQ(c.slot(StallCause::kIntOffload), 2u);
  expect_full_attribution(*cluster);
}

// FREP with a self-dependent body: the first fadd issues from the FIFO, the
// 3 replays issue from the sequencer, and every replay waits add_latency-1 =
// 2 cycles on the accumulator (fa1 RAW): 6 fp/raw stalls, 1 cfg cycle for
// the frep.o configuration entry, 3 replays.
TEST(StallAttribution, FrepReplayExactCounts) {
  const auto cluster = run_traced(R"(
  fcvt.d.w fa0, zero
  li t0, 3
  frep.o t0, 1
  fadd.d fa1, fa1, fa0
  csrr t1, fpss
  ecall
)");
  const ActivityCounters& c = cluster->counters();
  EXPECT_EQ(c.frep_replays, 3u);
  EXPECT_EQ(c.slot(StallCause::kFpCfg), 1u);
  EXPECT_EQ(c.slot(StallCause::kFpRaw), 6u);
  expect_full_attribution(*cluster);
}

// The six paper kernels: per-unit stall + issue + idle cycles must sum to
// total simulated cycles, tracing must not perturb timing (bit-identical
// counters with the tracer on and off), and the cycle counts are pinned so
// an accidental timing change in the introspection layer fails loudly.
TEST(StallAttribution, PaperKernelsFullAttributionAndTraceTransparency) {
  const struct {
    const char* name;
    std::uint64_t cycles;  // n=768, default block/seed, COPIFT variant
  } kKernels[] = {
      {"exp", 10819},  {"log", 12498},          {"poly_lcg", 9637},
      {"pi_lcg", 7711}, {"poly_xoshiro128p", 18782}, {"pi_xoshiro128p", 18497},
  };
  for (const auto& [name, pinned_cycles] : kKernels) {
    SCOPED_TRACE(name);
    const auto wl = workload::WorkloadRegistry::instance().at(name);
    auto cfg = wl->default_config();
    cfg.n = 768;
    const auto kernel = wl->instantiate(wl->default_variant(), cfg);
    const auto program = kernels::assemble_kernel(kernel);

    Cluster plain(program);
    kernels::populate_inputs(plain, kernel);
    plain.run();

    Cluster traced(program);
    traced.tracer().set_enabled(true);
    kernels::populate_inputs(traced, kernel);
    traced.run();

    EXPECT_EQ(plain.cycles(), pinned_cycles);
    EXPECT_EQ(traced.cycles(), plain.cycles());
    const ActivityCounters& a = plain.counters();
    const ActivityCounters& b = traced.counters();
    EXPECT_EQ(a.int_retired, b.int_retired);
    EXPECT_EQ(a.fp_retired, b.fp_retired);
    EXPECT_EQ(a.frep_replays, b.frep_replays);
    EXPECT_EQ(a.int_stall_cycles(), b.int_stall_cycles());
    EXPECT_EQ(a.fpss_stall_cycles(), b.fpss_stall_cycles());
    EXPECT_TRUE(plain.tracer().entries().empty());
    expect_full_attribution(plain);
    expect_full_attribution(traced);
    EXPECT_GT(traced.tracer().dual_issue_cycles(), 0u);
  }
}

// --- exporters ---------------------------------------------------------------

TEST(TraceExport, ChromeTraceIsValidJsonWithUnitTracks) {
  const auto cluster = run_traced(R"(
  fcvt.d.w fa0, zero
  fadd.d fa1, fa0, fa0
  csrr t0, fpss
  ecall
)");
  std::ostringstream os;
  write_chrome_trace(os, cluster->tracer());
  const std::string json = os.str();
  EXPECT_TRUE(JsonValidator(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"int core\""), std::string::npos);
  EXPECT_NE(json.find("\"fpss\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"retire\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"stall\""), std::string::npos);
  EXPECT_NE(json.find("fp/raw"), std::string::npos);
}

TEST(TraceExport, ChromeTraceRequiresEnabledTracer) {
  Cluster cluster(rvasm::assemble("nop\necall\n"));
  cluster.run();
  std::ostringstream os;
  EXPECT_THROW(write_chrome_trace(os, cluster.tracer()), Error);
}

TEST(TraceExport, StallSlicesMergeAdjacentCycles) {
  // div back-to-back produces a 19-cycle run of int/div-busy annotations;
  // the exporter must merge it into a single slice with dur=19.
  const auto cluster = run_traced("li a0, 100\nli a1, 7\ndiv t0, a0, a1\ndiv t1, a0, a1\necall\n");
  std::ostringstream os;
  write_chrome_trace(os, cluster->tracer());
  const SimParams params{};
  const std::string expect = "\"dur\":" + std::to_string(params.div_latency - 1) +
                             ",\"cat\":\"stall\",\"name\":\"int/div-busy\"";
  EXPECT_NE(os.str().find(expect), std::string::npos) << os.str();
}

TEST(TraceExport, ReportContainsOccupancyHistogramAndHotPcs) {
  const auto cluster = run_traced(R"(
  fcvt.d.w fa0, zero
  li t0, 19
  frep.o t0, 1
  fmul.d fa1, fa0, fa0
  csrr t1, fpss
  ecall
)");
  const std::string report = render_report(cluster->tracer(), cluster->counters());
  EXPECT_NE(report.find("pipeline report"), std::string::npos);
  EXPECT_NE(report.find("int core"), std::string::npos);
  EXPECT_NE(report.find("fpss"), std::string::npos);
  EXPECT_NE(report.find("stall breakdown"), std::string::npos);
  EXPECT_NE(report.find("dual-issue cycles"), std::string::npos);
  EXPECT_NE(report.find("hottest PCs"), std::string::npos);
  EXPECT_NE(report.find("frep.o"), std::string::npos);  // hottest-PC disassembly
}

TEST(TraceExport, ReportDegradesGracefullyWithoutTracing) {
  Cluster cluster(rvasm::assemble("nop\necall\n"));
  cluster.run();
  const std::string report = render_report(cluster.tracer(), cluster.counters());
  EXPECT_NE(report.find("pipeline report"), std::string::npos);
  EXPECT_NE(report.find("need tracing"), std::string::npos);
  EXPECT_EQ(report.find("hottest PCs"), std::string::npos);
}

TEST(Taxonomy, EveryCauseHasNameCounterAndLegendEntry) {
  const std::string legend = stall_taxonomy_legend();
  for (const CauseInfo& info : kCauseInfo) {
    EXPECT_STRNE(info.name, "");
    EXPECT_STRNE(info.counter, "");
    EXPECT_NE(legend.find(info.name), std::string::npos);
    EXPECT_NE(legend.find(info.counter), std::string::npos);
  }
}

}  // namespace
}  // namespace copift::sim
