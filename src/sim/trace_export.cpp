#include "sim/trace_export.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <map>
#include <ostream>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "sim/cluster.hpp"

namespace copift::sim {

namespace {

// Perfetto assigns colors by slice name, so giving stall slices their cause
// name ("int/raw", "fp/ssr", ...) colors each cause consistently.
const char* slot_category(SlotKind kind) {
  switch (kind) {
    case SlotKind::kIssue: return "issue";
    case SlotKind::kStall: return "stall";
    case SlotKind::kIdle: return "idle";
  }
  return "?";
}

struct Slice {
  std::uint64_t start = 0;
  std::uint64_t dur = 0;
  StallCause cause = StallCause::kIntRaw;
};

/// Merge per-cycle stall events of one unit into maximal same-cause runs.
std::vector<Slice> merge_stalls(const std::vector<StallEvent>& events, TraceUnit unit) {
  std::vector<Slice> slices;
  for (const StallEvent& e : events) {
    if (e.unit != unit) continue;
    if (!slices.empty() && slices.back().cause == e.cause &&
        slices.back().start + slices.back().dur == e.cycle) {
      ++slices.back().dur;
    } else {
      slices.push_back(Slice{e.cycle, 1, e.cause});
    }
  }
  return slices;
}

void append_event_prefix(std::string& out, bool& first) {
  if (!first) out += ",\n";
  first = false;
  out += "    ";
}

double pct(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

void append_bar(std::string& line, double percent) {
  const auto ticks = static_cast<unsigned>(percent / 2.5);  // 40 chars == 100%
  line.push_back(' ');
  line.append(ticks, '#');
}

/// One row per stall-kind cause of `unit`, labelled by its taxonomy name
/// without the unit prefix ("raw", "dma-dram", ...).
void append_breakdown(std::string& out, const char* header, const ActivityCounters& c,
                      TraceUnit unit, std::uint64_t total) {
  out += header;
  for (const CauseInfo& info : kCauseInfo) {
    if (info.unit != unit || info.kind != SlotKind::kStall) continue;
    const std::uint64_t value = c.slot(info.cause);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "    %-18s %10llu  %5.1f%%", std::strchr(info.name, '/') + 1,
                  static_cast<unsigned long long>(value), pct(value, total));
    std::string line(buf);
    append_bar(line, pct(value, total));
    out += line;
    out += '\n';
  }
}

/// Append one tracer's metadata + events as track group `pid` (Perfetto
/// shows each pid as a named group with its tid tracks inside).
void append_tracer_group(std::string& out, bool& first, const Tracer& tracer, unsigned pid,
                         const std::string& process_name) {
  const std::string pid_field = "{\"ph\":\"M\",\"pid\":" + std::to_string(pid);
  const auto thread_name = [&](unsigned tid, const char* name) {
    append_event_prefix(out, first);
    out += pid_field + ",\"tid\":" + std::to_string(tid) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"" + name + "\"}}";
  };
  append_event_prefix(out, first);
  out += pid_field + ",\"name\":\"process_name\",\"args\":{\"name\":";
  Json::append_quoted(out, process_name);
  out += "}}";
  thread_name(0, "int core");
  thread_name(1, "fpss");

  // A complete ("X") event's fields up to its name.
  const auto slice = [&](unsigned tid, std::uint64_t ts, std::uint64_t dur, const char* cat) {
    append_event_prefix(out, first);
    out += "{\"ph\":\"X\",\"pid\":" + std::to_string(pid) + ",\"tid\":" +
           std::to_string(tid) + ",\"ts\":" + std::to_string(ts) +
           ",\"dur\":" + std::to_string(dur) + ",\"cat\":\"" + cat + "\",\"name\":";
  };

  // Retired instructions: one 1-cycle slice each, named by disassembly.
  for (const TraceEntry& e : tracer.entries()) {
    slice(e.unit == TraceUnit::kIntCore ? 0 : 1, e.cycle, 1,
          e.unit == TraceUnit::kFrepReplay ? "replay" : "retire");
    Json::append_quoted(out, isa::disassemble(e.instr));
    if (e.pc != 0) {
      char pcbuf[16];
      std::snprintf(pcbuf, sizeof(pcbuf), "0x%x", e.pc);
      out += ",\"args\":{\"pc\":\"" + std::string(pcbuf) + "\"}}";
    } else {
      out += ",\"args\":{\"pc\":\"(fpss)\"}}";
    }
  }

  // Stall/idle/occupied spans, merged into maximal same-cause runs.
  for (const TraceUnit unit : {TraceUnit::kIntCore, TraceUnit::kFpss}) {
    const unsigned tid = unit == TraceUnit::kIntCore ? 0 : 1;
    for (const Slice& s : merge_stalls(tracer.stalls(), unit)) {
      slice(tid, s.start, s.dur, slot_category(cause_info(s.cause).kind));
      Json::append_quoted(out, cause_info(s.cause).name);
      out += ",\"args\":{\"cycles\":" + std::to_string(s.dur) + "}}";
    }
  }
}

constexpr const char* kTraceHead = "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [\n";
constexpr const char* kTraceTail = "\n  ]\n}\n";

}  // namespace

void write_chrome_trace(std::ostream& os, const Tracer& tracer) {
  if (!tracer.enabled()) {
    throw Error("write_chrome_trace: tracer was not enabled for the run");
  }
  std::string out = kTraceHead;
  bool first = true;
  append_tracer_group(out, first, tracer, 0, "copift cluster");
  out += kTraceTail;
  os << out;
}

void write_chrome_trace(std::ostream& os, const Cluster& cluster) {
  for (unsigned h = 0; h < cluster.num_cores(); ++h) {
    if (!cluster.complex(h).tracer().enabled()) {
      throw Error("write_chrome_trace: tracing was not enabled on hart " +
                  std::to_string(h) + " (use Cluster::set_tracing before run())");
    }
  }
  std::string out = kTraceHead;
  bool first = true;
  for (unsigned h = 0; h < cluster.num_cores(); ++h) {
    append_tracer_group(out, first, cluster.complex(h).tracer(), h, "hart " + std::to_string(h));
  }
  out += kTraceTail;
  os << out;
}

std::string render_hart_summary(const Cluster& cluster) {
  std::string out = "per-hart issue slots:\n";
  char buf[192];
  for (unsigned h = 0; h < cluster.num_cores(); ++h) {
    const ActivityCounters& c = cluster.complex(h).counters();
    std::snprintf(buf, sizeof(buf),
                  "  hart %u  int issue %5.1f%%  fpss issue %5.1f%%  retired %llu"
                  " (int %llu, fp %llu)  tcdm-stall %llu  barrier-wait %llu\n",
                  h, pct(c.int_issue_cycles(), c.cycles),
                  pct(c.fpss_issue_cycles(), c.cycles),
                  static_cast<unsigned long long>(c.retired()),
                  static_cast<unsigned long long>(c.int_retired),
                  static_cast<unsigned long long>(c.fp_retired),
                  static_cast<unsigned long long>(c.slot(StallCause::kIntTcdm) +
                                                  c.slot(StallCause::kFpTcdm)),
                  static_cast<unsigned long long>(c.slot(StallCause::kIntHwBarrier)));
    out += buf;
  }
  return out;
}

std::string render_report(const Tracer& tracer, const ActivityCounters& counters,
                          unsigned top_pcs, unsigned num_harts,
                          const rvasm::Program* program) {
  const ActivityCounters& c = counters;
  // Multi-hart aggregates sum slot-cycles over harts while `cycles` stays
  // the cluster cycle count; normalizing by cycles*harts keeps every
  // percentage a fraction of the available issue slots (sums to 100%).
  const std::uint64_t slots = c.cycles * (num_harts == 0 ? 1 : num_harts);
  std::string out;
  char buf[160];

  if (num_harts > 1) {
    std::snprintf(buf, sizeof(buf), "=== pipeline report (%llu cycles x %u harts) ===\n",
                  static_cast<unsigned long long>(c.cycles), num_harts);
  } else {
    std::snprintf(buf, sizeof(buf), "=== pipeline report (%llu cycles) ===\n",
                  static_cast<unsigned long long>(c.cycles));
  }
  out += buf;

  // --- integer core ---------------------------------------------------------
  const auto unit_pct = [&](TraceUnit unit, SlotKind kind) {
    return pct(c.unit_cycles(unit, kind), slots);
  };
  std::snprintf(buf, sizeof(buf),
                "\nint core   issue %5.1f%%  stall %5.1f%%  halted %5.1f%%   "
                "(retired %llu, offloaded %llu)\n",
                unit_pct(TraceUnit::kIntCore, SlotKind::kIssue),
                unit_pct(TraceUnit::kIntCore, SlotKind::kStall),
                unit_pct(TraceUnit::kIntCore, SlotKind::kIdle),
                static_cast<unsigned long long>(c.int_retired),
                static_cast<unsigned long long>(c.slot(StallCause::kIntOffload)));
  out += buf;
  const char* breakdown_header = num_harts > 1
                                     ? "  stall breakdown (% of all issue slots):\n"
                                     : "  stall breakdown (% of all cycles):\n";
  append_breakdown(out, breakdown_header, c, TraceUnit::kIntCore, slots);

  // --- FPSS -----------------------------------------------------------------
  std::snprintf(buf, sizeof(buf),
                "\nfpss       issue %5.1f%%  stall %5.1f%%  idle %5.1f%%     "
                "(retired %llu, of which %llu FREP replays; cfg %llu)\n",
                unit_pct(TraceUnit::kFpss, SlotKind::kIssue),
                unit_pct(TraceUnit::kFpss, SlotKind::kStall),
                unit_pct(TraceUnit::kFpss, SlotKind::kIdle),
                static_cast<unsigned long long>(c.fp_retired),
                static_cast<unsigned long long>(c.frep_replays),
                static_cast<unsigned long long>(c.slot(StallCause::kFpCfg)));
  out += buf;
  append_breakdown(out, breakdown_header, c, TraceUnit::kFpss, slots);

  // --- trace-derived sections ----------------------------------------------
  if (!tracer.enabled()) {
    out += "\n(the dual-issue rate and hottest-PC table need tracing: enable "
           "the tracer or pass --report to copift_sim)\n";
    return out;
  }

  const char* hart_note = num_harts > 1 ? " [hart 0]" : "";
  const std::uint64_t dual = tracer.dual_issue_cycles();
  std::snprintf(buf, sizeof(buf), "\ndual-issue cycles%s: %llu (%.1f%% of %llu)\n",
                hart_note, static_cast<unsigned long long>(dual), pct(dual, c.cycles),
                static_cast<unsigned long long>(c.cycles));
  out += buf;

  // Hottest PCs by retired instruction count (int-core entries carry a pc).
  std::map<std::uint32_t, std::pair<std::uint64_t, const TraceEntry*>> by_pc;
  for (const TraceEntry& e : tracer.entries()) {
    if (e.pc == 0) continue;
    auto& slot = by_pc[e.pc];
    ++slot.first;
    slot.second = &e;
  }
  std::vector<std::pair<std::uint32_t, std::pair<std::uint64_t, const TraceEntry*>>> hot(
      by_pc.begin(), by_pc.end());
  std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
    return a.second.first != b.second.first ? a.second.first > b.second.first
                                            : a.first < b.first;
  });
  if (hot.size() > top_pcs) hot.resize(top_pcs);
  std::snprintf(buf, sizeof(buf), "\ntop %zu hottest PCs%s (by retired instructions):\n",
                hot.size(), hart_note);
  out += buf;
  for (const auto& [pc, entry] : hot) {
    // Symbolized as `label+0xNN` when the program (and a label at or below
    // the PC) is available, so hot loops are recognizable at a glance.
    const std::string sym = program != nullptr ? program->symbolize(pc) : std::string();
    std::snprintf(buf, sizeof(buf), "  0x%-8x %8llu  %-28s%s%s%s\n", pc,
                  static_cast<unsigned long long>(entry.first),
                  isa::disassemble(entry.second->instr).c_str(), sym.empty() ? "" : " <",
                  sym.c_str(), sym.empty() ? "" : ">");
    out += buf;
  }
  return out;
}

}  // namespace copift::sim
