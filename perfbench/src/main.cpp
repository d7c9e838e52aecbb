// perfbench: one command, four workloads, every metric by name and unit.
//
//   perfbench --workload <paper_fig2|cold_pipeline|tiled_dram|serve_mix>
//             --seed N --seconds S --trace 0|1 [--trace-out FILE] [--commit SHA]
//
// Prints a host/build stamp, the per-workload digest of simulated
// statistics, timing summaries, and as its last line one JSON object:
// {"correct","attempted","failed","metrics"}. With --trace 0 the metrics are
// the end-to-end set, measured untraced; with --trace 1 they are the
// per-layer set from a traced run (spans written to --trace-out as Chrome
// trace-event JSON). Exits 1 when any operation failed or an output did not
// verify, 2 on a usage error.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <sys/resource.h>
#include <thread>

#include "common/error.hpp"
#include "workloads.hpp"

namespace perfbench {

void EndToEnd::emit(MetricSet& out) const {
  out.add("setup_s", "s", setup_s);
  out.add("points_per_s", "1/s", points_per_s);
  out.add("ns_per_hart_cycle", "ns", ns_per_hart_cycle);
  out.add("p50_ms", "ms", p50_ms);
  out.add("p99_ms", "ms", p99_ms);
  out.add("peak_rss_mb", "MB", peak_rss_mb);
  out.add("speedup_err_pct", "%", speedup_err_pct);
  out.add("energy_err_pct", "%", energy_err_pct);
}

void LayerValues::set(std::string_view name, double value) {
  for (const auto& m : kLayerMetrics) {
    if (m.name != name) continue;
    for (auto& [n, v] : values_) {
      if (n == name) {
        v = value;
        return;
      }
    }
    values_.emplace_back(m.name, value);
    return;
  }
  throw copift::Error("unknown per-layer metric '" + std::string(name) + "'");
}

void LayerValues::emit(MetricSet& out) const {
  for (const auto& m : kLayerMetrics) {
    double value = 0.0;
    for (const auto& [n, v] : values_) {
      if (n == m.name) value = v;
    }
    out.add(std::string(m.name), std::string(m.unit), value);
  }
}

void LayerValues::set_shares(const Trace::LayerTimes& times) {
  if (times.root_ns <= 0.0) return;
  for (const auto& [layer, ns] : times.self_ns) {
    set(layer + ".share", ns / times.root_ns);
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace perfbench

namespace {

using namespace perfbench;

/// Seed kept out of every tuning run; claims are re-checked on it.
constexpr std::uint32_t kHeldBackSeed = 20251;

struct Args {
  Options opt;
  std::string trace_out;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload paper_fig2|cold_pipeline|tiled_dram|serve_mix\n"
               "                 --seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--commit SHA]\n",
               why.c_str());
  std::exit(2);
}

unsigned long parse_number(const std::string& flag, const char* text, unsigned long max) {
  char* end = nullptr;
  errno = 0;
  const unsigned long v = std::strtoul(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-' || v > max) {
    usage(flag + " needs a whole number up to " + std::to_string(max) + ", got '" + text + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.opt.seed = static_cast<std::uint32_t>(parse_number(flag, value, 0xFFFFFFFFUL));
    } else if (flag == "--seconds") {
      a.opt.seconds = static_cast<double>(parse_number(flag, value, 600));
      if (a.opt.seconds < 1) usage("--seconds must be at least 1");
    } else if (flag == "--trace") {
      a.opt.trace = parse_number(flag, value, 1) == 1;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--commit") {
      a.commit = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

copift::serve::Json stamp(const Args& a) {
  using copift::serve::Json;
  return Json::object({
      {"workload", Json::string(a.opt.workload)},
      {"seed", Json::number(std::uint64_t{a.opt.seed})},
      {"held_back_seed", Json::number(std::uint64_t{kHeldBackSeed})},
      {"seconds", Json::number(a.opt.seconds)},
      {"trace", Json::boolean(a.opt.trace)},
      {"cpu", Json::string(cpu_model())},
      {"nproc", Json::number(std::uint64_t{std::thread::hardware_concurrency()})},
      {"compiler", Json::string(PERFBENCH_COMPILER)},
      {"build_type", Json::string(PERFBENCH_BUILD_TYPE)},
      {"commit", Json::string(a.commit)},
  });
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Options& opt = args.opt;
  Outcome (*run)(const Options&, Trace&) = nullptr;
  if (opt.workload == "paper_fig2") run = run_paper_fig2;
  else if (opt.workload == "cold_pipeline") run = run_cold_pipeline;
  else if (opt.workload == "tiled_dram") run = run_tiled_dram;
  else if (opt.workload == "serve_mix") run = run_serve_mix;
  else usage("unknown workload '" + opt.workload + "'");

  const auto info = stamp(args);
  std::printf("# stamp %s\n", info.dump().c_str());
  std::fflush(stdout);
  try {
    Trace trace;
    Outcome out = run(opt, trace);

    Fnv1a hash;
    for (const auto& line : out.digest) {
      std::printf("digest %s\n", line.c_str());
      hash.add(line);
    }
    std::printf("# digest %s: %zu points, hash %016llx\n", opt.workload.c_str(), out.digest.size(),
                static_cast<unsigned long long>(hash.value()));
    for (const auto& note : out.notes) std::printf("# %s\n", note.c_str());
    std::printf("# fail_ratio %.6g (%llu failed of %llu attempted)\n",
                out.attempted == 0 ? 1.0
                                   : static_cast<double>(out.failed) /
                                         static_cast<double>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));

    MetricSet metrics;
    if (opt.trace) {
      out.layers.emit(metrics);
      if (!args.trace_out.empty()) {
        std::ofstream file(args.trace_out);
        trace.write_chrome(file, info);
        if (!file) throw copift::Error("cannot write " + args.trace_out);
        std::printf("# trace written to %s\n", args.trace_out.c_str());
      }
    } else {
      out.e2e.emit(metrics);
    }
    for (const auto& m : metrics.items()) {
      std::printf("metric %-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    const bool correct = out.failed == 0 && out.attempted > 0;
    std::printf("%s\n", result_line(correct, out.attempted, out.failed, metrics).c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
}
