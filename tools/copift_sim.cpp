// copift-sim: command-line driver for the Snitch cluster simulator.
//
// Usage:
//   copift_sim <file.s> [--trace] [--max-cycles N]
//   copift_sim --list
//   copift_sim --kernel <name> [--variant base|copift|both] [--n N] [--block B]
//   copift_sim --kernel <name> --sweep <axis>=<v1,v2,...> [--sweep ...]
//              [--threads N] [--json] [--no-verify]
//
// Runs an assembly file (or any workload registered in the WorkloadRegistry)
// and prints the run summary, per-region IPC and the energy report. With
// `--sweep`, expands the requested axes (block, n, seed) into a grid, fans
// the independent runs out over `--threads N` engine workers, and prints the
// result table as CSV (or JSON with `--json`). `--list` shows every
// registered workload with its supported variants and default configuration.
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "debug/stub.hpp"
#include "energy/energy.hpp"
#include "engine/experiment.hpp"
#include "kernels/runner.hpp"
#include "lint/lint.hpp"
#include "rvasm/assembler.hpp"
#include "sim/cluster.hpp"
#include "sim/trace_export.hpp"
#include "workload/workload.hpp"

namespace {

using namespace copift;

constexpr const char* kVersion = "0.3.0";

// Sweep-mode SIGINT handling: the handler only flips the engine CancelToken
// (an async-signal-safe atomic store); the main thread then finishes the
// grid points already in flight and writes a partial table.
engine::CancelToken g_cancel;

void on_sigint(int) { g_cancel.request_stop(); }

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: copift_sim <file.s> [options]\n"
               "       copift_sim --kernel <name> [options]\n"
               "       copift_sim --kernel <name> --sweep <axis>=<v1,v2,...> [options]\n"
               "       copift_sim --list\n"
               "\n"
               "workload selection:\n"
               "  <file.s>               run an assembly file on the cluster\n"
               "  --kernel <name>        run a registered workload (see --list)\n"
               "  --variant base|copift|both\n"
               "                         workload variant (both requires --sweep)\n"
               "  --n N, --block B, --seed S\n"
               "                         override the workload's default config\n"
               "  --cores N              run on N core complexes (multi-hart workloads\n"
               "                         partition via mhartid; assembly files must\n"
               "                         handle mhartid/barrier themselves)\n"
               "  --tile T               DMA tile size in elements: place the workload's\n"
               "                         arrays in DRAM behind the double-buffered tile\n"
               "                         loop so n can exceed TCDM (0 = untiled;\n"
               "                         tiled-capable workloads only)\n"
               "  --dram                 enable the DRAM timing model (row-buffer +\n"
               "                         bandwidth); off = DMA at TCDM speed\n"
               "  --list                 print registered workloads and exit\n"
               "\n"
               "introspection (single-run mode):\n"
               "  --trace                print the first trace entries after the run\n"
               "  --trace-json FILE      write a Chrome/Perfetto trace-event JSON file\n"
               "                         (load it at https://ui.perfetto.dev); implies tracing\n"
               "  --report               print the top-down pipeline report: issue-slot\n"
               "                         occupancy, stall-cause histogram, dual-issue rate,\n"
               "                         hottest PCs, per-hart issue slots, barrier-wait\n"
               "                         cycles, the DMA/memory section (DMA busy%%, DRAM\n"
               "                         row hit rate, bytes moved) and the stall legend\n"
               "\n"
               "batch mode:\n"
               "  --sweep axis=v1,v2,... sweep an axis (block, n, seed, cores, tile);\n"
               "                         repeatable\n"
               "  --threads N            engine worker threads (0 = all cores)\n"
               "  --json                 emit the sweep result table as JSON, not CSV\n"
               "  --no-verify            skip golden-reference output verification\n"
               "\n"
               "debugging (single-run mode):\n"
               "  --gdb PORT             serve a GDB remote-serial-protocol stub on\n"
               "                         127.0.0.1:PORT (0 = ephemeral; the bound port is\n"
               "                         printed) and wait for a client before cycle 0.\n"
               "                         Attach with `gdb -ex 'target remote :PORT'` or\n"
               "                         tools/rsp_client.py; see docs/debugging.md\n"
               "\n"
               "linting:\n"
               "  --lint[=MODE]          statically verify the program before running it\n"
               "                         (MODE: off, warn, strict; bare --lint = warn).\n"
               "                         warn prints diagnostics and continues, strict\n"
               "                         makes any diagnostic a hard error; the mode also\n"
               "                         applies to every program a --sweep generates.\n"
               "                         Default: warn in debug builds, off in release\n"
               "                         (override with COPIFT_LINT=off|warn|strict)\n"
               "  --lint-json            lint only (no simulation): print the machine-\n"
               "                         readable lint report as JSON and exit 0 when\n"
               "                         clean, 1 when diagnostics fired\n"
               "\n"
               "misc:\n"
               "  --profile              print host-side timing after a single run:\n"
               "                         assemble+decode time, simulation time and simulated\n"
               "                         cycles per host second\n"
               "  --max-cycles N         abort the simulation after N cycles\n"
               "  --help, -h             this message\n"
               "  --version              print the version and exit\n"
               "\n"
               "examples:\n"
               "  copift_sim --kernel exp --sweep block=32,64,96,128   # paper Fig. 3 axis\n"
               "  copift_sim --kernel exp --sweep cores=1,2,4 --json   # dual-issue IPC and\n"
               "                         # energy scaling over the cluster size; every\n"
               "                         # multi-hart workload partitions via mhartid and\n"
               "                         # verifies bit-exact against the single-hart run\n"
               "\n"
               "See docs/performance-debugging.md for the stall-analysis workflow and\n"
               "docs/trace-format.md for the exact trace JSON / report schema.\n");
}

int usage() {
  print_usage(stderr);
  return 2;
}

/// Lint status of a workload for `--list`: every supported variant at the
/// default config, on the default core count.
std::string list_lint_status(const workload::Workload& w) {
  std::size_t diags = 0;
  try {
    const auto cfg = w.default_config();
    for (const auto v : w.variants()) {
      const auto generated = w.instantiate(v, cfg);
      diags += lint::lint_program(rvasm::assemble(generated.source), cfg.cores).diags.size();
    }
  } catch (const std::exception&) {
    return "error";
  }
  return diags == 0 ? "clean" : std::to_string(diags) + " diags";
}

int list_workloads() {
  const auto& registry = workload::WorkloadRegistry::instance();
  std::printf("%-18s %-18s %-10s %-26s %-8s %s\n", "workload", "variants", "cores",
              "default config", "lint", "description");
  for (const auto& name : registry.names()) {
    const auto w = registry.find(name);
    const auto cfg = w->default_config();
    bool multi_hart = false;
    for (const auto v : w->variants()) multi_hart = multi_hart || w->multi_hart_capable(v);
    char cfgbuf[64];
    std::snprintf(cfgbuf, sizeof(cfgbuf), "n=%u block=%u seed=%u", cfg.n, cfg.block, cfg.seed);
    std::printf("%-18s %-18s %-10s %-26s %-8s %s\n", name.c_str(), w->variants_list().c_str(),
                multi_hart ? "multi-hart" : "1", cfgbuf, list_lint_status(*w).c_str(),
                w->description().c_str());
  }
  return 0;
}

/// Strict uint32 flag-value parse: the whole string must be a decimal number
/// in range (stoul-style prefix parses silently accepted `--threads 4x`).
std::uint32_t parse_u32_flag(const char* flag, const char* value) {
  char* end = nullptr;
  errno = 0;
  const unsigned long v = std::strtoul(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || v > 0xFFFFFFFFul ||
      std::strchr(value, '-') != nullptr) {
    throw copift::Error(std::string(flag) + ": invalid value '" + value + "'");
  }
  return static_cast<std::uint32_t>(v);
}

std::uint64_t parse_u64_flag(const char* flag, const char* value) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE ||
      std::strchr(value, '-') != nullptr) {
    throw copift::Error(std::string(flag) + ": invalid value '" + value + "'");
  }
  return v;
}

int unknown_workload(const std::string& name) {
  std::fprintf(stderr, "error: unknown workload '%s'\nregistered workloads: %s\n",
               name.c_str(),
               workload::WorkloadRegistry::instance().names_list().c_str());
  return 2;
}

void print_summary(sim::Cluster& cluster) {
  const auto& c = cluster.counters();
  std::printf("cycles:        %llu\n", static_cast<unsigned long long>(c.cycles));
  std::printf("instructions:  %llu (int %llu, fp %llu, frep replays %llu)\n",
              static_cast<unsigned long long>(c.retired()),
              static_cast<unsigned long long>(c.int_retired),
              static_cast<unsigned long long>(c.fp_retired),
              static_cast<unsigned long long>(c.frep_replays));
  std::printf("IPC:           %.3f\n", c.ipc());
  std::printf("stalls:        raw %llu, wb-port %llu, offload %llu, tcdm %llu, "
              "barrier %llu, hw-barrier %llu, icache %llu, branch %llu, mem-order %llu, "
              "dma-wait %llu, dma-dram %llu\n",
              static_cast<unsigned long long>(c.stall_raw),
              static_cast<unsigned long long>(c.stall_wb_port),
              static_cast<unsigned long long>(c.stall_offload_full),
              static_cast<unsigned long long>(c.stall_tcdm),
              static_cast<unsigned long long>(c.stall_barrier),
              static_cast<unsigned long long>(c.stall_hw_barrier),
              static_cast<unsigned long long>(c.stall_icache),
              static_cast<unsigned long long>(c.stall_branch),
              static_cast<unsigned long long>(c.stall_mem_order),
              static_cast<unsigned long long>(c.stall_dma_wait),
              static_cast<unsigned long long>(c.stall_dma_dram));
  std::printf("memory:        tcdm reads %llu, writes %llu, conflicts %llu, "
              "ssr elements %llu\n",
              static_cast<unsigned long long>(c.tcdm_reads),
              static_cast<unsigned long long>(c.tcdm_writes),
              static_cast<unsigned long long>(c.tcdm_conflicts),
              static_cast<unsigned long long>(c.ssr_elements));
  if (c.dma_bytes > 0 || c.dma_busy_cycles > 0) {
    const std::uint64_t bursts = c.dram_row_hits + c.dram_row_misses;
    std::printf("dma/dram:      %llu bytes moved, dma busy %.1f%% of %llu cycles",
                static_cast<unsigned long long>(c.dma_bytes),
                c.cycles > 0 ? 100.0 * static_cast<double>(c.dma_busy_cycles) /
                                   static_cast<double>(c.cycles)
                             : 0.0,
                static_cast<unsigned long long>(c.cycles));
    if (bursts > 0) {
      std::printf(", dram row hits %llu/%llu (%.1f%%)",
                  static_cast<unsigned long long>(c.dram_row_hits),
                  static_cast<unsigned long long>(bursts),
                  100.0 * static_cast<double>(c.dram_row_hits) / static_cast<double>(bursts));
    }
    std::printf("\n");
  }
  // Per-complex energy: hart 0 carries the cluster constants, each further
  // hart its complex constant — the same model the engine sweeps use, so
  // single runs and sweep rows agree for any core count (for one core this
  // is exactly EnergyModel::evaluate).
  std::vector<sim::ActivityCounters> per_hart;
  per_hart.reserve(cluster.num_cores());
  for (unsigned h = 0; h < cluster.num_cores(); ++h) {
    per_hart.push_back(cluster.complex(h).counters());
  }
  const auto reports = energy::EnergyModel().evaluate_harts(per_hart);
  const auto report = energy::sum_reports(reports);
  std::printf("power/energy:  %.1f mW, %.1f nJ (const %.0f%%, int %.0f%%, fpss %.0f%%, "
              "mem %.0f%%, i$ %.0f%%)\n",
              report.power_mw(), report.energy_nj(),
              100 * report.constant_pj / report.total_pj,
              100 * report.int_core_pj / report.total_pj,
              100 * report.fpss_pj / report.total_pj,
              100 * report.memory_pj / report.total_pj,
              100 * report.icache_pj / report.total_pj);
  // Region delta aggregated over every hart's own marker window (cycles =
  // the slowest hart's window), matching the engine's region columns.
  sim::ActivityCounters region_delta{};
  bool have_regions = true;
  for (unsigned h = 0; h < cluster.num_cores(); ++h) {
    const auto& regions = cluster.complex(h).regions();
    if (regions.size() < 2) {
      have_regions = false;
      break;
    }
    region_delta = region_delta.plus(regions.back().snapshot.minus(regions.front().snapshot));
  }
  if (have_regions) {
    std::printf("region IPC:    %.3f over %llu cycles%s\n", region_delta.ipc(),
                static_cast<unsigned long long>(region_delta.cycles),
                cluster.num_cores() > 1 ? " (all harts, slowest marker window)" : "");
  }
}

/// --report section for the beyond-TCDM path: how busy the DMA engine was,
/// how well the access pattern exploited the DRAM row buffer, and how much
/// data crossed the cluster boundary. All zeros for TCDM-resident workloads.
std::string render_dma_report(const sim::Cluster& cluster) {
  const auto& c = cluster.counters();
  std::ostringstream os;
  os << "--- dma / memory hierarchy ---\n";
  const double busy_pct = c.cycles > 0 ? 100.0 * static_cast<double>(c.dma_busy_cycles) /
                                             static_cast<double>(c.cycles)
                                       : 0.0;
  os << "dma busy:      " << c.dma_busy_cycles << " of " << c.cycles << " cycles ("
     << std::fixed << std::setprecision(1) << busy_pct << "%)\n";
  os << "bytes moved:   " << c.dma_bytes << " (" << c.dma_cmds << " dmcpy commands)\n";
  const std::uint64_t bursts = c.dram_row_hits + c.dram_row_misses;
  if (bursts > 0) {
    os << "dram bursts:   " << bursts << ", row hits " << c.dram_row_hits << " ("
       << std::setprecision(1)
       << 100.0 * static_cast<double>(c.dram_row_hits) / static_cast<double>(bursts)
       << "%), row misses " << c.dram_row_misses << "\n";
  } else {
    os << "dram bursts:   0 (no DRAM traffic, or dram timing disabled)\n";
  }
  os << "dma stalls:    dmwait on TCDM-side drain " << c.stall_dma_wait
     << " cycles, on DRAM bursts " << c.stall_dma_dram << " cycles\n";
  return os.str();
}

/// One `--sweep axis=v1,v2,...` specification.
struct SweepSpec {
  std::string axis;
  std::vector<std::uint32_t> values;
};

bool parse_sweep(const std::string& arg, SweepSpec& out) {
  const auto eq = arg.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= arg.size()) return false;
  out.axis = arg.substr(0, eq);
  if (out.axis != "block" && out.axis != "n" && out.axis != "seed" && out.axis != "cores" &&
      out.axis != "tile") {
    return false;
  }
  out.values.clear();
  std::stringstream ss(arg.substr(eq + 1));
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) return false;
    out.values.push_back(static_cast<std::uint32_t>(std::stoul(item)));
  }
  return !out.values.empty();
}

}  // namespace

int main(int argc, char** argv) {
  std::string file;
  std::string kernel;
  std::string variant;  // empty = workload default
  std::string trace_json;
  bool trace = false;
  bool report = false;
  bool json = false;
  bool verify = true;
  bool profile = false;
  std::uint64_t max_cycles = 0;
  // -1 = flag absent, use the workload's default (0 is a legal user value
  // that validate() will reject with a config-specific message).
  std::int64_t n = -1;
  std::int64_t block = -1;
  std::int64_t seed = -1;
  std::int64_t cores = -1;
  std::int64_t tile = -1;
  bool dram = false;
  // -1 = no stub; 0..65535 = serve the gdb stub on that port (0 = ephemeral).
  std::int32_t gdb_port = -1;
  unsigned threads = 0;
  bool lint_flag = false;  // --lint[=MODE] given: mode set explicitly below
  bool lint_json = false;
  std::vector<SweepSpec> sweeps;
  try {
  int i = 1;
  // A value-taking flag with nothing after it (e.g. `--threads` as the last
  // argument) is a usage error, never a silent no-op.
  const auto value_of = [&](const std::string& flag) -> const char* {
    if (i + 1 >= argc) throw copift::Error(flag + " requires a value");
    return argv[++i];
  };
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") trace = true;
    else if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    }
    else if (arg == "--version") {
      std::printf("copift_sim %s\n", kVersion);
      return 0;
    }
    else if (arg == "--report") report = true;
    else if (arg == "--profile") profile = true;
    else if (arg == "--trace-json") trace_json = value_of(arg);
    else if (arg.rfind("--trace-json=", 0) == 0) trace_json = arg.substr(13);
    else if (arg == "--list") return list_workloads();
    else if (arg == "--json") json = true;
    else if (arg == "--no-verify") verify = false;
    else if (arg == "--kernel") kernel = value_of(arg);
    else if (arg == "--variant") variant = value_of(arg);
    else if (arg == "--n") n = parse_u32_flag("--n", value_of(arg));
    else if (arg == "--block") block = parse_u32_flag("--block", value_of(arg));
    else if (arg == "--seed") seed = parse_u32_flag("--seed", value_of(arg));
    else if (arg == "--cores") cores = parse_u32_flag("--cores", value_of(arg));
    else if (arg == "--tile") tile = parse_u32_flag("--tile", value_of(arg));
    else if (arg == "--dram") dram = true;
    // (numeric flag values are parsed as uint32 and stored widened, so -1
    // never collides with a user-supplied value)
    else if (arg == "--gdb") {
      // Strict numeric parse, same convention as --threads: `--gdb` as the
      // last argument or with a non-numeric value is an error, never a
      // silent default.
      const std::uint32_t port = parse_u32_flag("--gdb", value_of(arg));
      if (port > 65535) throw copift::Error("--gdb: port out of range (0-65535)");
      gdb_port = static_cast<std::int32_t>(port);
    }
    else if (arg == "--lint") {
      lint_flag = true;
      lint::set_pipeline_mode(lint::Mode::kWarn);
    }
    else if (arg.rfind("--lint=", 0) == 0) {
      // Strict enum parse: anything but off/warn/strict is an error, same
      // convention as the numeric flags.
      lint_flag = true;
      lint::set_pipeline_mode(lint::mode_from(arg.substr(7)));
    }
    else if (arg == "--lint-json") lint_json = true;
    else if (arg == "--max-cycles") max_cycles = parse_u64_flag("--max-cycles", value_of(arg));
    else if (arg == "--threads") threads = parse_u32_flag("--threads", value_of(arg));
    else if (arg == "--sweep") {
      SweepSpec spec;
      if (!parse_sweep(value_of(arg), spec)) return usage();
      sweeps.push_back(std::move(spec));
    }
    else if (arg.rfind("--", 0) == 0) return usage();
    else file = arg;
  }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();  // missing or malformed flag value
  }
  if (file.empty() && kernel.empty()) return usage();
  if (!sweeps.empty() && kernel.empty()) return usage();
  if (!variant.empty() && variant != "base" && variant != "baseline" && variant != "copift" &&
      variant != "both") {
    return usage();
  }
  if (variant == "both" && sweeps.empty()) {
    std::fprintf(stderr, "error: --variant both requires --sweep\n");
    return usage();
  }
  if (!sweeps.empty() && (report || !trace_json.empty())) {
    std::fprintf(stderr,
                 "error: --report/--trace-json trace a single run; drop --sweep\n"
                 "(sweep CSV/JSON already carries per-point stall-cause columns)\n");
    return 2;
  }
  if (gdb_port >= 0 && !sweeps.empty()) {
    std::fprintf(stderr, "error: --gdb debugs a single run; drop --sweep\n");
    return 2;
  }
  if (lint_json && !sweeps.empty()) {
    std::fprintf(stderr, "error: --lint-json lints a single program; drop --sweep\n");
    return 2;
  }

  try {
    sim::SimParams params;
    if (max_cycles > 0) params.max_cycles = max_cycles;
    if (cores >= 0) params.num_cores = static_cast<unsigned>(cores);
    params.dram_enabled = dram;

    std::shared_ptr<const workload::Workload> wl;
    std::vector<workload::Variant> run_variants;
    kernels::KernelConfig cfg;
    if (!kernel.empty()) {
      wl = workload::WorkloadRegistry::instance().find(kernel);
      if (wl == nullptr) return unknown_workload(kernel);
      cfg = wl->default_config();
      if (n >= 0) cfg.n = static_cast<std::uint32_t>(n);
      if (block >= 0) cfg.block = static_cast<std::uint32_t>(block);
      if (seed >= 0) cfg.seed = static_cast<std::uint32_t>(seed);
      if (cores >= 0) cfg.cores = static_cast<std::uint32_t>(cores);
      if (tile >= 0) cfg.tile = static_cast<std::uint32_t>(tile);
      if (variant == "both") {
        run_variants = {workload::Variant::kBaseline, workload::Variant::kCopift};
      } else if (!variant.empty()) {
        run_variants = {workload::variant_from(variant)};
      } else {
        run_variants = {wl->default_variant()};
      }
      for (const auto v : run_variants) {
        if (!wl->supports(v)) {
          std::fprintf(stderr, "error: workload '%s' does not support variant '%s'"
                       " (supported: %s)\n",
                       kernel.c_str(), workload::variant_name(v),
                       wl->variants_list().c_str());
          return 2;
        }
      }
    }

    if (!sweeps.empty()) {
      // Batch mode: expand the sweep axes into one engine experiment.
      engine::Experiment experiment;
      experiment.over(kernel).n(cfg.n).block(cfg.block).seed(cfg.seed).cores(cfg.cores)
          .tile(cfg.tile).verify(verify);
      experiment.over(std::span<const workload::Variant>(run_variants));
      if (max_cycles > 0 || dram) experiment.with_params("default", params);
      for (const auto& spec : sweeps) {
        const std::span<const std::uint32_t> values(spec.values);
        if (spec.axis == "block") experiment.sweep(values);
        else if (spec.axis == "n") experiment.sweep_n(values);
        else if (spec.axis == "cores") experiment.sweep_cores(values);
        else if (spec.axis == "tile") experiment.sweep_tiles(values);
        else experiment.sweep_seeds(values);
      }
      engine::SimEngine pool(threads);
      // Ctrl-C mid-sweep cancels between grid points and still emits the
      // finished rows, so a long sweep never dies with nothing to show.
      std::signal(SIGINT, on_sigint);
      const auto table = experiment.run(pool, &g_cancel);
      std::signal(SIGINT, SIG_DFL);
      if (json) table.write_json(std::cout);
      else table.write_csv(std::cout);
      const std::size_t total = experiment.grid().size();
      if (table.size() < total) {
        std::fprintf(stderr,
                     "interrupted: wrote %zu of %zu grid points (partial sweep)\n",
                     table.size(), total);
        return 130;  // 128 + SIGINT, the conventional interrupted-exit status
      }
      std::fprintf(stderr, "sweep: %zu grid points on %u threads\n", table.size(),
                   pool.threads());
      return 0;
    }

    std::string source;
    kernels::GeneratedKernel generated;
    bool have_kernel = false;
    if (wl != nullptr) {
      generated = wl->instantiate(run_variants.front(), cfg);
      source = generated.source;
      have_kernel = true;
      params.num_cores = cfg.cores;  // topology follows the workload config
      std::printf("workload %s (%s), n=%u, block=%u, seed=%u, cores=%u, tile=%u%s\n",
                  kernel.c_str(), workload::variant_name(generated.variant), cfg.n, cfg.block,
                  cfg.seed, cfg.cores, cfg.tile, dram ? " (dram timing on)" : "");
    } else {
      std::ifstream in(file);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", file.c_str());
        return 1;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      source = ss.str();
    }

    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    rvasm::Program program = rvasm::assemble(source);
    const std::string lint_what = have_kernel ? generated.name() : file;
    if (lint_json) {
      // Lint-only mode: machine-readable report, no simulation.
      const auto lint_report = lint::lint_program(program, params.num_cores);
      std::printf("%s\n", lint_report.json().c_str());
      return lint_report.clean() ? 0 : 1;
    }
    // Warn or fail before spending cycles on a broken program (strict mode
    // throws; the catch below renders the value-carrying diagnostics).
    if (lint::pipeline_mode() != lint::Mode::kOff) {
      const auto lint_report = lint::lint_program(program, params.num_cores);
      if (!lint_report.clean()) {
        const std::string header =
            "lint: " + lint_what + ": " + std::to_string(lint_report.diags.size()) +
            " diagnostic" + (lint_report.diags.size() == 1 ? "" : "s");
        if (lint::pipeline_mode() == lint::Mode::kStrict) {
          throw copift::Error(header + "\n" + lint_report.summary());
        }
        std::fprintf(stderr, "%s\n%s\n", header.c_str(), lint_report.summary().c_str());
      } else if (lint_flag) {
        std::printf("lint:          clean (%zu rules, %u hart%s)\n", lint::kNumRules,
                    params.num_cores, params.num_cores == 1 ? "" : "s");
      }
    }
    sim::Cluster cluster(std::move(program), params);
    const auto t1 = clock::now();
    cluster.set_tracing(trace || report || !trace_json.empty());
    if (have_kernel) kernels::populate_inputs(cluster, generated);
    const auto t2 = clock::now();
    sim::RunResult result;
    if (gdb_port >= 0) {
      // Wait-for-attach before cycle 0: the stub accepts one client, then
      // the client owns execution until the program exits or it detaches.
      debug::GdbStub stub(cluster, {static_cast<std::uint16_t>(gdb_port), false});
      std::printf("gdb stub listening on 127.0.0.1:%u\n", stub.port());
      std::fflush(stdout);
      result = stub.serve();
    } else {
      result = cluster.run();
    }
    const auto t3 = clock::now();
    std::printf("halted after %llu cycles (exit code %u)\n",
                static_cast<unsigned long long>(result.cycles), result.exit_code);
    print_summary(cluster);
    if (profile) {
      const auto ms = [](clock::duration d) {
        return std::chrono::duration<double, std::milli>(d).count();
      };
      const double sim_seconds = std::chrono::duration<double>(t3 - t2).count();
      const double cps = sim_seconds > 0.0
                             ? static_cast<double>(result.cycles) / sim_seconds
                             : 0.0;
      std::printf("\n--- host profile ---\n");
      std::printf("assemble+decode:  %.3f ms\n", ms(t1 - t0));
      std::printf("input setup:      %.3f ms\n", ms(t2 - t1));
      std::printf("simulation:       %.3f ms\n", ms(t3 - t2));
      std::printf("host throughput:  %.0f simulated cycles/s\n", cps);
    }
    if (have_kernel && verify) {
      kernels::verify_outputs(cluster, generated);
      std::printf("verification:  PASS (bit-exact vs golden reference)\n");
    } else if (have_kernel) {
      std::printf("verification:  skipped (--no-verify)\n");
    }
    if (!trace_json.empty()) {
      std::ofstream out(trace_json);
      if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n", trace_json.c_str());
        return 1;
      }
      sim::write_chrome_trace(out, cluster);  // one track group per hart
      std::printf("trace:         %s (load at https://ui.perfetto.dev)\n", trace_json.c_str());
    }
    if (report) {
      std::printf("\n%s\n%s\n%s\n%s",
                  sim::render_report(cluster.tracer(), cluster.counters(), 10,
                                     cluster.num_cores(), &cluster.program())
                      .c_str(),
                  sim::render_hart_summary(cluster).c_str(),
                  render_dma_report(cluster).c_str(),
                  sim::stall_taxonomy_legend().c_str());
      const auto lint_report = lint::lint_program(cluster.program(), cluster.num_cores());
      if (lint_report.clean()) {
        std::printf("lint: clean (%zu rules)\n", lint::kNumRules);
      } else {
        std::printf("lint: %zu diagnostics (rerun with --lint for details)\n",
                    lint_report.diags.size());
      }
    }
    if (trace) {
      std::printf("\n--- first 64 trace entries ---\n");
      unsigned count = 0;
      for (const auto& e : cluster.tracer().entries()) {
        if (++count > 64) break;
        (void)e;
      }
      std::fputs(cluster.tracer()
                     .render(0, cluster.tracer().entries().size() > 64
                                    ? cluster.tracer().entries()[63].cycle
                                    : UINT64_MAX)
                     .c_str(),
                 stdout);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
