#include "engine/experiment.hpp"

#include <array>
#include <optional>
#include <ostream>
#include <type_traits>

#include "common/error.hpp"
#include "common/json.hpp"

namespace copift::engine {

// --- ProgramCache -----------------------------------------------------------

std::shared_ptr<const rvasm::Program> ProgramCache::get(const kernels::GeneratedKernel& kernel) {
  Key key{kernel.name(),        static_cast<int>(kernel.variant), kernel.config.n,
          kernel.config.block,  kernel.config.seed,               kernel.config.cores,
          kernel.config.tile};
  std::lock_guard lock(mutex_);
  auto it = programs_.find(key);
  if (it != programs_.end()) {
    ++hits_;
    return it->second;
  }
  // Assemble under the lock: each program is built exactly once even when
  // many workers request it simultaneously. Assembly is cheap next to the
  // simulations that follow.
  auto program = kernels::assemble_kernel(kernel);
  programs_.emplace(std::move(key), program);
  return program;
}

std::size_t ProgramCache::size() const {
  std::lock_guard lock(mutex_);
  return programs_.size();
}

std::uint64_t ProgramCache::hits() const {
  std::lock_guard lock(mutex_);
  return hits_;
}

// --- ParamGrid --------------------------------------------------------------

std::size_t ParamGrid::size() const noexcept {
  return workloads.size() * variants.size() * ns.size() * blocks.size() * cores.size() *
         tiles.size() * seeds.size() * params.size();
}

GridPoint ParamGrid::point(std::size_t index) const {
  if (index >= size()) throw Error("ParamGrid::point: index out of range");
  GridPoint p;
  p.index = index;
  // Row-major, last axis fastest.
  std::size_t rest = index;
  const std::size_t pi = rest % params.size();
  rest /= params.size();
  const std::size_t si = rest % seeds.size();
  rest /= seeds.size();
  const std::size_t ti = rest % tiles.size();
  rest /= tiles.size();
  const std::size_t ci = rest % cores.size();
  rest /= cores.size();
  const std::size_t bi = rest % blocks.size();
  rest /= blocks.size();
  const std::size_t ni = rest % ns.size();
  rest /= ns.size();
  const std::size_t vi = rest % variants.size();
  rest /= variants.size();
  const std::size_t ki = rest;
  p.workload = workload::WorkloadRegistry::instance().at(workloads[ki]);
  p.variant = variants[vi];
  p.config.n = ns[ni];
  p.config.block = blocks[bi];
  p.config.seed = seeds[si];
  p.config.cores = cores[ci];
  p.config.tile = tiles[ti];
  p.params_label = params[pi].label;
  p.params = params[pi].params;
  p.params.num_cores = cores[ci];
  return p;
}

// --- ResultTable ------------------------------------------------------------

const ResultRow* ResultTable::find(std::string_view workload, Variant variant,
                                   std::uint32_t n, std::uint32_t block,
                                   const std::string& params_label, std::uint32_t cores,
                                   std::optional<std::uint32_t> seed,
                                   std::optional<std::uint32_t> tile) const {
  for (const auto& row : rows_) {
    if (row.point.name() != workload || row.point.variant != variant) continue;
    if (n != 0 && row.point.config.n != n) continue;
    if (block != 0 && row.point.config.block != block) continue;
    if (!params_label.empty() && row.point.params_label != params_label) continue;
    if (cores != 0 && row.point.config.cores != cores) continue;
    if (seed.has_value() && row.point.config.seed != *seed) continue;
    if (tile.has_value() && row.point.config.tile != *tile) continue;
    return &row;
  }
  return nullptr;
}

namespace {

/// RFC 4180 field quoting: wrap in double quotes when the value contains a
/// comma, quote, or line break, doubling embedded quotes. Plain values pass
/// through unchanged, so existing tables keep their exact bytes.
std::string csv_field(const std::string& value) {
  if (value.find_first_of(",\"\n\r") == std::string::npos) return value;
  std::string out;
  out.reserve(value.size() + 2);
  out += '"';
  for (const char c : value) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// Append each part: text as it is, integers in decimal, doubles through
/// the JSON number writer (the CSV prints them the same way).
template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  const auto one = [&out](const auto& part) {
    using T = std::remove_cvref_t<decltype(part)>;
    if constexpr (std::is_same_v<T, double>) {
      Json::append_number(out, part);
    } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, char>) {
      out += std::to_string(part);
    } else {
      out += part;
    }
  };
  (one(parts), ...);
}

// Stall-cause columns come from the marginal region for steady rows (the
// prologue-free window the paper reports) and the main-loop region
// otherwise, so utilization-vs-block plots line up with the IPC columns.
const sim::ActivityCounters& stall_region(const ResultRow& row) {
  return row.steady ? row.steady_region : row.run.region;
}

/// One issue-slot column: one slot counter, or (no `cause`) the unit's
/// total of `kind`.
struct StallColumn {
  const char* name;
  sim::TraceUnit unit;
  sim::SlotKind kind;
  std::optional<sim::StallCause> cause;

  [[nodiscard]] std::uint64_t value(const sim::ActivityCounters& c) const {
    return cause ? c.slot(*cause) : c.unit_cycles(unit, kind);
  }
};

struct UnitColumns {
  sim::TraceUnit unit;
  const char* issue_total;
  const char* stall_total;
};
constexpr UnitColumns kUnitColumns[] = {
    {sim::TraceUnit::kIntCore, "int_issue_cycles", "int_stall_cycles"},
    {sim::TraceUnit::kFpss, "fpss_issue_cycles", "fpss_stall_cycles"}};

constexpr std::size_t kNumStallColumns = [] {
  std::size_t n = 2 * std::size(kUnitColumns);
  for (const sim::CauseInfo& info : sim::kCauseInfo) n += info.kind != sim::SlotKind::kIssue;
  return n;
}();

/// Per unit: its issue and stall totals, its idle counter, then its
/// stall-kind counters, each in taxonomy order.
constexpr auto kStallColumns = [] {
  using sim::SlotKind;
  std::array<StallColumn, kNumStallColumns> columns{};
  std::size_t n = 0;
  for (const UnitColumns& u : kUnitColumns) {
    columns[n++] = {u.issue_total, u.unit, SlotKind::kIssue, {}};
    columns[n++] = {u.stall_total, u.unit, SlotKind::kStall, {}};
    for (const SlotKind kind : {SlotKind::kIdle, SlotKind::kStall}) {
      for (const sim::CauseInfo& info : sim::kCauseInfo) {
        if (info.unit == u.unit && info.kind == kind) {
          columns[n++] = {info.counter, u.unit, kind, info.cause};
        }
      }
    }
  }
  return columns;
}();

}  // namespace

void ResultTable::write_csv(std::ostream& os) const { os << csv(); }

void ResultTable::write_json(std::ostream& os) const { os << json(); }

std::string ResultTable::csv() const {
  std::string out =
      "index,kernel,variant,n,block,seed,cores,tile,params,verified,cycles,region_cycles,"
      "int_retired,fp_retired,ipc,power_mw,energy_nj,steady,steady_ipc,"
      "cycles_per_item,energy_pj_per_item";
  for (const StallColumn& col : kStallColumns) append(out, ',', col.name);
  out += '\n';
  for (const auto& row : rows_) {
    const auto& p = row.point;
    append(out, p.index, ',', csv_field(p.name()), ',', workload::variant_name(p.variant), ',',
           p.config.n, ',', p.config.block, ',', p.config.seed, ',', p.config.cores, ',',
           p.config.tile, ',', csv_field(p.params_label), ',', row.run.verified ? 1 : 0, ',',
           row.run.result.cycles, ',', row.run.region.cycles, ',', row.run.region.int_retired,
           ',', row.run.region.fp_retired, ',', row.run.ipc(), ',', row.run.power_mw(), ',',
           row.run.energy_nj(), ',', row.steady ? 1 : 0, ',',
           row.steady ? row.metrics.ipc : 0.0, ',',
           row.steady ? row.metrics.cycles_per_item : 0.0, ',',
           row.steady ? row.metrics.energy_pj_per_item : 0.0);
    for (const StallColumn& col : kStallColumns) {
      append(out, ',', col.value(stall_region(row)));
    }
    out += '\n';
  }
  return out;
}

std::string ResultTable::json() const {
  std::string out;
  append_json(out);
  return out;
}

void ResultTable::append_json(std::string& out, bool one_line) const {
  const std::string_view newline = one_line ? "" : "\n";
  append(out, '[', newline);
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const auto& row = rows_[i];
    const auto& p = row.point;
    append(out, "  {\"index\":", p.index, ",\"kernel\":");
    Json::append_quoted(out, p.name());
    append(out, ",\"variant\":\"", workload::variant_name(p.variant), "\",\"n\":", p.config.n,
           ",\"block\":", p.config.block, ",\"seed\":", p.config.seed,
           ",\"cores\":", p.config.cores, ",\"tile\":", p.config.tile, ",\"params\":");
    Json::append_quoted(out, p.params_label);
    append(out, ",\"verified\":", row.run.verified ? "true" : "false",
           ",\"cycles\":", row.run.result.cycles, ",\"region_cycles\":", row.run.region.cycles,
           ",\"ipc\":", row.run.ipc(), ",\"power_mw\":", row.run.power_mw(),
           ",\"energy_nj\":", row.run.energy_nj());
    if (row.steady) {
      append(out, ",\"steady_ipc\":", row.metrics.ipc,
             ",\"cycles_per_item\":", row.metrics.cycles_per_item,
             ",\"energy_pj_per_item\":", row.metrics.energy_pj_per_item);
    }
    const char* sep = ",\"stalls\":{";
    for (const StallColumn& col : kStallColumns) {
      append(out, sep, '"', col.name, "\":", col.value(stall_region(row)));
      sep = ",";
    }
    append(out, "}}", i + 1 < rows_.size() ? "," : "", newline);
  }
  append(out, ']', newline);
}

// --- Experiment -------------------------------------------------------------

Experiment& Experiment::over(std::string_view workload) {
  grid_.workloads.assign(1, std::string(workload));
  return *this;
}
Experiment& Experiment::over(std::span<const std::string_view> workloads) {
  grid_.workloads.assign(workloads.begin(), workloads.end());
  return *this;
}
Experiment& Experiment::over(std::span<const std::string> workloads) {
  grid_.workloads.assign(workloads.begin(), workloads.end());
  return *this;
}
Experiment& Experiment::over(std::initializer_list<std::string_view> workloads) {
  grid_.workloads.assign(workloads.begin(), workloads.end());
  return *this;
}
Experiment& Experiment::over(Variant variant) {
  grid_.variants.assign(1, variant);
  return *this;
}
Experiment& Experiment::over(std::span<const Variant> variants) {
  grid_.variants.assign(variants.begin(), variants.end());
  return *this;
}
Experiment& Experiment::over(std::initializer_list<Variant> variants) {
  grid_.variants.assign(variants.begin(), variants.end());
  return *this;
}

Experiment& Experiment::sweep(std::span<const std::uint32_t> blocks) {
  grid_.blocks.assign(blocks.begin(), blocks.end());
  return *this;
}
Experiment& Experiment::sweep(std::initializer_list<std::uint32_t> blocks) {
  grid_.blocks.assign(blocks.begin(), blocks.end());
  return *this;
}
Experiment& Experiment::sweep_n(std::span<const std::uint32_t> ns) {
  grid_.ns.assign(ns.begin(), ns.end());
  return *this;
}
Experiment& Experiment::sweep_n(std::initializer_list<std::uint32_t> ns) {
  grid_.ns.assign(ns.begin(), ns.end());
  return *this;
}
Experiment& Experiment::sweep_seeds(std::span<const std::uint32_t> seeds) {
  grid_.seeds.assign(seeds.begin(), seeds.end());
  return *this;
}
Experiment& Experiment::sweep_seeds(std::initializer_list<std::uint32_t> seeds) {
  grid_.seeds.assign(seeds.begin(), seeds.end());
  return *this;
}

Experiment& Experiment::n(std::uint32_t n) {
  grid_.ns.assign(1, n);
  return *this;
}
Experiment& Experiment::block(std::uint32_t block) {
  grid_.blocks.assign(1, block);
  return *this;
}
Experiment& Experiment::seed(std::uint32_t seed) {
  grid_.seeds.assign(1, seed);
  return *this;
}
Experiment& Experiment::cores(std::uint32_t cores) {
  grid_.cores.assign(1, cores);
  return *this;
}
Experiment& Experiment::sweep_cores(std::span<const std::uint32_t> cores) {
  grid_.cores.assign(cores.begin(), cores.end());
  return *this;
}
Experiment& Experiment::sweep_cores(std::initializer_list<std::uint32_t> cores) {
  grid_.cores.assign(cores.begin(), cores.end());
  return *this;
}
Experiment& Experiment::tile(std::uint32_t tile) {
  grid_.tiles.assign(1, tile);
  return *this;
}
Experiment& Experiment::sweep_tiles(std::span<const std::uint32_t> tiles) {
  grid_.tiles.assign(tiles.begin(), tiles.end());
  return *this;
}
Experiment& Experiment::sweep_tiles(std::initializer_list<std::uint32_t> tiles) {
  grid_.tiles.assign(tiles.begin(), tiles.end());
  return *this;
}

Experiment& Experiment::with_params(std::string label, const sim::SimParams& params) {
  if (params_defaulted_) {
    grid_.params.clear();
    params_defaulted_ = false;
  }
  grid_.params.push_back(ParamsVariant{std::move(label), params});
  return *this;
}

Experiment& Experiment::verify(bool enabled) {
  verify_ = enabled;
  return *this;
}

Experiment& Experiment::verify_if(std::function<bool(const GridPoint&)> predicate) {
  verify_pred_ = std::move(predicate);
  return *this;
}

Experiment& Experiment::steady(std::uint32_t n1, std::uint32_t n2) {
  if (n2 <= n1) throw Error("Experiment::steady requires n2 > n1");
  steady_ = SteadyWindow{n1, n2};
  return *this;
}

ResultRow run_point(const GridPoint& point, bool verify, ProgramCache& programs,
                    const std::optional<SteadyWindow>& steady) {
  ResultRow row;
  row.point = point;
  if (!steady) {
    const auto kernel = point.workload->instantiate(point.variant, point.config);
    row.run = kernels::run_kernel(kernel, programs.get(kernel), point.params, verify);
    return row;
  }
  kernels::KernelConfig c1 = point.config;
  c1.n = steady->n1;
  kernels::KernelConfig c2 = point.config;
  c2.n = steady->n2;
  const auto k1 = point.workload->instantiate(point.variant, c1);
  const auto k2 = point.workload->instantiate(point.variant, c2);
  const auto r1 = kernels::run_kernel(k1, programs.get(k1), point.params, verify);
  auto r2 = kernels::run_kernel(k2, programs.get(k2), point.params, verify);
  row.steady = true;
  row.metrics = kernels::steady_from_runs(r1, r2, point.workload->items(c1),
                                          point.workload->items(c2));
  row.steady_region = r2.region.minus(r1.region);
  row.run = std::move(r2);
  row.point.config.n = steady->n2;
  return row;
}

ResultTable Experiment::run(SimEngine& engine, const CancelToken* cancel) const {
  const std::size_t count = grid_.size();
  std::vector<ResultRow> rows(count);
  std::vector<unsigned char> done(count, 0);
  ProgramCache cache;
  const bool complete = engine.parallel_for(count, [&](std::size_t i) {
    const GridPoint pt = grid_.point(i);
    const bool verify = verify_ && (!verify_pred_ || verify_pred_(pt));
    rows[i] = run_point(pt, verify, cache, steady_);
    done[i] = 1;
  }, cancel);
  if (!complete) {
    // Keep only the grid points that finished, preserving grid order, so an
    // interrupted sweep still yields every result that was paid for.
    std::vector<ResultRow> partial;
    for (std::size_t i = 0; i < count; ++i) {
      if (done[i]) partial.push_back(std::move(rows[i]));
    }
    return ResultTable(std::move(partial));
  }
  return ResultTable(std::move(rows));
}

}  // namespace copift::engine
