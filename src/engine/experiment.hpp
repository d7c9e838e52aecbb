// Declarative parameter-sweep experiments over the workload simulator.
//
//   engine::SimEngine pool(8);
//   auto table = engine::Experiment()
//                    .over({"exp", "log", "pi_lcg"})  // registry names
//                    .over({workload::Variant::kBaseline, workload::Variant::kCopift})
//                    .sweep({32, 64, 96, 128})        // COPIFT block sizes
//                    .run(pool);
//   table.write_csv(std::cout);
//
// Workloads are addressed by their WorkloadRegistry names — any workload
// registered through the public API (including out-of-tree ones) sweeps
// exactly like the paper kernels. The experiment expands its axes into a
// cartesian ParamGrid, assembles each distinct program exactly once into a
// shared immutable rvasm::Program (via ProgramCache), fans the runs out
// across the engine's worker threads, and collects results keyed by grid
// index — so a ResultTable is bit-identical whether it was produced by
// 1 thread or by 16.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "energy/energy.hpp"
#include "engine/engine.hpp"
#include "kernels/runner.hpp"
#include "sim/params.hpp"
#include "workload/workload.hpp"

namespace copift::engine {

using workload::Variant;

/// Assemble-once cache: maps (workload name, variant, config) to the shared
/// immutable program every run of that grid point reuses. Thread-safe.
class ProgramCache {
 public:
  /// Return the shared program for `kernel`, assembling it on first use.
  std::shared_ptr<const rvasm::Program> get(const kernels::GeneratedKernel& kernel);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t hits() const;

 private:
  using Key = std::tuple<std::string, int, std::uint32_t, std::uint32_t, std::uint32_t,
                         std::uint32_t, std::uint32_t>;
  mutable std::mutex mutex_;
  std::map<Key, std::shared_ptr<const rvasm::Program>> programs_;
  std::uint64_t hits_ = 0;
};

/// A named simulator configuration for hardware-parameter sweeps
/// (e.g. the ablation benchmarks sweep offload FIFO depths).
struct ParamsVariant {
  std::string label = "default";
  sim::SimParams params{};
};

/// One fully resolved grid coordinate. `workload` is the registry handle for
/// the point's workload name.
struct GridPoint {
  std::size_t index = 0;  // row-major position in the grid
  std::shared_ptr<const workload::Workload> workload;
  Variant variant = Variant::kCopift;
  kernels::KernelConfig config{};
  std::string params_label = "default";
  sim::SimParams params{};

  [[nodiscard]] std::string name() const {
    return workload ? workload->name() : std::string();
  }
};

/// Cartesian product of experiment axes. Every axis has a single default
/// value, so an empty grid is one default COPIFT exp run. Workloads are
/// named; names resolve through the process-wide WorkloadRegistry when a
/// point is materialized (unknown names throw, listing what is registered).
class ParamGrid {
 public:
  std::vector<std::string> workloads{"exp"};
  std::vector<Variant> variants{Variant::kCopift};
  std::vector<std::uint32_t> ns{1024};
  std::vector<std::uint32_t> blocks{32};
  std::vector<std::uint32_t> cores{1};
  /// DMA tile sizes (0 = untiled TCDM-resident codegen; > 0 places the
  /// workload's arrays in DRAM behind the double-buffered tile loop).
  std::vector<std::uint32_t> tiles{0};
  std::vector<std::uint32_t> seeds{42};
  std::vector<ParamsVariant> params{ParamsVariant{}};

  [[nodiscard]] std::size_t size() const noexcept;
  /// Resolve the i-th point (row-major over workloads, variants, ns, blocks,
  /// cores, tiles, seeds, params — last axis fastest). The point's cores
  /// value lands in both config.cores and params.num_cores. Throws on
  /// out-of-range or an unregistered workload name.
  [[nodiscard]] GridPoint point(std::size_t index) const;
};

/// One completed grid point.
struct ResultRow {
  GridPoint point;
  kernels::KernelRun run;  // steady mode: the larger (n2) run

  // Steady-state mode extras (valid when `steady` is true).
  bool steady = false;
  kernels::SteadyMetrics metrics{};
  sim::ActivityCounters steady_region{};  // marginal counters: region(n2) - region(n1)

  [[nodiscard]] double ipc() const noexcept { return steady ? metrics.ipc : run.ipc(); }
  [[nodiscard]] double power_mw() const noexcept {
    return steady ? metrics.power_mw : run.power_mw();
  }
};

/// Deterministically ordered sweep results (row i == grid point i).
class ResultTable {
 public:
  ResultTable() = default;
  explicit ResultTable(std::vector<ResultRow> rows) : rows_(std::move(rows)) {}

  [[nodiscard]] const std::vector<ResultRow>& rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  [[nodiscard]] const ResultRow& at(std::size_t index) const { return rows_.at(index); }

  /// First row matching the given coordinates; 0 means "any" for n, block
  /// and cores (cores is always >= 1 in a materialized grid), and an empty
  /// optional means "any" seed or tile (0 is a legal seed value and the
  /// untiled tile value). Tables produced by cores, tile or seed sweeps hold
  /// several rows per (workload, variant) pair — pass the cores/tile/seed
  /// filters there or the first row of the wrong configuration comes back.
  /// Returns nullptr when no row matches.
  [[nodiscard]] const ResultRow* find(std::string_view workload, Variant variant,
                                      std::uint32_t n = 0, std::uint32_t block = 0,
                                      const std::string& params_label = {},
                                      std::uint32_t cores = 0,
                                      std::optional<std::uint32_t> seed = std::nullopt,
                                      std::optional<std::uint32_t> tile = std::nullopt) const;

  void write_csv(std::ostream& os) const;
  void write_json(std::ostream& os) const;
  [[nodiscard]] std::string csv() const;
  [[nodiscard]] std::string json() const;
  /// Append the JSON array json() returns to `out`. `one_line` drops its
  /// line breaks and nothing else: the form a serve reply embeds.
  void append_json(std::string& out, bool one_line = false) const;

 private:
  std::vector<ResultRow> rows_;
};

/// The steady-state window: each point runs at n1 and at n2 > n1 and
/// reports the marginal metrics between the two (see Experiment::steady).
struct SteadyWindow {
  std::uint32_t n1 = 0;
  std::uint32_t n2 = 0;
};

/// Run one grid point: instantiate its program, assemble it through
/// `programs` (once per distinct program), simulate, verify when `verify`
/// and evaluate energy. The per-point job of Experiment::run and of the
/// serve daemon. With `steady` the row is a steady row at config.n = n2.
[[nodiscard]] ResultRow run_point(const GridPoint& point, bool verify, ProgramCache& programs,
                                  const std::optional<SteadyWindow>& steady = std::nullopt);

/// Builder for a batch experiment. All setters return *this for chaining:
///   Experiment().over({"exp", "log"}).over(variants).sweep(blocks).run(engine)
class Experiment {
 public:
  // --- workload / variant axes ---------------------------------------------
  Experiment& over(std::string_view workload);
  Experiment& over(std::span<const std::string_view> workloads);
  Experiment& over(std::span<const std::string> workloads);
  Experiment& over(std::initializer_list<std::string_view> workloads);
  Experiment& over(Variant variant);
  Experiment& over(std::span<const Variant> variants);
  Experiment& over(std::initializer_list<Variant> variants);

  // --- numeric axes -------------------------------------------------------
  /// Sweep the COPIFT block size B (the paper's Fig. 3 x-axis).
  Experiment& sweep(std::span<const std::uint32_t> blocks);
  Experiment& sweep(std::initializer_list<std::uint32_t> blocks);
  Experiment& sweep_n(std::span<const std::uint32_t> ns);
  Experiment& sweep_n(std::initializer_list<std::uint32_t> ns);
  Experiment& sweep_seeds(std::span<const std::uint32_t> seeds);
  Experiment& sweep_seeds(std::initializer_list<std::uint32_t> seeds);
  /// Sweep the hart count (each point runs on a topology of that many
  /// core complexes; the workload must be multi-hart capable for values > 1).
  Experiment& sweep_cores(std::span<const std::uint32_t> cores);
  Experiment& sweep_cores(std::initializer_list<std::uint32_t> cores);
  /// Sweep the DMA tile size (0 = untiled; > 0 needs a tiled-capable
  /// workload — the arrays move to DRAM behind double-buffered DMA).
  Experiment& sweep_tiles(std::span<const std::uint32_t> tiles);
  Experiment& sweep_tiles(std::initializer_list<std::uint32_t> tiles);

  /// Fix single values without sweeping.
  Experiment& n(std::uint32_t n);
  Experiment& block(std::uint32_t block);
  Experiment& seed(std::uint32_t seed);
  Experiment& cores(std::uint32_t cores);
  Experiment& tile(std::uint32_t tile);

  // --- simulator configuration ----------------------------------------------
  /// Add a named SimParams variant to the params axis. The first call
  /// replaces the default configuration; later calls append.
  Experiment& with_params(std::string label, const sim::SimParams& params);

  // --- run semantics -------------------------------------------------------
  /// Verify every run against the golden references (default on).
  Experiment& verify(bool enabled);
  /// Per-point verification predicate (e.g. verify only small problems).
  Experiment& verify_if(std::function<bool(const GridPoint&)> predicate);
  /// Steady-state mode: each grid point runs at n1 and n2 > n1 and reports
  /// marginal (prologue-free) metrics; the grid's n axis is ignored. The
  /// per-item normalization uses the workload's items() accounting.
  Experiment& steady(std::uint32_t n1, std::uint32_t n2);

  [[nodiscard]] const ParamGrid& grid() const noexcept { return grid_; }
  [[nodiscard]] ParamGrid& grid() noexcept { return grid_; }

  /// Execute the whole grid on the engine's worker pool. Each distinct
  /// program is assembled exactly once and shared immutably across runs.
  /// Results are keyed by grid index: the returned table is identical for
  /// any engine thread count.
  ///
  /// When `cancel` is given and fires mid-sweep, no further grid points
  /// start; the returned table then holds only the points that finished, in
  /// grid order (compare size() against grid().size() to detect truncation —
  /// completed rows are never discarded).
  [[nodiscard]] ResultTable run(SimEngine& engine, const CancelToken* cancel = nullptr) const;

 private:
  ParamGrid grid_;
  bool verify_ = true;
  std::function<bool(const GridPoint&)> verify_pred_;
  std::optional<SteadyWindow> steady_;
  bool params_defaulted_ = true;
};

}  // namespace copift::engine
