// DebugHub: interactive execution control over a sim::Cluster.
//
// The hub is the protocol-free half of the debug subsystem: it owns
// breakpoints (PC match), watchpoints (functional-memory traffic observed
// through mem::MemWatcher), stepping and resumption, and safe register/
// memory access while the cluster is stopped. The GDB stub (debug/stub.hpp)
// translates RSP packets into hub calls; tests drive the hub directly.
//
// Execution model: all harts share the cluster clock, so any step or resume
// advances every hart together — stepping "one hart" means advancing the
// cluster until that hart issues its next instruction. Breakpoints match the
// architectural PC at the end of a cycle; because programs are decoded once
// and immutable (ebreak raises a simulation error), PC match replaces the
// usual instruction patching and needs no memory writes.
//
// Observation-only guarantee: a hub that is attached but idle (no client,
// no breakpoints, no watchpoints) changes nothing — the memory watcher
// records only inside hub-driven ticks, and every cycle-advancing path is
// bit-identical to Cluster::run() (asserted in tests/test_debug.cpp).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <set>
#include <vector>

#include "mem/address_space.hpp"
#include "sim/cluster.hpp"

namespace copift::debug {

/// Watchpoint flavor, mirroring RSP Z2 (write) / Z3 (read) / Z4 (access).
enum class WatchKind : std::uint8_t { kWrite, kRead, kAccess };

/// Why execution stopped. kExited carries hart 0's exit code; kTimeout means
/// max_cycles elapsed without every hart halting.
struct Stop {
  enum class Reason : std::uint8_t {
    kBreakpoint,
    kWatchpoint,
    kStep,
    kInterrupt,
    kExited,
    kTimeout,
  };
  Reason reason = Reason::kStep;
  unsigned hart = 0;           // the stopping hart (focus hart for watch/interrupt)
  std::uint32_t addr = 0;      // breakpoint PC or watched address
  WatchKind watch_kind = WatchKind::kAccess;
  std::uint32_t exit_code = 0;  // kExited only
};

class DebugHub final : public mem::MemWatcher {
 public:
  explicit DebugHub(sim::Cluster& cluster);
  ~DebugHub() override;
  DebugHub(const DebugHub&) = delete;
  DebugHub& operator=(const DebugHub&) = delete;

  [[nodiscard]] sim::Cluster& cluster() noexcept { return *cluster_; }
  [[nodiscard]] const sim::Cluster& cluster() const noexcept { return *cluster_; }
  [[nodiscard]] unsigned num_harts() const noexcept { return cluster_->num_cores(); }

  /// Watch/interrupt stops need a hart to attribute to; the stub keeps this
  /// in sync with the RSP focus thread (`Hg`).
  void set_focus_hart(unsigned hart);
  [[nodiscard]] unsigned focus_hart() const noexcept { return focus_hart_; }

  // --- breakpoints / watchpoints -------------------------------------------
  void set_breakpoint(std::uint32_t addr) { breakpoints_.insert(addr); }
  bool clear_breakpoint(std::uint32_t addr) { return breakpoints_.erase(addr) > 0; }
  void set_watchpoint(std::uint32_t addr, std::uint32_t len, WatchKind kind);
  bool clear_watchpoint(std::uint32_t addr, std::uint32_t len, WatchKind kind);
  [[nodiscard]] std::size_t num_breakpoints() const noexcept { return breakpoints_.size(); }
  [[nodiscard]] std::size_t num_watchpoints() const noexcept { return watchpoints_.size(); }

  // --- execution -----------------------------------------------------------
  /// Advance exactly one cluster cycle (RSP `i`). Reports any stop the cycle
  /// produced, else a kStep stop on the focus hart.
  Stop step_cycle();
  /// Advance until `hart` issues one instruction (RSP `s`), a breakpoint/
  /// watchpoint fires first, or the run ends.
  Stop step_instruction(unsigned hart);
  /// Run until a stop event (RSP `c`). `interrupted` is polled periodically
  /// (every ~1k cycles) so a transport can deliver Ctrl-C.
  Stop resume(const std::function<bool()>& interrupted = {});
  /// Detach: drop all breakpoints/watchpoints and run to completion.
  Stop free_run();

  // --- stopped-state access (hart out of range throws copift::Error) -------
  [[nodiscard]] std::uint32_t read_gpr(unsigned hart, unsigned index) const;
  void write_gpr(unsigned hart, unsigned index, std::uint32_t value);
  [[nodiscard]] std::uint64_t read_fpr(unsigned hart, unsigned index) const;
  void write_fpr(unsigned hart, unsigned index, std::uint64_t value);
  [[nodiscard]] std::uint32_t pc(unsigned hart) const;
  void set_pc(unsigned hart, std::uint32_t pc);
  [[nodiscard]] bool hart_halted(unsigned hart) const;
  /// Byte-wise memory access; throws SimError on unmapped addresses. Hub
  /// accesses never trigger watchpoints.
  [[nodiscard]] std::vector<std::uint8_t> read_mem(std::uint32_t addr, std::uint32_t len) const;
  void write_mem(std::uint32_t addr, const std::vector<std::uint8_t>& bytes);

  // --- mem::MemWatcher -----------------------------------------------------
  void on_load(std::uint32_t addr, std::uint32_t size) override;
  void on_store(std::uint32_t addr, std::uint32_t size) override;

 private:
  struct Watchpoint {
    std::uint32_t addr;
    std::uint32_t len;
    WatchKind kind;
  };
  struct WatchHit {
    std::uint32_t addr;
    std::uint32_t size;
    bool store;
  };
  // A reported stop arms a one-shot suppression: the stopped hart does not
  // re-report a breakpoint at its current PC until it makes progress (PC
  // change or an issued instruction — the latter covers one-instruction
  // self-loops). Without it, continue-from-breakpoint could never leave a
  // stall window at the breakpoint address.
  struct Ignore {
    bool active = false;
    std::uint32_t pc = 0;
    std::uint64_t issue_baseline = 0;
  };

  [[nodiscard]] std::uint64_t issue_count(unsigned hart) const;
  [[nodiscard]] bool fpss_all_idle() const;
  [[nodiscard]] bool run_complete() const;  // halted + FPSS drained
  void check_hart(unsigned hart) const;
  /// One cycle with watch recording.
  void tick_checked();
  /// Scan PCs and watch hits after a cycle, queueing fresh stops.
  void collect_stops();
  [[nodiscard]] std::optional<Stop> pop_pending();
  [[nodiscard]] Stop report(Stop stop);
  [[nodiscard]] Stop exited_stop() const;

  sim::Cluster* cluster_;
  unsigned focus_hart_ = 0;
  std::set<std::uint32_t> breakpoints_;
  std::vector<Watchpoint> watchpoints_;
  std::vector<Ignore> ignore_;
  std::deque<Stop> pending_;
  std::vector<WatchHit> watch_hits_;
  bool recording_ = false;  // true only inside tick_checked()
};

}  // namespace copift::debug
