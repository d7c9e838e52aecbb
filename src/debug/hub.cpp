#include "debug/hub.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace copift::debug {

DebugHub::DebugHub(sim::Cluster& cluster)
    : cluster_(&cluster), ignore_(cluster.num_cores()) {
  cluster_->memory().set_watcher(this);
}

DebugHub::~DebugHub() { cluster_->memory().set_watcher(nullptr); }

void DebugHub::set_focus_hart(unsigned hart) {
  check_hart(hart);
  focus_hart_ = hart;
}

void DebugHub::set_watchpoint(std::uint32_t addr, std::uint32_t len, WatchKind kind) {
  if (len == 0) len = 1;
  clear_watchpoint(addr, len, kind);  // setting twice stays one watchpoint
  watchpoints_.push_back({addr, len, kind});
}

bool DebugHub::clear_watchpoint(std::uint32_t addr, std::uint32_t len, WatchKind kind) {
  if (len == 0) len = 1;
  const auto it = std::find_if(watchpoints_.begin(), watchpoints_.end(),
                               [&](const Watchpoint& w) {
                                 return w.addr == addr && w.len == len && w.kind == kind;
                               });
  if (it == watchpoints_.end()) return false;
  watchpoints_.erase(it);
  return true;
}

std::uint64_t DebugHub::issue_count(unsigned hart) const {
  const auto& c = cluster_->complex(hart).counters();
  return c.int_retired + c.int_offloads;
}

bool DebugHub::fpss_all_idle() const {
  for (unsigned h = 0; h < cluster_->num_cores(); ++h) {
    if (!cluster_->complex(h).fpss().idle()) return false;
  }
  return true;
}

bool DebugHub::run_complete() const { return cluster_->halted() && fpss_all_idle(); }

void DebugHub::check_hart(unsigned hart) const {
  if (hart >= cluster_->num_cores()) {
    throw Error("debug: hart " + std::to_string(hart) + " out of range (cluster has " +
                std::to_string(cluster_->num_cores()) + ")");
  }
}

void DebugHub::tick_checked() {
  watch_hits_.clear();
  recording_ = !watchpoints_.empty();
  cluster_->tick();
  recording_ = false;
}

void DebugHub::on_load(std::uint32_t addr, std::uint32_t size) {
  if (recording_) watch_hits_.push_back({addr, size, false});
}

void DebugHub::on_store(std::uint32_t addr, std::uint32_t size) {
  if (recording_) watch_hits_.push_back({addr, size, true});
}

void DebugHub::collect_stops() {
  for (unsigned h = 0; h < cluster_->num_cores(); ++h) {
    Ignore& ig = ignore_[h];
    const std::uint32_t hart_pc = cluster_->complex(h).core().pc();
    if (ig.active && (hart_pc != ig.pc || issue_count(h) > ig.issue_baseline)) {
      ig.active = false;
    }
    if (cluster_->complex(h).core().halted()) continue;
    if (!breakpoints_.contains(hart_pc)) continue;
    if (ig.active && ig.pc == hart_pc) continue;  // reported, not yet past it
    // Avoid queueing the same hit every stall cycle the hart sits at the
    // breakpoint: suppress immediately, pop_pending() re-reports it.
    ig.active = true;
    ig.pc = hart_pc;
    ig.issue_baseline = issue_count(h);
    pending_.push_back({Stop::Reason::kBreakpoint, h, hart_pc, WatchKind::kAccess, 0});
  }
  for (const WatchHit& hit : watch_hits_) {
    for (const Watchpoint& wp : watchpoints_) {
      const bool kind_match = wp.kind == WatchKind::kAccess ||
                              (wp.kind == WatchKind::kWrite && hit.store) ||
                              (wp.kind == WatchKind::kRead && !hit.store);
      if (!kind_match) continue;
      if (hit.addr >= wp.addr + wp.len || wp.addr >= hit.addr + hit.size) continue;
      const std::uint32_t addr = std::max(hit.addr, wp.addr);
      const bool dup = std::any_of(pending_.begin(), pending_.end(), [&](const Stop& s) {
        return s.reason == Stop::Reason::kWatchpoint && s.addr == addr &&
               s.watch_kind == wp.kind;
      });
      if (!dup) {
        pending_.push_back({Stop::Reason::kWatchpoint, focus_hart_, addr, wp.kind, 0});
      }
      break;  // one stop per hit is enough
    }
  }
  watch_hits_.clear();
}

std::optional<Stop> DebugHub::pop_pending() {
  if (pending_.empty()) return std::nullopt;
  Stop s = pending_.front();
  pending_.pop_front();
  return s;
}

Stop DebugHub::report(Stop stop) {
  // Re-arm suppression for the reported hart at its current PC so continue
  // makes progress even when a breakpoint sits right here.
  if (stop.hart < ignore_.size()) {
    Ignore& ig = ignore_[stop.hart];
    ig.active = true;
    ig.pc = cluster_->complex(stop.hart).core().pc();
    ig.issue_baseline = issue_count(stop.hart);
  }
  return stop;
}

Stop DebugHub::exited_stop() const {
  return {Stop::Reason::kExited, 0, 0, WatchKind::kAccess,
          cluster_->complex(0).core().exit_code()};
}

Stop DebugHub::step_cycle() {
  if (const auto s = pop_pending()) return report(*s);
  if (run_complete()) return exited_stop();
  if (cluster_->cycles() >= cluster_->topology().shared().max_cycles) {
    return {Stop::Reason::kTimeout, focus_hart_, 0, WatchKind::kAccess, 0};
  }
  tick_checked();
  collect_stops();
  if (const auto s = pop_pending()) return report(*s);
  return report({Stop::Reason::kStep, focus_hart_, pc(focus_hart_), WatchKind::kAccess, 0});
}

Stop DebugHub::step_instruction(unsigned hart) {
  check_hart(hart);
  if (const auto s = pop_pending()) return report(*s);
  const std::uint64_t max_cycles = cluster_->topology().shared().max_cycles;
  const std::uint64_t baseline = issue_count(hart);
  while (true) {
    if (run_complete()) return exited_stop();
    if (cluster_->cycles() >= max_cycles) {
      return {Stop::Reason::kTimeout, hart, 0, WatchKind::kAccess, 0};
    }
    tick_checked();
    collect_stops();
    if (const auto s = pop_pending()) return report(*s);
    if (issue_count(hart) > baseline || cluster_->complex(hart).core().halted()) {
      return report({Stop::Reason::kStep, hart, pc(hart), WatchKind::kAccess, 0});
    }
  }
}

Stop DebugHub::resume(const std::function<bool()>& interrupted) {
  if (const auto s = pop_pending()) return report(*s);
  const std::uint64_t max_cycles = cluster_->topology().shared().max_cycles;
  std::uint64_t ticks = 0;
  while (true) {
    if (run_complete()) return exited_stop();
    if (cluster_->cycles() >= max_cycles) {
      return {Stop::Reason::kTimeout, focus_hart_, 0, WatchKind::kAccess, 0};
    }
    tick_checked();
    collect_stops();
    if (const auto s = pop_pending()) return report(*s);
    if (interrupted && (++ticks & 0x3FF) == 0 && interrupted()) {
      return report({Stop::Reason::kInterrupt, focus_hart_, pc(focus_hart_),
                     WatchKind::kAccess, 0});
    }
  }
}

Stop DebugHub::free_run() {
  breakpoints_.clear();
  watchpoints_.clear();
  pending_.clear();
  for (Ignore& ig : ignore_) ig.active = false;
  const std::uint64_t max_cycles = cluster_->topology().shared().max_cycles;
  while (!run_complete()) {
    if (cluster_->cycles() >= max_cycles) {
      return {Stop::Reason::kTimeout, 0, 0, WatchKind::kAccess, 0};
    }
    cluster_->tick();
  }
  return exited_stop();
}

std::uint32_t DebugHub::read_gpr(unsigned hart, unsigned index) const {
  check_hart(hart);
  if (index >= 32) throw Error("debug: GPR index out of range");
  return cluster_->complex(hart).core().reg(index);
}

void DebugHub::write_gpr(unsigned hart, unsigned index, std::uint32_t value) {
  check_hart(hart);
  if (index >= 32) throw Error("debug: GPR index out of range");
  cluster_->complex(hart).core().set_reg(index, value);
}

std::uint64_t DebugHub::read_fpr(unsigned hart, unsigned index) const {
  check_hart(hart);
  if (index >= 32) throw Error("debug: FPR index out of range");
  return cluster_->complex(hart).fpss().rf().read(index);
}

void DebugHub::write_fpr(unsigned hart, unsigned index, std::uint64_t value) {
  check_hart(hart);
  if (index >= 32) throw Error("debug: FPR index out of range");
  cluster_->complex(hart).fpss().rf().write(index, value);
}

std::uint32_t DebugHub::pc(unsigned hart) const {
  check_hart(hart);
  return cluster_->complex(hart).core().pc();
}

void DebugHub::set_pc(unsigned hart, std::uint32_t pc) {
  check_hart(hart);
  cluster_->complex(hart).core().debug_set_pc(pc);
}

bool DebugHub::hart_halted(unsigned hart) const {
  check_hart(hart);
  return cluster_->complex(hart).core().halted();
}

std::vector<std::uint8_t> DebugHub::read_mem(std::uint32_t addr, std::uint32_t len) const {
  // Text lives predecoded in the Program, not in the AddressSpace; serve it
  // from the raw encodings so debuggers can disassemble at the PC.
  const rvasm::Program& prog = cluster_->program();
  const std::uint32_t text_end =
      prog.text_base + static_cast<std::uint32_t>(prog.text_words.size()) * 4;
  std::vector<std::uint8_t> out;
  out.reserve(len);
  for (std::uint32_t i = 0; i < len; ++i) {
    const std::uint32_t a = addr + i;
    if (a >= prog.text_base && a < text_end) {
      const std::uint32_t word = prog.text_words[(a - prog.text_base) / 4];
      out.push_back(static_cast<std::uint8_t>(word >> (8 * (a % 4))));
    } else {
      out.push_back(cluster_->memory().load8(a));
    }
  }
  return out;
}

void DebugHub::write_mem(std::uint32_t addr, const std::vector<std::uint8_t>& bytes) {
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    cluster_->memory().store8(addr + static_cast<std::uint32_t>(i), bytes[i]);
  }
}

}  // namespace copift::debug
