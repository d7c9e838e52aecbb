#include "debug/stub.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"
#include "energy/energy.hpp"

namespace copift::debug {

namespace {

constexpr const char* kGprNames[32] = {
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "fp", "s1", "a0",
    "a1",   "a2", "a3", "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5",
    "s6",   "s7", "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6"};

constexpr const char* kFprNames[32] = {
    "ft0", "ft1", "ft2",  "ft3",  "ft4", "ft5", "ft6",  "ft7",
    "fs0", "fs1", "fa0",  "fa1",  "fa2", "fa3", "fa4",  "fa5",
    "fa6", "fa7", "fs2",  "fs3",  "fs4", "fs5", "fs6",  "fs7",
    "fs8", "fs9", "fs10", "fs11", "ft8", "ft9", "ft10", "ft11"};

std::string hex_addr(std::uint32_t addr) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%x", addr);
  return buf;
}

}  // namespace

GdbStub::GdbStub(sim::Cluster& cluster, StubOptions options)
    : hub_(cluster), options_(options), listener_(options.port) {}

sim::RunResult GdbStub::serve() {
  serve::WakePipe wake;  // nothing wakes it; keeps accept_client interruptible
  std::fprintf(stderr, "gdb-stub: waiting for a client on 127.0.0.1:%u "
               "(gdb: `target remote :%u`)\n", port(), port());
  int fd = -1;
  while (fd < 0) fd = listener_.accept_client(wake.read_fd());
  conn_ = std::make_unique<serve::Connection>(fd);
  listener_.close();  // one debugger per run
  std::fprintf(stderr, "gdb-stub: client attached at cycle %" PRIu64 "\n",
               hub_.cluster().cycles());

  bool open = true;
  while (open && !detached_) {
    if (inbox_.empty()) {
      open = pump(-1);
      continue;
    }
    const auto event = inbox_.front();
    inbox_.pop_front();
    handle_event(event);
  }
  conn_.reset();

  // Detach, kill, or client hangup: the run still has to finish so the
  // driver can print its summary and verify outputs. free_run() returns
  // immediately when the run already completed under the debugger.
  if (!timed_out_) {
    const Stop final = hub_.free_run();
    timed_out_ = final.reason == Stop::Reason::kTimeout;
  }
  if (timed_out_) {
    throw SimError("simulation exceeded max_cycles (" +
                   std::to_string(hub_.cluster().topology().shared().max_cycles) + ")");
  }
  sim::RunResult result;
  result.halted = hub_.cluster().halted();
  result.cycles = hub_.cluster().cycles();
  result.exit_code = hub_.cluster().core().exit_code();
  return result;
}

bool GdbStub::pump(int timeout_ms) {
  std::string bytes;
  const auto status = conn_->read_bytes(bytes, -1, timeout_ms);
  if (status == serve::Connection::ReadStatus::kClosed ||
      status == serve::Connection::ReadStatus::kWake) {
    return false;
  }
  if (!bytes.empty()) {
    reader_.feed(bytes);
    while (auto event = reader_.next()) inbox_.push_back(std::move(*event));
  }
  return true;
}

bool GdbStub::take_interrupt() {
  const auto it = std::find_if(inbox_.begin(), inbox_.end(), [](const auto& e) {
    return e.kind == rsp::PacketReader::Event::Kind::kInterrupt;
  });
  if (it == inbox_.end()) return false;
  inbox_.erase(it);
  return true;
}

void GdbStub::handle_event(const rsp::PacketReader::Event& event) {
  using Kind = rsp::PacketReader::Event::Kind;
  switch (event.kind) {
    case Kind::kPacket: {
      conn_->send_bytes("+");
      if (options_.verbose) std::fprintf(stderr, "gdb-stub: <- %s\n", event.payload.c_str());
      reply(dispatch(event.payload));
      break;
    }
    case Kind::kBadChecksum:
      conn_->send_bytes("-");
      break;
    case Kind::kNack:
      if (!last_frame_.empty()) conn_->send_bytes(last_frame_);
      break;
    case Kind::kAck:
      break;
    case Kind::kInterrupt:
      // Ctrl-C outside a running continue: already stopped, report it.
      reply("T02thread:" + std::to_string(hub_.focus_hart() + 1) + ";");
      break;
  }
}

void GdbStub::reply(std::string_view payload) {
  if (options_.verbose) {
    std::fprintf(stderr, "gdb-stub: -> %.*s\n", static_cast<int>(payload.size()),
                 payload.data());
  }
  last_frame_ = rsp::frame(payload);
  conn_->send_bytes(last_frame_);
}

unsigned GdbStub::cont_hart() const {
  if (cont_hart_ > 0 && static_cast<unsigned>(cont_hart_) <= hub_.num_harts()) {
    return static_cast<unsigned>(cont_hart_) - 1;
  }
  return hub_.focus_hart();
}

std::string GdbStub::stop_reply(const Stop& stop) {
  last_stop_ = stop;
  have_stop_ = true;
  const std::string thread = "thread:" + std::to_string(stop.hart + 1) + ";";
  switch (stop.reason) {
    case Stop::Reason::kBreakpoint:
      return "T05" + thread + "swbreak:;";
    case Stop::Reason::kWatchpoint: {
      const char* key = stop.watch_kind == WatchKind::kRead
                            ? "rwatch"
                            : stop.watch_kind == WatchKind::kAccess ? "awatch" : "watch";
      return "T05" + thread + key + ":" + hex_addr(stop.addr) + ";";
    }
    case Stop::Reason::kStep:
      return "T05" + thread;
    case Stop::Reason::kInterrupt:
      return "T02" + thread;
    case Stop::Reason::kExited: {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "W%02x", stop.exit_code & 0xFF);
      return buf;
    }
    case Stop::Reason::kTimeout:
      timed_out_ = true;
      return "X06";  // terminated (SIGABRT): max_cycles elapsed
  }
  return "E01";
}

std::string GdbStub::dispatch(std::string_view p) {
  if (p.empty()) return "";
  switch (p[0]) {
    case '?':
      return have_stop_ ? stop_reply(last_stop_)
                        : "T05thread:" + std::to_string(hub_.focus_hart() + 1) + ";";
    case 'g': return handle_registers_read();
    case 'G': return handle_registers_write(p.substr(1));
    case 'p': return handle_reg_read(p.substr(1));
    case 'P': return handle_reg_write(p.substr(1));
    case 'm': return handle_mem_read(p.substr(1));
    case 'M': return handle_mem_write(p.substr(1));
    case 'Z': return handle_breakpoint(p.substr(1), true);
    case 'z': return handle_breakpoint(p.substr(1), false);
    case 'H': return handle_thread_op(p.substr(1));
    case 'T': {
      const auto tid = rsp::parse_hex_num(p.substr(1));
      return tid && *tid >= 1 && *tid <= hub_.num_harts() ? "OK" : "E01";
    }
    case 's': return handle_step(p.substr(1), false);
    case 'i': return handle_step(p.substr(1), true);
    case 'c': return handle_continue(p.substr(1));
    case 'D':
      detached_ = true;
      std::fprintf(stderr, "gdb-stub: client detached at cycle %" PRIu64
                   ", free-running to completion\n", hub_.cluster().cycles());
      return "OK";
    case 'k':
      detached_ = true;
      std::fprintf(stderr, "gdb-stub: kill request, free-running to completion\n");
      return "OK";
    case 'q': return handle_query(p);
    case 'v':
      if (p == "vCont?") return "";  // no vCont: gdb falls back to Hc + s/c
      return "";
    default:
      return "";  // unsupported packet: empty reply per the protocol
  }
}

std::string GdbStub::handle_query(std::string_view p) {
  if (p.rfind("qSupported", 0) == 0) {
    return "PacketSize=4000;qXfer:features:read+;swbreak+;hwbreak+";
  }
  if (p == "qC") return "QC" + std::to_string(hub_.focus_hart() + 1);
  if (p == "qfThreadInfo") {
    std::string out = "m";
    for (unsigned h = 0; h < hub_.num_harts(); ++h) {
      if (h > 0) out += ',';
      out += std::to_string(h + 1);
    }
    return out;
  }
  if (p == "qsThreadInfo") return "l";
  if (p == "qAttached") return "1";
  if (p == "qOffsets") return "Text=0;Data=0;Bss=0";
  if (p.rfind("qSymbol", 0) == 0) return "OK";
  if (p.rfind("qThreadExtraInfo,", 0) == 0) {
    const auto tid = rsp::parse_hex_num(p.substr(17));
    if (!tid || *tid < 1 || *tid > hub_.num_harts()) return "E01";
    const unsigned hart = static_cast<unsigned>(*tid) - 1;
    std::string info = "hart " + std::to_string(hart) +
                       (hub_.hart_halted(hart) ? " [halted]" : " [running]");
    return rsp::to_hex(info);
  }
  if (p.rfind("qXfer:features:read:target.xml:", 0) == 0) {
    const auto range = p.substr(31);
    const auto comma = range.find(',');
    if (comma == std::string_view::npos) return "E01";
    const auto off = rsp::parse_hex_num(range.substr(0, comma));
    const auto len = rsp::parse_hex_num(range.substr(comma + 1));
    if (!off || !len) return "E01";
    const std::string xml = target_xml();
    if (*off >= xml.size()) return "l";
    const std::string chunk = xml.substr(*off, *len);
    return (*off + chunk.size() >= xml.size() ? "l" : "m") + chunk;
  }
  if (p.rfind("qRcmd,", 0) == 0) return handle_monitor(p.substr(6));
  return "";
}

std::string GdbStub::handle_registers_read() {
  const unsigned hart = hub_.focus_hart();
  std::string out;
  out.reserve(33 * 8 + 32 * 16);
  for (unsigned i = 0; i < 32; ++i) out += rsp::hex_u32_le(hub_.read_gpr(hart, i));
  out += rsp::hex_u32_le(hub_.pc(hart));
  for (unsigned i = 0; i < 32; ++i) out += rsp::hex_u64_le(hub_.read_fpr(hart, i));
  return out;
}

std::string GdbStub::handle_registers_write(std::string_view p) {
  const unsigned hart = hub_.focus_hart();
  if (p.size() < 33 * 8) return "E01";
  for (unsigned i = 0; i < 32; ++i) {
    const auto v = rsp::parse_u32_le(p.substr(i * 8, 8));
    if (!v) return "E01";
    hub_.write_gpr(hart, i, *v);
  }
  const auto pc = rsp::parse_u32_le(p.substr(32 * 8, 8));
  if (!pc) return "E01";
  hub_.set_pc(hart, *pc);
  if (p.size() >= 33 * 8 + 32 * 16) {
    for (unsigned i = 0; i < 32; ++i) {
      const auto v = rsp::parse_u64_le(p.substr(33 * 8 + i * 16, 16));
      if (!v) return "E01";
      hub_.write_fpr(hart, i, *v);
    }
  }
  return "OK";
}

std::string GdbStub::handle_reg_read(std::string_view p) {
  const auto reg = rsp::parse_hex_num(p);
  if (!reg) return "E01";
  const unsigned hart = hub_.focus_hart();
  if (*reg < 32) return rsp::hex_u32_le(hub_.read_gpr(hart, static_cast<unsigned>(*reg)));
  if (*reg == 32) return rsp::hex_u32_le(hub_.pc(hart));
  if (*reg <= 64) return rsp::hex_u64_le(hub_.read_fpr(hart, static_cast<unsigned>(*reg) - 33));
  return "E01";
}

std::string GdbStub::handle_reg_write(std::string_view p) {
  const auto eq = p.find('=');
  if (eq == std::string_view::npos) return "E01";
  const auto reg = rsp::parse_hex_num(p.substr(0, eq));
  if (!reg) return "E01";
  const auto value = p.substr(eq + 1);
  const unsigned hart = hub_.focus_hart();
  if (*reg < 32) {
    const auto v = rsp::parse_u32_le(value);
    if (!v) return "E01";
    hub_.write_gpr(hart, static_cast<unsigned>(*reg), *v);
    return "OK";
  }
  if (*reg == 32) {
    const auto v = rsp::parse_u32_le(value);
    if (!v) return "E01";
    hub_.set_pc(hart, *v);
    return "OK";
  }
  if (*reg <= 64) {
    const auto v = rsp::parse_u64_le(value);
    if (!v) return "E01";
    hub_.write_fpr(hart, static_cast<unsigned>(*reg) - 33, *v);
    return "OK";
  }
  return "E01";
}

std::string GdbStub::handle_mem_read(std::string_view p) {
  const auto comma = p.find(',');
  if (comma == std::string_view::npos) return "E01";
  const auto addr = rsp::parse_hex_num(p.substr(0, comma));
  const auto len = rsp::parse_hex_num(p.substr(comma + 1));
  if (!addr || !len || *len > 0x4000) return "E01";
  try {
    const auto bytes = hub_.read_mem(static_cast<std::uint32_t>(*addr),
                                     static_cast<std::uint32_t>(*len));
    std::string out;
    out.reserve(bytes.size() * 2);
    for (const std::uint8_t b : bytes) {
      out += "0123456789abcdef"[b >> 4];
      out += "0123456789abcdef"[b & 0xF];
    }
    return out;
  } catch (const SimError&) {
    return "E14";  // EFAULT: unmapped address
  }
}

std::string GdbStub::handle_mem_write(std::string_view p) {
  const auto comma = p.find(',');
  const auto colon = p.find(':');
  if (comma == std::string_view::npos || colon == std::string_view::npos || colon < comma) {
    return "E01";
  }
  const auto addr = rsp::parse_hex_num(p.substr(0, comma));
  const auto len = rsp::parse_hex_num(p.substr(comma + 1, colon - comma - 1));
  const auto data = rsp::from_hex(p.substr(colon + 1));
  if (!addr || !len || !data || data->size() != *len) return "E01";
  try {
    hub_.write_mem(static_cast<std::uint32_t>(*addr),
                   std::vector<std::uint8_t>(data->begin(), data->end()));
    return "OK";
  } catch (const SimError&) {
    return "E14";
  }
}

std::string GdbStub::handle_breakpoint(std::string_view p, bool insert) {
  // Format: <type>,<addr>,<kind>
  const auto c1 = p.find(',');
  if (c1 == std::string_view::npos) return "E01";
  const auto c2 = p.find(',', c1 + 1);
  if (c2 == std::string_view::npos) return "E01";
  const auto type = rsp::parse_hex_num(p.substr(0, c1));
  const auto addr = rsp::parse_hex_num(p.substr(c1 + 1, c2 - c1 - 1));
  const auto kind = rsp::parse_hex_num(p.substr(c2 + 1));
  if (!type || !addr || !kind) return "E01";
  const auto a = static_cast<std::uint32_t>(*addr);
  const auto len = static_cast<std::uint32_t>(*kind);
  switch (*type) {
    case 0:  // software breakpoint — PC match, no instruction patching needed
    case 1:  // hardware breakpoint — same mechanism in a simulator
      if (insert) hub_.set_breakpoint(a);
      else hub_.clear_breakpoint(a);
      return "OK";
    case 2:
      if (insert) hub_.set_watchpoint(a, len, WatchKind::kWrite);
      else hub_.clear_watchpoint(a, len, WatchKind::kWrite);
      return "OK";
    case 3:
      if (insert) hub_.set_watchpoint(a, len, WatchKind::kRead);
      else hub_.clear_watchpoint(a, len, WatchKind::kRead);
      return "OK";
    case 4:
      if (insert) hub_.set_watchpoint(a, len, WatchKind::kAccess);
      else hub_.clear_watchpoint(a, len, WatchKind::kAccess);
      return "OK";
    default:
      return "";  // unsupported type
  }
}

std::string GdbStub::handle_thread_op(std::string_view p) {
  if (p.empty()) return "E01";
  const char op = p[0];
  const auto tid_str = p.substr(1);
  int tid = 0;
  if (tid_str == "-1") {
    tid = -1;
  } else {
    const auto v = rsp::parse_hex_num(tid_str);
    if (!v) return "E01";
    tid = static_cast<int>(*v);
  }
  if (tid > static_cast<int>(hub_.num_harts())) return "E01";
  if (op == 'g') {
    hub_.set_focus_hart(tid >= 1 ? static_cast<unsigned>(tid) - 1 : 0);
    return "OK";
  }
  if (op == 'c') {
    cont_hart_ = tid;
    return "OK";
  }
  return "E01";
}

std::string GdbStub::handle_step(std::string_view p, bool cycle_step) {
  if (!p.empty()) {  // optional resume address
    const auto addr = rsp::parse_hex_num(p);
    if (!addr) return "E01";
    hub_.set_pc(cont_hart(), static_cast<std::uint32_t>(*addr));
  }
  const Stop stop = cycle_step ? hub_.step_cycle() : hub_.step_instruction(cont_hart());
  return stop_reply(stop);
}

std::string GdbStub::handle_continue(std::string_view p) {
  if (!p.empty()) {
    const auto addr = rsp::parse_hex_num(p);
    if (!addr) return "E01";
    hub_.set_pc(cont_hart(), static_cast<std::uint32_t>(*addr));
  }
  const Stop stop = hub_.resume([this] {
    if (!pump(0)) return true;  // peer gone: stop, the session loop closes up
    return take_interrupt();
  });
  return stop_reply(stop);
}

std::string GdbStub::handle_monitor(std::string_view hex_command) {
  const auto decoded = rsp::from_hex(hex_command);
  if (!decoded) return "E01";
  std::string text;
  try {
    text = monitor_text(*decoded);
  } catch (const std::exception& e) {
    text = std::string("error: ") + e.what() + "\n";
  }
  return rsp::to_hex(text);
}

std::string GdbStub::monitor_text(const std::string& command) {
  std::istringstream in(command);
  std::string verb;
  in >> verb;
  sim::Cluster& cluster = hub_.cluster();
  std::ostringstream os;

  if (verb == "help" || verb.empty()) {
    os << "monitor commands:\n"
       << "  cycles           cluster cycle count\n"
       << "  stalls [hart]    per-hart stall-attribution counters\n"
       << "  dma              DMA engine and DRAM state\n"
       << "  energy           energy model totals so far\n"
       << "  where            per-hart PC with nearest rvasm label\n"
       << "  addr <label>     address of an rvasm label (hex)\n"
       << "  symbols          all text labels\n";
    return os.str();
  }
  if (verb == "cycles") {
    os << "cycle " << cluster.cycles() << "\n";
    return os.str();
  }
  if (verb == "stalls") {
    int only = -1;
    if (in >> only && (only < 0 || only >= static_cast<int>(cluster.num_cores()))) {
      return "error: no such hart\n";
    }
    for (unsigned h = 0; h < cluster.num_cores(); ++h) {
      if (only >= 0 && h != static_cast<unsigned>(only)) continue;
      const auto& c = cluster.complex(h).counters();
      os << "hart " << h << ": issue " << c.int_issue_cycles() << ", stalls "
         << c.int_stall_cycles() << " (raw " << c.stall_raw << ", wb-port "
         << c.stall_wb_port << ", offload " << c.stall_offload_full << ", icache "
         << c.stall_icache << ", tcdm " << c.stall_tcdm << ", branch " << c.stall_branch
         << ", barrier " << c.stall_barrier << ", hw-barrier " << c.stall_hw_barrier
         << ", div " << c.stall_div_busy << ", mem-order " << c.stall_mem_order
         << ", dma-wait " << c.stall_dma_wait << ", dma-dram " << c.stall_dma_dram
         << "), fpss issue " << c.fpss_issue_cycles() << ", fpss stalls "
         << c.fpss_stall_cycles() << "\n";
    }
    return os.str();
  }
  if (verb == "dma") {
    const auto& dma = cluster.dma();
    os << "dma: " << dma.pending() << " pending transfers (" << dma.dram_pending()
       << " touching dram), busy " << dma.busy_cycles() << " cycles, "
       << dma.bytes_moved() << " bytes moved\n";
    if (const auto* dram = cluster.dram()) {
      os << "dram: row hits " << dram->row_hits() << ", row misses " << dram->row_misses()
         << "\n";
    } else {
      os << "dram: timing model disabled\n";
    }
    return os.str();
  }
  if (verb == "energy") {
    std::vector<sim::ActivityCounters> per_hart;
    per_hart.reserve(cluster.num_cores());
    for (unsigned h = 0; h < cluster.num_cores(); ++h) {
      per_hart.push_back(cluster.complex(h).counters());
    }
    const auto reports = energy::EnergyModel().evaluate_harts(per_hart);
    const auto total = energy::sum_reports(reports);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "energy so far: %.1f nJ over %" PRIu64 " cycles (%.1f mW avg)\n",
                  total.energy_nj(), total.cycles, total.power_mw());
    os << buf;
    return os.str();
  }
  if (verb == "where") {
    const auto& program = cluster.program();
    for (unsigned h = 0; h < cluster.num_cores(); ++h) {
      const std::uint32_t hart_pc = hub_.pc(h);
      const std::string sym = program.symbolize(hart_pc);
      os << "hart " << h << ": pc 0x" << std::hex << hart_pc << std::dec;
      if (!sym.empty()) os << " <" << sym << ">";
      if (hub_.hart_halted(h)) os << " [halted]";
      os << "\n";
    }
    return os.str();
  }
  if (verb == "addr") {
    std::string label;
    if (!(in >> label)) return "usage: addr <label>\n";
    if (!cluster.program().has_symbol(label)) return "error: no such label\n";
    os << "0x" << std::hex << cluster.program().symbol(label) << "\n";
    return os.str();
  }
  if (verb == "symbols") {
    for (const auto& [name, value] : cluster.program().symbols) {
      os << "0x" << std::hex << value << std::dec << "  " << name << "\n";
    }
    return os.str();
  }
  return "unknown command '" + verb + "' (try `monitor help`)\n";
}

std::string GdbStub::target_xml() const {
  std::string xml =
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE target SYSTEM \"gdb-target.dtd\">\n"
      "<target version=\"1.0\">\n"
      "<architecture>riscv:rv32</architecture>\n"
      "<feature name=\"org.gnu.gdb.riscv.cpu\">\n";
  for (unsigned i = 0; i < 32; ++i) {
    xml += "  <reg name=\"" + std::string(kGprNames[i]) +
           "\" bitsize=\"32\" type=\"int\" regnum=\"" + std::to_string(i) + "\"/>\n";
  }
  xml += "  <reg name=\"pc\" bitsize=\"32\" type=\"code_ptr\" regnum=\"32\"/>\n";
  xml += "</feature>\n<feature name=\"org.gnu.gdb.riscv.fpu\">\n";
  for (unsigned i = 0; i < 32; ++i) {
    xml += "  <reg name=\"" + std::string(kFprNames[i]) +
           "\" bitsize=\"64\" type=\"ieee_double\" regnum=\"" + std::to_string(33 + i) +
           "\"/>\n";
  }
  xml += "</feature>\n</target>\n";
  return xml;
}

}  // namespace copift::debug
