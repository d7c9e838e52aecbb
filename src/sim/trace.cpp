#include "sim/trace.hpp"

#include <map>
#include <sstream>

namespace copift::sim {

std::string stall_taxonomy_legend() {
  std::ostringstream os;
  os << "stall taxonomy (cause -> counter field: meaning):\n";
  for (const CauseInfo& info : kCauseInfo) {
    const char* kind = info.kind == SlotKind::kStall  ? "stall"
                       : info.kind == SlotKind::kIssue ? "issue"
                                                       : "idle ";
    os << "  [" << kind << "] " << info.name;
    for (std::size_t pad = std::string(info.name).size(); pad < 18; ++pad) os << ' ';
    os << "-> " << info.counter;
    for (std::size_t pad = std::string(info.counter).size(); pad < 19; ++pad) os << ' ';
    os << ": " << info.legend << '\n';
  }
  return os.str();
}

std::string Tracer::render(std::uint64_t from_cycle, std::uint64_t to_cycle) const {
  std::ostringstream os;
  for (const TraceEntry& e : entries_) {
    if (e.cycle < from_cycle || e.cycle > to_cycle) continue;
    const char* tag = e.unit == TraceUnit::kIntCore    ? "int "
                      : e.unit == TraceUnit::kFpss     ? "fpss"
                                                       : "frep";
    os << e.cycle << " [" << tag << "] ";
    if (e.pc != 0) {
      os << "0x" << std::hex << e.pc << std::dec << " ";
    } else {
      os << "(replay)   ";
    }
    os << isa::disassemble(e.instr) << "\n";
  }
  return os.str();
}

std::uint64_t Tracer::dual_issue_cycles() const {
  std::map<std::uint64_t, unsigned> per_cycle;  // bit0: int, bit1: fp
  for (const TraceEntry& e : entries_) {
    per_cycle[e.cycle] |= e.unit == TraceUnit::kIntCore ? 1u : 2u;
  }
  std::uint64_t dual = 0;
  for (const auto& [cycle, mask] : per_cycle) {
    if (mask == 3u) ++dual;
  }
  return dual;
}

}  // namespace copift::sim
