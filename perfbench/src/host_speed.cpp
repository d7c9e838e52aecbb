#include "host_speed.hpp"

#include <algorithm>
#include <array>
#include <sched.h>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "report.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kTableWords = std::size_t{1} << 16;  // 256 KiB of loads
constexpr std::size_t kScratchWords = 1024;                 // 4 KiB of stores
constexpr std::size_t kProgramLength = 509;
constexpr std::uint32_t kStepsPerUnit = 1U << 16;

struct Insn {
  std::uint8_t op;
  std::uint8_t rd;
  std::uint8_t rs1;
  std::uint8_t rs2;
  std::uint32_t imm;
};

/// The interpreted program and its load table, built once from a fixed seed.
struct Image {
  std::vector<Insn> program;
  std::vector<std::uint32_t> table;

  Image() : program(kProgramLength), table(kTableWords) {
    std::uint64_t s = 0x9e3779b97f4a7c15ULL;
    const auto next = [&s] {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      return s;
    };
    for (auto& insn : program) {
      const std::uint64_t r = next();
      insn = Insn{static_cast<std::uint8_t>(r % 8), static_cast<std::uint8_t>((r >> 8) % 32),
                  static_cast<std::uint8_t>((r >> 16) % 32), static_cast<std::uint8_t>((r >> 24) % 32),
                  static_cast<std::uint32_t>(r >> 32)};
    }
    for (auto& word : table) word = static_cast<std::uint32_t>(next());
  }
};

const Image& image() {
  static const Image img;
  return img;
}

/// One reference unit: kStepsPerUnit interpreted instructions from the same
/// start state, so every unit does the same work. Returns a checksum that
/// keeps the work observable.
///
/// Aligned to a cache line and never inlined, so that its loop sits at the
/// same offset within its cache lines in every build: where the program's
/// code grows or shrinks, the reference must not speed up or slow down. Left
/// to the linker, a 16-byte shift made it 6% slower.
__attribute__((noinline, aligned(64))) std::uint32_t run_unit(const Image& img) {
  std::array<std::uint32_t, 32> regs{};
  for (std::uint32_t i = 0; i < regs.size(); ++i) regs[i] = i * 0x01000193U;
  std::array<std::uint32_t, kScratchWords> scratch{};
  const Insn* program = img.program.data();
  const std::uint32_t* table = img.table.data();
  std::size_t pc = 0;
  for (std::uint32_t step = 0; step < kStepsPerUnit; ++step) {
    const Insn& in = program[pc];
    const std::uint32_t a = regs[in.rs1];
    const std::uint32_t b = regs[in.rs2];
    pc = pc + 1 == kProgramLength ? 0 : pc + 1;
    switch (in.op) {
      case 0: regs[in.rd] = a + b; break;
      case 1: regs[in.rd] = a ^ (b >> 3); break;
      case 2: regs[in.rd] = a * b + in.imm; break;
      case 3: regs[in.rd] = table[(a + in.imm) & (kTableWords - 1)]; break;
      case 4: scratch[(a ^ in.imm) & (kScratchWords - 1)] = b; break;
      case 5: regs[in.rd] = scratch[(b + in.imm) & (kScratchWords - 1)] + a; break;
      case 6:
        if ((a & 3) == (b & 3)) pc = in.imm % kProgramLength;
        break;
      default: regs[in.rd] = (a << (b & 7)) | (in.imm & 0xFF); break;
    }
  }
  std::uint32_t sum = 0;
  for (const auto r : regs) sum = sum * 31 + r;
  return sum;
}

}  // namespace

ReferenceTime run_reference(double seconds) {
  const Image& img = image();
  static const std::uint32_t expected = run_unit(img);
  ReferenceTime out;
  const auto t0 = Clock::now();
  do {
    // Checking every unit's checksum keeps its work observable to the optimiser.
    if (run_unit(img) != expected) throw copift::Error("reference workload: checksum changed");
    ++out.units;
    out.seconds = seconds_between(t0, Clock::now());
  } while (out.seconds < seconds);
  return out;
}

ReferenceTime run_reference_parallel(double seconds, unsigned threads) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  (void)run_reference(0.0);  // build the shared image and checksum before the threads start
  std::vector<ReferenceTime> parts(std::max(threads, 1U));
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < parts.size(); ++t) {
    workers.emplace_back([&, t] {
      if (!cpus.empty()) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[t % cpus.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);  // best effort, as in CpuRotation
      }
      parts[t] = run_reference(seconds);
    });
  }
  for (auto& w : workers) w.join();
  ReferenceTime total;
  for (const auto& p : parts) total += p;
  return total;
}

}  // namespace perfbench
