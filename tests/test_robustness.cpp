// Timing-parameter robustness: functional results must be bit-exact under
// ANY simulator timing configuration — latencies, FIFO depths and bank
// counts may change *when* things happen, never *what* is computed. This is
// the key separation-of-concerns invariant of the timing model, and it
// exercises every interlock (scoreboards, barriers, SSR backpressure,
// store-ordering) under stress.
//
// Input robustness: the assembler, fed mutated registry programs, either
// assembles them or rejects them with an AsmError — never another exception
// type, and (under the sanitizer presets) never undefined behaviour.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "kernels/runner.hpp"
#include "registry_points.hpp"
#include "rvasm/assembler.hpp"

namespace copift::kernels {
namespace {

struct ParamCase {
  const char* name;
  sim::SimParams params;
};

std::vector<ParamCase> param_cases() {
  std::vector<ParamCase> cases;
  {
    ParamCase c{"default", {}};
    cases.push_back(c);
  }
  {
    ParamCase c{"tiny_fifo", {}};
    c.params.offload_fifo_depth = 2;
    cases.push_back(c);
  }
  {
    ParamCase c{"deep_fifo", {}};
    c.params.offload_fifo_depth = 32;
    cases.push_back(c);
  }
  {
    ParamCase c{"slow_fpu", {}};
    c.params.fpu.add = 6;
    c.params.fpu.mul = 6;
    c.params.fpu.fma = 7;
    c.params.fpu.cvt = 5;
    c.params.fpu.cmp = 4;
    cases.push_back(c);
  }
  {
    ParamCase c{"fast_fpu", {}};
    c.params.fpu.add = 1;
    c.params.fpu.mul = 1;
    c.params.fpu.fma = 1;
    c.params.fpu.cvt = 1;
    cases.push_back(c);
  }
  {
    ParamCase c{"few_banks", {}};
    c.params.num_tcdm_banks = 2;
    cases.push_back(c);
  }
  {
    ParamCase c{"slow_loads", {}};
    c.params.load_use_latency = 6;
    c.params.fp_load_latency = 6;
    cases.push_back(c);
  }
  {
    ParamCase c{"slow_mul", {}};
    c.params.mul_latency = 8;
    cases.push_back(c);
  }
  {
    ParamCase c{"tiny_ssr_fifo", {}};
    c.params.ssr_fifo_depth = 1;
    cases.push_back(c);
  }
  {
    ParamCase c{"slow_cfg", {}};
    c.params.ssr_cfg_latency = 40;
    cases.push_back(c);
  }
  {
    ParamCase c{"tiny_l0", {}};
    c.params.l0_lines = 2;
    c.params.l0_branch_penalty = 6;
    cases.push_back(c);
  }
  {
    ParamCase c{"branchy", {}};
    c.params.branch_taken_penalty = 4;
    cases.push_back(c);
  }
  return cases;
}

struct RobustnessCase {
  std::string_view name;
  Variant variant;
  std::size_t param_index;
};

class Robustness : public ::testing::TestWithParam<RobustnessCase> {};

TEST_P(Robustness, BitExactUnderAnyTiming) {
  const auto& rc = GetParam();
  const auto pc = param_cases()[rc.param_index];
  KernelConfig cfg;
  cfg.n = 192;
  cfg.block = 48;
  cfg.seed = 77;
  const auto run = run_kernel(workload::generate(rc.name, rc.variant, cfg), pc.params);
  EXPECT_TRUE(run.verified) << pc.name;
  EXPECT_LE(run.ipc(), 2.0) << pc.name;
}

std::vector<RobustnessCase> robustness_cases() {
  std::vector<RobustnessCase> cases;
  const std::size_t num_params = param_cases().size();
  for (const auto name : kPaperWorkloads) {
    for (std::size_t p = 0; p < num_params; ++p) {
      cases.push_back({name, Variant::kCopift, p});
      if (p < 8) cases.push_back({name, Variant::kBaseline, p});
    }
  }
  return cases;
}

std::string robustness_name(const ::testing::TestParamInfo<RobustnessCase>& info) {
  std::string name(info.param.name);
  name += info.param.variant == Variant::kCopift ? "_copift_" : "_base_";
  name += param_cases()[info.param.param_index].name;
  return name;
}

INSTANTIATE_TEST_SUITE_P(TimingSweep, Robustness, ::testing::ValuesIn(robustness_cases()),
                         robustness_name);

TEST(Robustness, TimingChangesCyclesButNotResults) {
  // Sanity that the sweep is meaningful: slow FPU actually slows things.
  KernelConfig cfg;
  cfg.n = 192;
  cfg.block = 48;
  sim::SimParams slow;
  slow.fpu.fma = 8;
  slow.fpu.add = 8;
  slow.fpu.mul = 8;
  const auto fast = run_kernel(workload::generate("exp", Variant::kCopift, cfg));
  const auto slowed = run_kernel(workload::generate("exp", Variant::kCopift, cfg), slow);
  EXPECT_GT(slowed.region.cycles, fast.region.cycles);
}

// --- Assembler mutations -------------------------------------------------------

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::size_t end = eol == std::string::npos ? text.size() : eol;
    lines.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  return lines;
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' || c == '.';
}

/// Start and length of every number literal in `line`: a digit run that does
/// not continue an identifier (so the 0 of "a0" is not one).
std::vector<std::pair<std::size_t, std::size_t>> number_tokens(std::string_view line) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (ident_char(line[i]) && (std::isdigit(static_cast<unsigned char>(line[i])) == 0 ||
                                (i > 0 && ident_char(line[i - 1])))) {
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(line[i])) == 0) continue;
    std::size_t end = i;
    while (end < line.size() && ident_char(line[end])) ++end;
    out.emplace_back(i, end - i);
    i = end;
  }
  return out;
}

/// One mutation of `lines`, described in `what`: delete or duplicate a line,
/// swap two operands, or replace a number literal.
void mutate(std::vector<std::string>& lines, std::mt19937& rng, std::string& what) {
  static constexpr std::string_view kNumbers[] = {"-1", "31", "40", "0x7fffffffffffffff", "1e999",
                                                  "?junk"};
  const auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  const std::size_t line = pick(lines.size());
  switch (pick(6)) {
    case 0:
      what = "delete line " + std::to_string(line + 1);
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(line));
      return;
    case 1:
      what = "duplicate line " + std::to_string(line + 1);
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(line), lines[line]);
      return;
    case 2: {
      // Swap the first two operands of an instruction line.
      std::string& text = lines[line];
      const auto comma = text.find(',');
      const auto space = text.find_first_of(" \t", text.find_first_not_of(" \t"));
      if (comma == std::string::npos || space == std::string::npos || space > comma) break;
      const auto next = text.find(',', comma + 1);
      const std::string a = text.substr(space + 1, comma - space - 1);
      const std::string b =
          text.substr(comma + 1, (next == std::string::npos ? text.size() : next) - comma - 1);
      text = text.substr(0, space + 1) + b + "," + a +
             (next == std::string::npos ? std::string() : text.substr(next));
      what = "swap operands on line " + std::to_string(line + 1);
      return;
    }
    default: {
      // Replace a number literal somewhere in the program.
      std::vector<std::pair<std::size_t, std::pair<std::size_t, std::size_t>>> numbers;
      for (std::size_t l = 0; l < lines.size(); ++l) {
        for (const auto& token : number_tokens(lines[l])) numbers.push_back({l, token});
      }
      if (numbers.empty()) break;
      const auto& [l, token] = numbers[pick(numbers.size())];
      const std::string_view number = kNumbers[pick(std::size(kNumbers))];
      lines[l].replace(token.first, token.second, number);
      what = "number on line " + std::to_string(l + 1) + " -> " + std::string(number);
      return;
    }
  }
  what = "unchanged";
}

TEST(AssemblerMutations, EveryMutantAssemblesOrThrowsAsmError) {
  std::vector<std::vector<std::string>> programs;
  std::vector<std::string> labels;
  for (const auto& point : testing::registry_points()) {
    programs.push_back(split_lines(point.source()));
    labels.push_back(point.label);
  }
  ASSERT_FALSE(programs.empty());
  std::mt19937 rng(20251);
  constexpr int kMutants = 2000;
  int assembled = 0;
  int rejected = 0;
  int escaped = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::size_t which = static_cast<std::size_t>(i) % programs.size();
    auto lines = programs[which];
    std::string what;
    mutate(lines, rng, what);
    std::string source;
    for (const auto& l : lines) source.append(l).push_back('\n');
    try {
      (void)rvasm::assemble(source);
      ++assembled;
    } catch (const AsmError&) {
      ++rejected;
    } catch (const std::exception& e) {
      if (++escaped <= 10) {
        ADD_FAILURE() << labels[which] << ", " << what << ": escaped as " << typeid(e).name()
                      << ": " << e.what();
      }
    }
  }
  EXPECT_EQ(escaped, 0);
  // The mix exercises both outcomes.
  EXPECT_GT(assembled, kMutants / 10);
  EXPECT_GT(rejected, kMutants / 10);
}

}  // namespace
}  // namespace copift::kernels
