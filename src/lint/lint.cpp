#include "lint/lint.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <tuple>

#include "common/error.hpp"
#include "common/json.hpp"
#include "isa/csr.hpp"
#include "isa/instr.hpp"
#include "isa/reg.hpp"
#include "lint/cfg.hpp"
#include "lint/dataflow.hpp"
#include "rvasm/assembler.hpp"

namespace copift::lint {

namespace {

using isa::Mnemonic;

constexpr const char* kRuleIds[kNumRules] = {
    "use-before-def",
    "oob-access",
    "ssr-read-before-config",
    "ssr-reconfig-while-streaming",
    "frep-body-non-fp",
    "frep-branch-into-body",
    "dma-load-before-wait",
    "barrier-divergence",
    "tiled-reg-clobber",
    "unreachable-code",
    "fall-off-end",
};

std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%x", v);
  return buf;
}

}  // namespace

const char* rule_id(Rule rule) noexcept {
  const auto i = static_cast<std::size_t>(rule);
  return i < kNumRules ? kRuleIds[i] : "unknown-rule";
}

std::string LintDiag::format() const {
  std::string out = rule_id(rule);
  out += " @ ";
  out += hex(pc);
  if (!label.empty()) {
    out += " (";
    out += label;
    out += ")";
  }
  if (hart != kAnyHart) {
    out += " [hart ";
    out += std::to_string(hart);
    out += "]";
  }
  out += ": ";
  out += message;
  return out;
}

std::string LintReport::summary() const {
  std::string out;
  for (const LintDiag& d : diags) {
    if (!out.empty()) out += '\n';
    out += d.format();
  }
  return out;
}

std::string LintReport::json() const {
  std::string out = "{\"clean\":";
  out += clean() ? "true" : "false";
  out += ",\"cores\":" + std::to_string(cores) + ",\"rules\":" + std::to_string(kNumRules) +
         ",\"analysis_complete\":";
  out += analysis_complete ? "true" : "false";
  out += ",\"diags\":[";
  bool first = true;
  for (const LintDiag& d : diags) {
    if (!first) out += ',';
    first = false;
    out += "{\"rule\":\"";
    out += rule_id(d.rule);
    out += "\",\"pc\":" + std::to_string(d.pc) + ",\"hart\":";
    out += d.hart == kAnyHart ? "null" : std::to_string(d.hart);
    out += ",\"label\":";
    Json::append_quoted(out, d.label);
    out += ",\"message\":";
    Json::append_quoted(out, d.message);
    out += '}';
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// Structural rules (CFG-only; hart analyses supply reachability)
// ---------------------------------------------------------------------------

namespace {

void add_diag(std::vector<LintDiag>& diags, const rvasm::Program& program,
              const Cfg& cfg, Rule rule, InstrIndex idx, unsigned hart,
              std::string message) {
  LintDiag d;
  d.rule = rule;
  d.pc = cfg.pc_of(idx);
  d.hart = hart;
  d.message = std::move(message);
  d.label = program.symbolize(d.pc);
  diags.push_back(std::move(d));
}

void check_frep_bodies(const rvasm::Program& program, const Cfg& cfg,
                       std::vector<LintDiag>& diags) {
  for (const FrepRegion& region : cfg.frep_regions) {
    if (region.truncated) {
      const std::int32_t n = program.text[region.frep].imm;
      add_diag(diags, program, cfg, Rule::kFrepBodyNonFp, region.frep, kAnyHart,
               n <= 0 ? "frep with an empty body repeats nothing"
                      : "frep body of " + std::to_string(n) +
                            " instructions extends past the end of .text");
    }
    for (InstrIndex i = region.body_first;
         i <= region.body_last && i < program.text.size(); ++i) {
      const isa::Instr& in = program.text[i];
      if (in.meta().offloaded()) continue;
      add_diag(diags, program, cfg, Rule::kFrepBodyNonFp, i, kAnyHart,
               std::string(in.meta().name) +
                   " inside an frep body: only FP instructions are replayed by "
                   "the FPSS sequencer");
    }
  }
}

void check_frep_branch_into_body(const rvasm::Program& program, const Cfg& cfg,
                                 std::vector<LintDiag>& diags) {
  for (InstrIndex i = 0; i < program.text.size(); ++i) {
    const isa::Instr& in = program.text[i];
    const bool is_branch = in.meta().unit == isa::ExecUnit::kBranch;
    if (!is_branch && in.mnemonic != Mnemonic::kJal) continue;
    const InstrIndex t = resolve_target(cfg, program, i);
    if (t == kNoInstr) continue;
    const std::uint32_t target_region = cfg.frep_region_of[t];
    if (target_region == kNoInstr || target_region == cfg.frep_region_of[i]) continue;
    add_diag(diags, program, cfg, Rule::kFrepBranchIntoBody, i, kAnyHart,
             "control flow enters the frep body at " + hex(cfg.pc_of(t)) +
                 " from outside: the FPSS sequencer only sees instructions "
                 "issued through the frep");
  }
}

void check_tiled_reg_clobber(const rvasm::Program& program, const Cfg& cfg,
                             std::vector<LintDiag>& diags) {
  // The TiledBuffer convention (see workload/tiled_buffer.hpp): gp holds the
  // remaining tile count, ra the running checksum, tp the running sum; the
  // loop closes with `addi gp,gp,-1; bnez gp, tile_loop`. Identify that loop
  // shape and flag any other write to gp/ra/tp inside it.
  constexpr unsigned kRa = 1, kGp = 3, kTp = 4;
  for (InstrIndex i = 0; i < program.text.size(); ++i) {
    const isa::Instr& in = program.text[i];
    if (in.mnemonic != Mnemonic::kBne || in.rs1 != kGp || in.rs2 != 0 || in.imm >= 0) {
      continue;
    }
    const InstrIndex top = resolve_target(cfg, program, i);
    if (top == kNoInstr || top >= i) continue;
    bool has_decrement = false;
    for (InstrIndex j = top; j < i; ++j) {
      const isa::Instr& body = program.text[j];
      if (body.mnemonic == Mnemonic::kAddi && body.rd == kGp && body.rs1 == kGp) {
        has_decrement = true;
        break;
      }
    }
    if (!has_decrement) continue;  // a gp loop, but not the TiledBuffer shape
    for (InstrIndex j = top; j <= i; ++j) {
      const isa::Instr& body = program.text[j];
      if (body.meta().rd_class != isa::RegClass::kInt) continue;
      const unsigned rd = body.rd;
      if (rd != kRa && rd != kGp && rd != kTp) continue;
      const bool allowed =
          (rd == kGp && body.mnemonic == Mnemonic::kAddi && body.rs1 == kGp) ||
          (rd == kRa &&
           (body.mnemonic == Mnemonic::kXor || body.mnemonic == Mnemonic::kXori) &&
           body.rs1 == kRa) ||
          (rd == kTp &&
           (body.mnemonic == Mnemonic::kAdd || body.mnemonic == Mnemonic::kAddi) &&
           body.rs1 == kTp);
      if (allowed) continue;
      add_diag(diags, program, cfg, Rule::kTiledRegClobber, j, kAnyHart,
               std::string(body.meta().name) + " writes " + isa::int_reg_name(rd) +
                   " inside a tile loop: gp/ra/tp carry the TiledBuffer "
                   "count/checksum/sum convention");
    }
  }
}

void check_reachability(const rvasm::Program& program, const Cfg& cfg,
                        const std::vector<HartAnalysis>& harts,
                        std::vector<LintDiag>& diags) {
  for (std::uint32_t b = 0; b < cfg.blocks.size(); ++b) {
    const BasicBlock& block = cfg.blocks[b];
    bool any = false;
    bool all = true;
    for (const HartAnalysis& h : harts) {
      if (h.block_reachable(b)) {
        any = true;
      } else {
        all = false;
      }
    }
    if (!any) {
      add_diag(diags, program, cfg, Rule::kUnreachableCode, block.first, kAnyHart,
               "no hart can reach this code");
      continue;
    }
    if (block.falls_off_end) {
      unsigned hart = kAnyHart;
      if (!all) {
        for (const HartAnalysis& h : harts) {
          if (h.block_reachable(b)) { hart = h.hart; break; }
        }
      }
      const isa::Instr& term = program.text[block.last];
      const bool out_of_text_branch =
          term.meta().unit == isa::ExecUnit::kBranch &&
          resolve_target(cfg, program, block.last) == kNoInstr;
      add_diag(diags, program, cfg, Rule::kFallOffEnd, block.last, hart,
               out_of_text_branch
                   ? "branch target leaves the .text section"
                   : "execution runs past the last instruction of .text "
                     "(no ecall/ebreak or backward branch terminates this path)");
    }
  }
}

void check_barrier_divergence(const rvasm::Program& program, const Cfg& cfg,
                              const std::vector<HartAnalysis>& harts,
                              std::vector<LintDiag>& diags) {
  std::set<InstrIndex> all_sites;
  for (const HartAnalysis& h : harts) {
    all_sites.insert(h.barrier_sites.begin(), h.barrier_sites.end());
  }
  for (const InstrIndex site : all_sites) {
    std::vector<unsigned> can;
    std::vector<unsigned> cannot;
    for (const HartAnalysis& h : harts) {
      const bool reaches = std::find(h.barrier_sites.begin(), h.barrier_sites.end(),
                                     site) != h.barrier_sites.end();
      (reaches ? can : cannot).push_back(h.hart);
    }
    if (cannot.empty()) continue;
    std::string msg = "barrier reachable by hart";
    for (const unsigned h : can) {
      msg += ' ';
      msg += std::to_string(h);
    }
    msg += " but not by hart";
    for (const unsigned h : cannot) {
      msg += ' ';
      msg += std::to_string(h);
    }
    msg += ": the cluster barrier releases only when every hart arrives";
    add_diag(diags, program, cfg, Rule::kBarrierDivergence, site, cannot.front(),
             std::move(msg));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// lint_program / lint_source
// ---------------------------------------------------------------------------

LintReport lint_program(const rvasm::Program& program, unsigned cores) {
  LintReport report;
  report.cores = cores == 0 ? 1 : cores;
  if (program.text.empty()) return report;

  const Cfg cfg = build_cfg(program);
  report.analysis_complete = !cfg.has_indirect_jump;

  std::vector<HartAnalysis> harts;
  harts.reserve(report.cores);
  for (unsigned h = 0; h < report.cores; ++h) {
    harts.push_back(analyze_hart(program, cfg, h, report.cores));
  }

  // Per-hart dataflow diagnostics; identical findings across every hart
  // collapse to one hart-independent diagnostic.
  if (report.cores == 1) {
    report.diags = harts[0].diags;
  } else {
    std::map<std::tuple<Rule, std::uint32_t, std::string>, std::vector<unsigned>>
        grouped;
    for (const HartAnalysis& h : harts) {
      for (const LintDiag& d : h.diags) {
        grouped[{d.rule, d.pc, d.message}].push_back(d.hart);
      }
    }
    for (auto& [key, hart_list] : grouped) {
      LintDiag d;
      d.rule = std::get<0>(key);
      d.pc = std::get<1>(key);
      d.message = std::get<2>(key);
      d.label = program.symbolize(d.pc);
      d.hart = hart_list.size() == report.cores ? kAnyHart : hart_list.front();
      report.diags.push_back(std::move(d));
    }
  }

  // Structural rules.
  check_frep_bodies(program, cfg, report.diags);
  check_frep_branch_into_body(program, cfg, report.diags);
  check_tiled_reg_clobber(program, cfg, report.diags);
  if (report.analysis_complete) {
    check_reachability(program, cfg, harts, report.diags);
    if (report.cores > 1) check_barrier_divergence(program, cfg, harts, report.diags);
  }

  std::stable_sort(report.diags.begin(), report.diags.end(),
                   [](const LintDiag& a, const LintDiag& b) {
                     if (a.pc != b.pc) return a.pc < b.pc;
                     if (a.rule != b.rule) return a.rule < b.rule;
                     return a.hart < b.hart;
                   });
  // An instruction naming the same undefined register twice (fadd.d f, x, x)
  // yields byte-identical diagnostics; keep one.
  report.diags.erase(
      std::unique(report.diags.begin(), report.diags.end(),
                  [](const LintDiag& a, const LintDiag& b) {
                    return a.rule == b.rule && a.pc == b.pc && a.hart == b.hart &&
                           a.message == b.message;
                  }),
      report.diags.end());
  return report;
}

LintReport lint_source(std::string_view source, unsigned cores) {
  return lint_program(rvasm::assemble(source), cores);
}

// ---------------------------------------------------------------------------
// Pipeline integration
// ---------------------------------------------------------------------------

Mode mode_from(std::string_view name) {
  if (name == "off") return Mode::kOff;
  if (name == "warn") return Mode::kWarn;
  if (name == "strict") return Mode::kStrict;
  throw Error("invalid lint mode '" + std::string(name) +
              "' (expected off, warn or strict)");
}

const char* mode_name(Mode mode) noexcept {
  switch (mode) {
    case Mode::kOff: return "off";
    case Mode::kWarn: return "warn";
    case Mode::kStrict: return "strict";
  }
  return "off";
}

namespace {

std::atomic<int> g_mode_override{-1};

Mode env_or_default_mode() noexcept {
#ifdef NDEBUG
  Mode mode = Mode::kOff;
#else
  Mode mode = Mode::kWarn;
#endif
  const char* env = std::getenv("COPIFT_LINT");
  if (env == nullptr || *env == '\0') return mode;
  try {
    return mode_from(env);
  } catch (const Error&) {
    std::fprintf(stderr, "copift: ignoring COPIFT_LINT='%s' (expected off, warn or strict)\n",
                 env);
  }
  return mode;
}

}  // namespace

Mode pipeline_mode() noexcept {
  const int v = g_mode_override.load(std::memory_order_relaxed);
  if (v >= 0) return static_cast<Mode>(v);
  static const Mode env_mode = env_or_default_mode();
  return env_mode;
}

void set_pipeline_mode(Mode mode) noexcept {
  g_mode_override.store(static_cast<int>(mode), std::memory_order_relaxed);
}

bool pipeline_check(const rvasm::Program& program, unsigned cores,
                    std::string_view what) {
  const Mode mode = pipeline_mode();
  if (mode == Mode::kOff) return false;
  const LintReport report = lint_program(program, cores);
  if (report.clean()) return true;
  const std::string header = "lint: " + std::string(what) + ": " +
                             std::to_string(report.diags.size()) + " diagnostic" +
                             (report.diags.size() == 1 ? "" : "s");
  if (mode == Mode::kStrict) {
    throw Error(header + "\n" + report.summary());
  }
  std::fprintf(stderr, "%s\n%s\n", header.c_str(), report.summary().c_str());
  return false;
}

}  // namespace copift::lint
