// rvlint: static verification of generated RISC-V programs.
//
// Every workload in this repo *generates* its programs (HartSlice slicing,
// TiledBuffer double buffering, six paper kernels x variants x cores x
// tiles), and the Xfrep/Xssr/Xdma/Xcopift extensions carry protocol rules
// the simulator only catches dynamically — or not at all. rvlint checks
// them at assemble time: it builds a CFG over the assembled
// `rvasm::Program`, runs a forward dataflow analysis once per hart (the
// `mhartid` CSR constant-propagates, so hart-divergent codegen folds to the
// path that hart actually executes), and reports named, value-carrying
// diagnostics with the PC and nearest label.
//
// The analysis is conservative in the classical sense: a rule only fires
// when the abstract state *proves* the violation (constant addresses that
// overlap, a lane that is armed on no path, a barrier one hart can never
// reach). Unknown values silence a rule rather than tripping it, so a clean
// report is not a proof of correctness — but every diagnostic is a real,
// reachable defect under the abstract semantics. See docs/linting.md for
// the rule catalog and the abstract domain.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "rvasm/program.hpp"

namespace copift::lint {

/// Named lint rules. Stable ids (rule_id) appear in diagnostics, JSON
/// output and docs/linting.md; append new rules before kCount.
enum class Rule : std::uint8_t {
  kUseBeforeDef,              // register read with no dominating definition
  kOobAccess,                 // constant load/store address outside TCDM/DRAM
  kSsrReadBeforeConfig,       // ft0..ft2 touched under SSR with the lane unarmed
  kSsrReconfigWhileStreaming, // lane geometry rewritten while it may be streaming
  kFrepBodyNonFp,             // non-offloadable instruction inside an FREP body
  kFrepBranchIntoBody,        // control flow enters an FREP body from outside
  kDmaLoadBeforeWait,         // load from a DMA destination with no dmwait between
  kBarrierDivergence,         // a barrier site only a subset of harts can reach
  kTiledRegClobber,           // gp/ra/tp tile-loop convention registers clobbered
  kUnreachableCode,           // code no hart can reach
  kFallOffEnd,                // execution can run past the end of .text
  kCount
};

inline constexpr std::size_t kNumRules = static_cast<std::size_t>(Rule::kCount);

/// Stable kebab-case identifier, e.g. "use-before-def".
[[nodiscard]] const char* rule_id(Rule rule) noexcept;

/// Hart value used for diagnostics that are hart-independent (structural
/// rules such as frep-body-non-fp or unreachable-code).
inline constexpr unsigned kAnyHart = ~0U;

/// One diagnostic: which rule fired, where, for which hart, and why (the
/// message carries the offending values — register names, addresses,
/// lane numbers — in text).
struct LintDiag {
  Rule rule = Rule::kCount;
  std::uint32_t pc = 0;     // address of the offending instruction
  unsigned hart = kAnyHart; // analyzed hart, or kAnyHart for structural rules
  std::string message;
  std::string label;        // Program::symbolize(pc): "label+0xNN", may be empty

  /// "rule-id @ pc (label) [hart H]: message" — the one-line rendering used
  /// by the CLI and error paths.
  [[nodiscard]] std::string format() const;
};

/// Result of linting one program.
struct LintReport {
  std::vector<LintDiag> diags;
  unsigned cores = 1;            // harts the analysis covered
  /// False when the program contains an indirect jump (jalr) whose targets
  /// the CFG cannot resolve; reachability-based rules (unreachable-code,
  /// fall-off-end, barrier-divergence) are suppressed in that case.
  bool analysis_complete = true;

  [[nodiscard]] bool clean() const noexcept { return diags.empty(); }
  /// All diagnostics joined as one value-carrying multi-line string.
  [[nodiscard]] std::string summary() const;
  /// Machine-readable JSON: {"clean":bool,"cores":N,"rules":N,"diags":[...]}.
  [[nodiscard]] std::string json() const;
};

/// Lint an assembled program as it would run on a `cores`-hart cluster.
/// Pure function of its inputs: never mutates the program, never touches
/// simulator state (linting is observation-only by construction).
[[nodiscard]] LintReport lint_program(const rvasm::Program& program, unsigned cores = 1);

/// Convenience for tests and tools: assemble `source` then lint. Throws
/// rvasm::AsmError if the source itself does not assemble.
[[nodiscard]] LintReport lint_source(std::string_view source, unsigned cores = 1);

// --- pipeline integration ---------------------------------------------------

/// How the codegen pipeline reacts to lint diagnostics.
enum class Mode : std::uint8_t {
  kOff,     // do not lint
  kWarn,    // lint, print diagnostics to stderr, continue
  kStrict,  // lint, throw copift::Error carrying the diagnostics
};

/// Parse "off" / "warn" / "strict". Throws copift::Error naming the value
/// and the accepted modes on anything else (same strict-parse convention as
/// the CLI's numeric flags).
[[nodiscard]] Mode mode_from(std::string_view name);
[[nodiscard]] const char* mode_name(Mode mode) noexcept;

/// Pipeline lint mode for this process. Defaults to kWarn in debug builds
/// (!NDEBUG) and kOff in release; the COPIFT_LINT environment variable
/// ("off"/"warn"/"strict") overrides the default, and an explicit
/// set_pipeline_mode (e.g. from `copift_sim --lint`) overrides both.
[[nodiscard]] Mode pipeline_mode() noexcept;
void set_pipeline_mode(Mode mode) noexcept;

/// Post-assembly hook called by the workload runner on every generated
/// program: lints at pipeline_mode() and warns or throws accordingly.
/// `what` names the program in messages (e.g. "exp/copift n=1024 cores=4").
/// Returns true when the program was linted and came back clean.
bool pipeline_check(const rvasm::Program& program, unsigned cores, std::string_view what);

}  // namespace copift::lint
