#include "rvasm/assembler.hpp"

#include <algorithm>
#include <charconv>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/layout.hpp"
#include "common/string_table.hpp"
#include "isa/csr.hpp"

namespace copift::rvasm {

namespace {

using isa::Format;
using isa::Instr;
using isa::Mnemonic;
using isa::RegClass;

bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_alpha(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); }
bool is_alnum(char c) { return is_digit(c) || is_alpha(c); }
bool is_ident_char(char c) { return is_alnum(c) || c == '_' || c == '.'; }

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

/// A node of an expression tree that names a symbol. Trees live in one pool
/// per assembly and refer to their children by index.
struct Expr {
  enum class Kind : std::uint8_t { kNum, kSym, kHi, kLo, kAdd, kSub, kMul, kNeg };
  Kind kind = Kind::kNum;
  std::int32_t lhs = -1;
  std::int32_t rhs = -1;
  std::int64_t num = 0;
  std::string_view sym;  // a view into the source text
};

/// An immediate operand: a plain value, or the root of a tree in the pool
/// when it names a symbol. Arithmetic on plain values is folded as it is
/// parsed, so only symbolic operands reach pass 2 as trees.
struct Imm {
  std::int64_t value = 0;
  std::int32_t node = -1;  // index into the expression pool; -1 for a plain value

  [[nodiscard]] bool plain() const { return node < 0; }
};

/// One operator applied to evaluated operands (`b` is ignored by the unary
/// ones). Sums and products wrap in 64 bits: they run on std::uint64_t, so
/// no input can overflow a signed type.
std::int64_t apply(Expr::Kind kind, std::int64_t a, std::int64_t b) {
  const auto ua = static_cast<std::uint64_t>(a);
  const auto ub = static_cast<std::uint64_t>(b);
  switch (kind) {
    case Expr::Kind::kHi: return (static_cast<std::uint32_t>(a) + 0x800U) >> 12;
    case Expr::Kind::kLo: return sign_extend(static_cast<std::uint32_t>(a) & 0xFFFU, 12);
    case Expr::Kind::kAdd: return static_cast<std::int64_t>(ua + ub);
    case Expr::Kind::kSub: return static_cast<std::int64_t>(ua - ub);
    case Expr::Kind::kMul: return static_cast<std::int64_t>(ua * ub);
    case Expr::Kind::kNeg: return static_cast<std::int64_t>(0 - ua);
    case Expr::Kind::kNum:
    case Expr::Kind::kSym: break;
  }
  return a;
}

/// Defined symbols (labels and .equ names), keyed by views into the source.
using SymbolTable = StringTable<std::int64_t>;

class ExprPool {
 public:
  /// A tree node over `lhs` (and `rhs` for binary operators), or the folded
  /// value when every operand is plain.
  Imm combine(Expr::Kind kind, Imm lhs, Imm rhs = {}) {
    const bool binary = kind == Expr::Kind::kAdd || kind == Expr::Kind::kSub ||
                        kind == Expr::Kind::kMul;
    if (lhs.plain() && (!binary || rhs.plain())) return Imm{apply(kind, lhs.value, rhs.value)};
    Expr e;
    e.kind = kind;
    e.lhs = node_of(lhs);
    if (binary) e.rhs = node_of(rhs);
    return add(e);
  }

  Imm symbol(std::string_view name) {
    Expr e;
    e.kind = Expr::Kind::kSym;
    e.sym = name;
    return add(e);
  }

  [[nodiscard]] std::int64_t eval(Imm imm, const SymbolTable& symbols, unsigned line) const {
    return imm.plain() ? imm.value : eval_node(imm.node, symbols, line);
  }

  /// Whether every symbol `imm` names is defined yet.
  [[nodiscard]] bool evaluable(Imm imm, const SymbolTable& symbols) const {
    return imm.plain() || evaluable_node(imm.node, symbols);
  }

 private:
  Imm add(const Expr& e) {
    nodes_.push_back(e);
    return Imm{0, static_cast<std::int32_t>(nodes_.size() - 1)};
  }

  std::int32_t node_of(Imm imm) {
    if (!imm.plain()) return imm.node;
    Expr e;
    e.num = imm.value;
    return add(e).node;
  }

  std::int64_t eval_node(std::int32_t index, const SymbolTable& symbols, unsigned line) const {
    const Expr& e = nodes_[static_cast<std::size_t>(index)];
    switch (e.kind) {
      case Expr::Kind::kNum:
        return e.num;
      case Expr::Kind::kSym: {
        const std::int64_t* v = symbols.find(e.sym);
        if (v == nullptr) throw AsmError("undefined symbol: " + std::string(e.sym), line);
        return *v;
      }
      default: {
        const std::int64_t a = eval_node(e.lhs, symbols, line);
        return apply(e.kind, a, e.rhs < 0 ? 0 : eval_node(e.rhs, symbols, line));
      }
    }
  }

  bool evaluable_node(std::int32_t index, const SymbolTable& symbols) const {
    const Expr& e = nodes_[static_cast<std::size_t>(index)];
    switch (e.kind) {
      case Expr::Kind::kNum: return true;
      case Expr::Kind::kSym: return symbols.find(e.sym) != nullptr;
      default:
        return evaluable_node(e.lhs, symbols) && (e.rhs < 0 || evaluable_node(e.rhs, symbols));
    }
  }

  std::vector<Expr> nodes_;
};

// Recursive-descent parser over one operand string.
class ExprParser {
 public:
  ExprParser(std::string_view text, unsigned line, ExprPool& pool)
      : text_(text), line_(line), pool_(pool) {}

  Imm parse() {
    const Imm e = parse_sum();
    skip_ws();
    if (pos_ != text_.size()) throw AsmError("trailing characters in expression", line_);
    return e;
  }

 private:
  Imm parse_sum() {
    Imm lhs = parse_product();
    for (;;) {
      if (consume('+')) {
        lhs = pool_.combine(Expr::Kind::kAdd, lhs, parse_product());
      } else if (consume('-')) {
        lhs = pool_.combine(Expr::Kind::kSub, lhs, parse_product());
      } else {
        return lhs;
      }
    }
  }

  Imm parse_product() {
    Imm lhs = parse_atom();
    while (consume('*')) lhs = pool_.combine(Expr::Kind::kMul, lhs, parse_atom());
    return lhs;
  }

  Imm parse_atom() {
    skip_ws();
    if (pos_ < text_.size() && is_digit(text_[pos_])) return Imm{take_number()};
    if (consume('-')) return pool_.combine(Expr::Kind::kNeg, parse_atom());
    if (consume('(')) {
      const Imm e = parse_sum();
      expect(')');
      return e;
    }
    if (consume('%')) {
      const std::string_view fn = take_ident();
      if (fn != "hi" && fn != "lo") {
        throw AsmError("unknown relocation function %" + std::string(fn), line_);
      }
      const Expr::Kind kind = fn == "hi" ? Expr::Kind::kHi : Expr::Kind::kLo;
      expect('(');
      const Imm inner = parse_sum();
      expect(')');
      return pool_.combine(kind, inner);
    }
    if (pos_ < text_.size() && is_ident_char(text_[pos_])) return pool_.symbol(take_ident());
    throw AsmError("expected expression", line_);
  }

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t')) ++pos_;
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!consume(c)) throw AsmError(std::string("expected '") + c + "'", line_);
  }
  std::string_view take_ident() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() && is_ident_char(text_[pos_])) ++pos_;
    if (pos_ == start) throw AsmError("expected identifier", line_);
    return text_.substr(start, pos_ - start);
  }
  /// A decimal or 0x-prefixed hexadecimal literal. Parsed as unsigned so
  /// 64-bit bit patterns (e.g. negative doubles in .dword) round-trip; the
  /// value wraps into int64 two's complement.
  std::int64_t take_number() {
    std::size_t start = pos_;
    int base = 10;
    if (text_.compare(pos_, 2, "0x") == 0 || text_.compare(pos_, 2, "0X") == 0) {
      base = 16;
      start += 2;
    }
    std::size_t end = start;
    while (end < text_.size() && is_alnum(text_[end])) ++end;
    const std::string_view digits = text_.substr(start, end - start);
    if (digits.empty()) throw AsmError("malformed number", line_);
    std::uint64_t value = 0;
    const char* const last = digits.data() + digits.size();
    const auto [ptr, ec] = std::from_chars(digits.data(), last, value, base);
    if (ec != std::errc() || ptr != last) {
      throw AsmError("malformed number: " + std::string(digits), line_);
    }
    pos_ = end;
    return static_cast<std::int64_t>(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  unsigned line_;
  ExprPool& pool_;
};

// ---------------------------------------------------------------------------
// Line splitting
// ---------------------------------------------------------------------------

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' || s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Split a line into its leading word and the trimmed rest.
std::pair<std::string_view, std::string_view> split_word(std::string_view line) {
  std::size_t space = 0;
  while (space < line.size() && line[space] != ' ' && line[space] != '\t') ++space;
  return {line.substr(0, space), trim(line.substr(space))};
}

/// Split an operand list on top-level commas (parentheses nest) into `out`.
void split_operands(std::string_view s, std::vector<std::string_view>& out) {
  out.clear();
  int depth = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '(') ++depth;
    if (s[i] == ')') --depth;
    if (s[i] == ',' && depth == 0) {
      out.push_back(trim(s.substr(start, i - start)));
      start = i + 1;
    }
  }
  const auto last = trim(s.substr(start));
  if (!last.empty() || !out.empty()) out.push_back(last);
}

// ---------------------------------------------------------------------------
// Name tables
// ---------------------------------------------------------------------------

template <typename V>
StringTable<V> make_table(std::initializer_list<std::pair<std::string_view, V>> entries) {
  StringTable<V> table;
  for (const auto& [name, value] : entries) table.insert(name, value);
  return table;
}

enum class Directive : std::uint8_t {
  kText, kData, kSection, kGlobl, kEqu, kAlign, kWord, kDword, kFloat, kDouble, kSpace,
};

const StringTable<Directive>& directives() {
  static const auto table = make_table<Directive>({
      {".text", Directive::kText},     {".data", Directive::kData},
      {".section", Directive::kSection}, {".globl", Directive::kGlobl},
      {".global", Directive::kGlobl},  {".equ", Directive::kEqu},
      {".set", Directive::kEqu},       {".align", Directive::kAlign},
      {".p2align", Directive::kAlign}, {".word", Directive::kWord},
      {".dword", Directive::kDword},   {".quad", Directive::kDword},
      {".float", Directive::kFloat},   {".double", Directive::kDouble},
      {".space", Directive::kSpace},   {".zero", Directive::kSpace},
  });
  return table;
}

const StringTable<std::uint16_t>& csr_names() {
  static const auto table = make_table<std::uint16_t>({
      {"mcycle", isa::kCsrMcycle},
      {"minstret", isa::kCsrMinstret},
      {"ssr", isa::kCsrSsr},
      {"fpss", isa::kCsrFpss},
      {"region", 0x7C2},
      {"barrier", isa::kCsrBarrier},
      {"mhartid", isa::kCsrMhartid},
  });
  return table;
}

/// Pseudo-instructions, grouped by the shape of their expansion.
enum class Shape : std::uint8_t {
  kNop,            // nop          -> addi x0, x0, 0
  kUnaryImm,       // mv rd, rs    -> m rd, rs, imm
  kUnaryReg,       // neg rd, rs   -> m rd, x0, rs
  kLi,             // li rd, value -> addi, or lui (+ addi)
  kLa,             // la rd, sym   -> lui rd, %hi(sym); addi rd, rd, %lo(sym)
  kJump,           // j/call L     -> jal rd, L
  kJr,             // jr rs        -> jalr x0, rs, 0
  kRet,            // ret          -> jalr x0, ra, 0
  kBranchZero,     // beqz rs, L   -> m rs, x0, L
  kBranchZeroRev,  // bgtz rs, L   -> m x0, rs, L
  kBranchRev,      // bgt rs, rt, L -> m rt, rs, L
  kFpMove,         // fmv.d fd, fs -> m fd, fs, fs
  kCsrRead,        // csrr rd, csr -> csrrs rd, csr, x0
  kCsrWrite,       // csrw csr, rs -> m x0, csr, rs
  kCsrWriteImm,    // csrwi csr, z -> m x0, csr, z
};

struct Pseudo {
  Shape shape = Shape::kNop;
  Mnemonic m = Mnemonic::kAddi;
  std::int8_t arg = 0;  // kUnaryImm: the immediate; kJump: rd
};

const StringTable<Pseudo>& pseudos() {
  static const auto table = make_table<Pseudo>({
      {"nop", {Shape::kNop, Mnemonic::kAddi}},
      {"mv", {Shape::kUnaryImm, Mnemonic::kAddi, 0}},
      {"not", {Shape::kUnaryImm, Mnemonic::kXori, -1}},
      {"seqz", {Shape::kUnaryImm, Mnemonic::kSltiu, 1}},
      {"neg", {Shape::kUnaryReg, Mnemonic::kSub}},
      {"snez", {Shape::kUnaryReg, Mnemonic::kSltu}},
      {"li", {Shape::kLi, Mnemonic::kAddi}},
      {"la", {Shape::kLa, Mnemonic::kLui}},
      {"j", {Shape::kJump, Mnemonic::kJal, 0}},
      {"call", {Shape::kJump, Mnemonic::kJal, 1}},
      {"jr", {Shape::kJr, Mnemonic::kJalr}},
      {"ret", {Shape::kRet, Mnemonic::kJalr}},
      {"beqz", {Shape::kBranchZero, Mnemonic::kBeq}},
      {"bnez", {Shape::kBranchZero, Mnemonic::kBne}},
      {"bltz", {Shape::kBranchZero, Mnemonic::kBlt}},
      {"bgez", {Shape::kBranchZero, Mnemonic::kBge}},
      {"bgtz", {Shape::kBranchZeroRev, Mnemonic::kBlt}},
      {"blez", {Shape::kBranchZeroRev, Mnemonic::kBge}},
      {"bgt", {Shape::kBranchRev, Mnemonic::kBlt}},
      {"ble", {Shape::kBranchRev, Mnemonic::kBge}},
      {"bgtu", {Shape::kBranchRev, Mnemonic::kBltu}},
      {"bleu", {Shape::kBranchRev, Mnemonic::kBgeu}},
      {"fmv.d", {Shape::kFpMove, Mnemonic::kFsgnjD}},
      {"fneg.d", {Shape::kFpMove, Mnemonic::kFsgnjnD}},
      {"fabs.d", {Shape::kFpMove, Mnemonic::kFsgnjxD}},
      {"fmv.s", {Shape::kFpMove, Mnemonic::kFsgnjS}},
      {"fneg.s", {Shape::kFpMove, Mnemonic::kFsgnjnS}},
      {"fabs.s", {Shape::kFpMove, Mnemonic::kFsgnjxS}},
      {"csrr", {Shape::kCsrRead, Mnemonic::kCsrrs}},
      {"csrw", {Shape::kCsrWrite, Mnemonic::kCsrrw}},
      {"csrs", {Shape::kCsrWrite, Mnemonic::kCsrrs}},
      {"csrc", {Shape::kCsrWrite, Mnemonic::kCsrrc}},
      {"csrwi", {Shape::kCsrWriteImm, Mnemonic::kCsrrwi}},
      {"csrsi", {Shape::kCsrWriteImm, Mnemonic::kCsrrsi}},
      {"csrci", {Shape::kCsrWriteImm, Mnemonic::kCsrrci}},
  });
  return table;
}

/// Operand count each pseudo shape takes.
std::size_t operand_count(Shape shape) {
  switch (shape) {
    case Shape::kNop:
    case Shape::kRet: return 0;
    case Shape::kJump:
    case Shape::kJr: return 1;
    case Shape::kBranchRev: return 3;
    default: return 2;
  }
}

// ---------------------------------------------------------------------------
// Assembler
// ---------------------------------------------------------------------------

enum class SectionId { kText, kData, kDram };

struct PendingInstr {
  Mnemonic mnemonic{};
  std::uint8_t rd = 0, rs1 = 0, rs2 = 0, rs3 = 0;
  Imm imm;                   // absolute immediate (or CSR number); 0 when absent
  bool pc_relative = false;  // imm is (target - pc)
  std::uint32_t addr = 0;
  unsigned line = 0;
};

class Assembler {
 public:
  Program run(std::string_view source) {
    instrs_.reserve(static_cast<std::size_t>(std::count(source.begin(), source.end(), '\n')) + 1);
    parse_all(source);
    finalize_symbols();
    encode_all();
    return std::move(program_);
  }

 private:
  // ---- pass 1: parse lines, expand pseudos, lay out sections ----

  void parse_all(std::string_view source) {
    unsigned line_no = 0;
    std::size_t pos = 0;
    while (pos <= source.size()) {
      const std::size_t eol = source.find('\n', pos);
      std::string_view line = source.substr(pos, eol == std::string_view::npos
                                                     ? std::string_view::npos
                                                     : eol - pos);
      pos = eol == std::string_view::npos ? source.size() + 1 : eol + 1;
      ++line_no;
      if (const auto hash = line.find('#'); hash != std::string_view::npos) {
        line = line.substr(0, hash);
      }
      line = trim(line);
      while (!line.empty()) {
        // Labels (possibly several, possibly followed by code).
        const auto colon = line.find(':');
        if (colon != std::string_view::npos) {
          const auto candidate = trim(line.substr(0, colon));
          if (is_ident(candidate)) {
            define(candidate, current_address(), line_no);
            line = trim(line.substr(colon + 1));
            continue;
          }
        }
        break;
      }
      if (line.empty()) continue;
      const auto [word, rest] = split_word(line);
      split_operands(rest, ops_);
      if (word[0] == '.') {
        handle_directive(word, line_no);
      } else {
        handle_instruction(word, line_no);
      }
    }
  }

  static bool is_ident(std::string_view s) {
    return !s.empty() && std::all_of(s.begin(), s.end(), is_ident_char);
  }

  void define(std::string_view name, std::int64_t value, unsigned line) {
    if (!symbols_.insert(name, value)) {
      throw AsmError("redefinition of symbol " + std::string(name), line);
    }
  }

  Imm parse_imm(std::string_view text, unsigned line) {
    return ExprParser(text, line, exprs_).parse();
  }

  std::int64_t eval(Imm imm, unsigned line) const { return exprs_.eval(imm, symbols_, line); }

  std::uint32_t current_address() const {
    switch (section_) {
      case SectionId::kText: return kTextBase + 4 * static_cast<std::uint32_t>(instrs_.size());
      case SectionId::kData: return kTcdmBase + static_cast<std::uint32_t>(data_.size());
      case SectionId::kDram: return kDramBase + static_cast<std::uint32_t>(dram_.size());
    }
    return 0;
  }

  std::vector<std::uint8_t>& bytes_of(SectionId section) {
    return section == SectionId::kData ? data_ : dram_;
  }

  std::vector<std::uint8_t>& current_bytes(unsigned line) {
    if (section_ == SectionId::kText) throw AsmError("data directive outside a data section", line);
    return bytes_of(section_);
  }

  /// Append `count` zero bytes to the current data section and return the
  /// offset of the first. Throws, before growing anything, when the section
  /// would outgrow the memory it is loaded into.
  std::size_t grow(std::uint64_t count, unsigned line) {
    auto& bytes = current_bytes(line);
    const bool tcdm = section_ == SectionId::kData;
    const std::uint64_t capacity = tcdm ? kTcdmSize : kDramSize;
    if (count > capacity - bytes.size()) {
      throw AsmError(std::string(tcdm ? ".data" : ".dram") + " section would exceed the " +
                         std::to_string(capacity) + "-byte " + (tcdm ? "TCDM" : "DRAM"),
                     line);
    }
    const std::size_t offset = bytes.size();
    bytes.resize(offset + static_cast<std::size_t>(count));
    return offset;
  }

  void store(SectionId section, std::size_t offset, std::uint64_t value, unsigned size) {
    auto& bytes = bytes_of(section);
    for (unsigned i = 0; i < size; ++i) {
      bytes[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
  }

  void expect_ops(std::string_view name, std::size_t n, unsigned line_no) const {
    if (ops_.size() != n) {
      throw AsmError(std::string(name) + " expects " + std::to_string(n) + " operands", line_no);
    }
  }

  void handle_directive(std::string_view name, unsigned line_no) {
    const Directive* d = directives().find(name);
    if (d == nullptr) throw AsmError("unknown directive " + std::string(name), line_no);
    switch (*d) {
      case Directive::kText:
        section_ = SectionId::kText;
        return;
      case Directive::kData:
        section_ = SectionId::kData;
        return;
      case Directive::kSection:
        expect_ops(name, 1, line_no);
        if (ops_[0] == ".text") section_ = SectionId::kText;
        else if (ops_[0] == ".data" || ops_[0] == ".bss") section_ = SectionId::kData;
        else if (ops_[0] == ".dram") section_ = SectionId::kDram;
        else throw AsmError("unknown section " + std::string(ops_[0]), line_no);
        return;
      case Directive::kGlobl:
        return;
      case Directive::kEqu:
        expect_ops(name, 2, line_no);
        define(ops_[0], eval(parse_imm(ops_[1], line_no), line_no), line_no);
        return;
      case Directive::kAlign: {
        expect_ops(name, 1, line_no);
        const std::int64_t n = eval(parse_imm(ops_[0], line_no), line_no);
        if (n < 0 || n > 31) {
          throw AsmError(std::string(name) + " argument must be in 0..31, got " + std::to_string(n),
                         line_no);
        }
        align_to(std::uint32_t{1} << n, line_no);
        return;
      }
      case Directive::kWord: emit_scalars(4, line_no); return;
      case Directive::kDword: emit_scalars(8, line_no); return;
      case Directive::kFloat: emit_floats(/*dp=*/false, line_no); return;
      case Directive::kDouble: emit_floats(/*dp=*/true, line_no); return;
      case Directive::kSpace: {
        expect_ops(name, 1, line_no);
        const std::int64_t n = eval(parse_imm(ops_[0], line_no), line_no);
        if (n < 0) {
          throw AsmError(
              std::string(name) + " count must not be negative, got " + std::to_string(n), line_no);
        }
        grow(static_cast<std::uint64_t>(n), line_no);
        return;
      }
    }
  }

  void align_to(std::uint32_t alignment, unsigned line_no) {
    if (section_ == SectionId::kText) {
      if (alignment > 4) throw AsmError("text alignment beyond 4 unsupported", line_no);
      return;  // instructions are always 4-aligned
    }
    const std::size_t size = current_bytes(line_no).size();
    grow((alignment - size % alignment) % alignment, line_no);
  }

  void emit_scalars(unsigned size, unsigned line_no) {
    current_bytes(line_no);  // in a data section, even with no operands
    for (const auto& a : ops_) {
      const Imm value = parse_imm(a, line_no);
      const std::size_t offset = grow(size, line_no);
      // Data words may reference any symbol; resolve those in pass 2.
      if (value.plain()) {
        store(section_, offset, static_cast<std::uint64_t>(value.value), size);
      } else {
        fixups_.push_back(DataFixup{section_, offset, size, value, line_no});
      }
    }
  }

  void emit_floats(bool dp, unsigned line_no) {
    const unsigned size = dp ? 8 : 4;
    current_bytes(line_no);  // in a data section, even with no operands
    for (const auto& a : ops_) {
      const std::string text(a);
      double value = 0.0;
      std::size_t used = 0;
      try {
        value = std::stod(text, &used);
      } catch (const std::invalid_argument&) {
        throw AsmError("malformed floating-point number: " + text, line_no);
      } catch (const std::out_of_range&) {
        throw AsmError("floating-point number out of range: " + text, line_no);
      }
      if (used != text.size()) throw AsmError("malformed floating-point number: " + text, line_no);
      const std::uint64_t raw = dp ? copift::bit_cast<std::uint64_t>(value)
                                   : copift::bit_cast<std::uint32_t>(static_cast<float>(value));
      store(section_, grow(size, line_no), raw, size);
    }
  }

  // ---- instruction and pseudo-instruction handling ----

  void handle_instruction(std::string_view name, unsigned line_no) {
    if (section_ != SectionId::kText) throw AsmError("instruction outside .text", line_no);
    if (const Pseudo* p = pseudos().find(name)) {
      expand_pseudo(*p, name, line_no);
      return;
    }
    const auto m = isa::mnemonic_by_name(name);
    if (!m) throw AsmError("unknown mnemonic " + std::string(name), line_no);
    parse_real(*m, line_no);
  }

  std::uint8_t parse_reg(std::string_view token, RegClass cls, unsigned line_no) const {
    if (cls == RegClass::kFp) {
      if (const auto r = isa::parse_fp_reg(token)) return static_cast<std::uint8_t>(*r);
      throw AsmError("expected FP register, got " + std::string(token), line_no);
    }
    if (const auto r = isa::parse_int_reg(token)) return static_cast<std::uint8_t>(*r);
    throw AsmError("expected integer register, got " + std::string(token), line_no);
  }

  /// Parse "offset(base)" into the offset and the base register.
  std::pair<Imm, std::uint8_t> parse_mem(std::string_view token, unsigned line_no) {
    const auto open = token.rfind('(');
    if (open == std::string_view::npos || token.back() != ')') {
      throw AsmError("expected mem operand offset(reg): " + std::string(token), line_no);
    }
    const auto offset = trim(token.substr(0, open));
    const auto base = trim(token.substr(open + 1, token.size() - open - 2));
    const Imm imm = offset.empty() ? Imm{} : parse_imm(offset, line_no);
    return {imm, parse_reg(base, RegClass::kInt, line_no)};
  }

  Imm parse_csr(std::string_view token, unsigned line_no) {
    if (const std::uint16_t* csr = csr_names().find(token)) return Imm{*csr};
    return parse_imm(token, line_no);
  }

  std::uint8_t parse_zimm(std::string_view token, unsigned line_no) {
    const std::int64_t z = eval(parse_imm(token, line_no), line_no);
    if (z < 0 || z > 31) throw AsmError("zimm out of range", line_no);
    return static_cast<std::uint8_t>(z);
  }

  void emit(PendingInstr p) {
    p.addr = current_address();
    instrs_.push_back(p);
  }

  static PendingInstr base(Mnemonic m, unsigned line_no) {
    PendingInstr p;
    p.mnemonic = m;
    p.line = line_no;
    return p;
  }

  void parse_real(Mnemonic m, unsigned line_no) {
    const auto& meta = isa::info(m);
    const auto& ops = ops_;
    PendingInstr p = base(m, line_no);
    const auto reg = [&](std::size_t i, RegClass cls) { return parse_reg(ops[i], cls, line_no); };
    switch (meta.format) {
      case Format::kR:
      case Format::kRFpRm:
        expect_ops(meta.name, 3, line_no);
        p.rd = reg(0, meta.rd_class);
        p.rs1 = reg(1, meta.rs1_class);
        p.rs2 = reg(2, meta.rs2_class);
        break;
      case Format::kR4:
        expect_ops(meta.name, 4, line_no);
        p.rd = reg(0, meta.rd_class);
        p.rs1 = reg(1, meta.rs1_class);
        p.rs2 = reg(2, meta.rs2_class);
        p.rs3 = reg(3, meta.rs3_class);
        break;
      case Format::kRFp1Rm:
      case Format::kRFp1:
        expect_ops(meta.name, 2, line_no);
        p.rd = reg(0, meta.rd_class);
        p.rs1 = reg(1, meta.rs1_class);
        break;
      case Format::kI:
      case Format::kIShift:
        expect_ops(meta.name, 3, line_no);
        p.rd = reg(0, meta.rd_class);
        p.rs1 = reg(1, meta.rs1_class);
        p.imm = parse_imm(ops[2], line_no);
        break;
      case Format::kILoad:
        expect_ops(meta.name, 2, line_no);
        p.rd = reg(0, meta.rd_class);
        std::tie(p.imm, p.rs1) = parse_mem(ops[1], line_no);
        break;
      case Format::kS:
        expect_ops(meta.name, 2, line_no);
        p.rs2 = reg(0, meta.rs2_class);
        std::tie(p.imm, p.rs1) = parse_mem(ops[1], line_no);
        break;
      case Format::kB:
        expect_ops(meta.name, 3, line_no);
        p.rs1 = reg(0, RegClass::kInt);
        p.rs2 = reg(1, RegClass::kInt);
        p.imm = parse_imm(ops[2], line_no);
        p.pc_relative = true;
        break;
      case Format::kU:
      case Format::kRdImm:
        expect_ops(meta.name, 2, line_no);
        p.rd = reg(0, RegClass::kInt);
        p.imm = parse_imm(ops[1], line_no);
        break;
      case Format::kJ:
        expect_ops(meta.name, 2, line_no);
        p.rd = reg(0, RegClass::kInt);
        p.imm = parse_imm(ops[1], line_no);
        p.pc_relative = true;
        break;
      case Format::kICsr:
        expect_ops(meta.name, 3, line_no);
        p.rd = reg(0, RegClass::kInt);
        p.imm = parse_csr(ops[1], line_no);
        p.rs1 = reg(2, RegClass::kInt);
        break;
      case Format::kICsrImm:
        expect_ops(meta.name, 3, line_no);
        p.rd = reg(0, RegClass::kInt);
        p.imm = parse_csr(ops[1], line_no);
        p.rs1 = parse_zimm(ops[2], line_no);
        break;
      case Format::kFixed:
        expect_ops(meta.name, 0, line_no);
        break;
      case Format::kRdOnly:
        expect_ops(meta.name, 1, line_no);
        p.rd = reg(0, RegClass::kInt);
        break;
      case Format::kRs1Only:
        expect_ops(meta.name, 1, line_no);
        p.rs1 = reg(0, RegClass::kInt);
        break;
      case Format::kRdRs1:
        expect_ops(meta.name, 2, line_no);
        p.rd = reg(0, RegClass::kInt);
        p.rs1 = reg(1, RegClass::kInt);
        break;
      case Format::kRs1Imm:
        expect_ops(meta.name, 2, line_no);
        p.rs1 = reg(0, RegClass::kInt);
        p.imm = parse_imm(ops[1], line_no);
        break;
    }
    emit(p);
  }

  void expand_pseudo(const Pseudo& pseudo, std::string_view name, unsigned line_no) {
    const auto& ops = ops_;
    expect_ops(name, operand_count(pseudo.shape), line_no);
    const auto ireg = [&](std::size_t i) { return parse_reg(ops[i], RegClass::kInt, line_no); };
    const auto freg = [&](std::size_t i) { return parse_reg(ops[i], RegClass::kFp, line_no); };
    const auto emit_i = [&](Mnemonic m, std::uint8_t rd, std::uint8_t rs1, Imm imm) {
      PendingInstr p = base(m, line_no);
      p.rd = rd;
      p.rs1 = rs1;
      p.imm = imm;
      emit(p);
    };
    const auto emit_r = [&](Mnemonic m, std::uint8_t rd, std::uint8_t rs1, std::uint8_t rs2) {
      PendingInstr p = base(m, line_no);
      p.rd = rd;
      p.rs1 = rs1;
      p.rs2 = rs2;
      emit(p);
    };
    const auto emit_branch = [&](std::uint8_t rs1, std::uint8_t rs2, std::string_view target) {
      PendingInstr p = base(pseudo.m, line_no);
      p.rs1 = rs1;
      p.rs2 = rs2;
      p.imm = parse_imm(target, line_no);
      p.pc_relative = true;
      emit(p);
    };
    const auto emit_csr = [&](std::uint8_t rd, std::string_view csr, std::uint8_t rs1) {
      PendingInstr p = base(pseudo.m, line_no);
      p.rd = rd;
      p.imm = parse_csr(csr, line_no);
      p.rs1 = rs1;
      emit(p);
    };

    switch (pseudo.shape) {
      case Shape::kNop:
        emit_i(pseudo.m, 0, 0, Imm{});
        return;
      case Shape::kUnaryImm: {
        const auto rd = ireg(0);
        emit_i(pseudo.m, rd, ireg(1), Imm{pseudo.arg});
        return;
      }
      case Shape::kUnaryReg: {
        const auto rd = ireg(0);
        emit_r(pseudo.m, rd, 0, ireg(1));
        return;
      }
      case Shape::kLi: {
        const auto rd = ireg(0);
        const Imm imm = parse_imm(ops[1], line_no);
        if (!exprs_.evaluable(imm, symbols_)) {
          throw AsmError("li operand must be a constant expression (use la for labels)", line_no);
        }
        const std::int64_t value = eval(imm, line_no);
        if (fits_signed(value, 12)) {
          emit_i(Mnemonic::kAddi, rd, 0, Imm{value});
        } else {
          const auto hi = (static_cast<std::uint32_t>(value) + 0x800U) >> 12;
          const auto lo = sign_extend(static_cast<std::uint32_t>(value) & 0xFFFU, 12);
          emit_i(Mnemonic::kLui, rd, 0, Imm{static_cast<std::int64_t>(hi & 0xFFFFFU)});
          if (lo != 0) emit_i(Mnemonic::kAddi, rd, rd, Imm{lo});
        }
        return;
      }
      case Shape::kLa: {
        const auto rd = ireg(0);
        const Imm target = parse_imm(ops[1], line_no);
        emit_i(Mnemonic::kLui, rd, 0, exprs_.combine(Expr::Kind::kHi, target));
        emit_i(Mnemonic::kAddi, rd, rd, exprs_.combine(Expr::Kind::kLo, target));
        return;
      }
      case Shape::kJump: {
        PendingInstr p = base(pseudo.m, line_no);
        p.rd = static_cast<std::uint8_t>(pseudo.arg);
        p.imm = parse_imm(ops[0], line_no);
        p.pc_relative = true;
        emit(p);
        return;
      }
      case Shape::kJr:
        emit_i(pseudo.m, 0, ireg(0), Imm{});
        return;
      case Shape::kRet:
        emit_i(pseudo.m, 0, 1, Imm{});
        return;
      case Shape::kBranchZero:
        emit_branch(ireg(0), 0, ops[1]);
        return;
      case Shape::kBranchZeroRev:
        emit_branch(0, ireg(0), ops[1]);
        return;
      case Shape::kBranchRev: {
        const auto rs = ireg(0);
        emit_branch(ireg(1), rs, ops[2]);
        return;
      }
      case Shape::kFpMove: {
        const auto rd = freg(0);
        const auto rs = freg(1);
        emit_r(pseudo.m, rd, rs, rs);
        return;
      }
      case Shape::kCsrRead: {
        const auto rd = ireg(0);
        emit_csr(rd, ops[1], 0);
        return;
      }
      case Shape::kCsrWrite:
        emit_csr(0, ops[0], ireg(1));
        return;
      case Shape::kCsrWriteImm:
        emit_csr(0, ops[0], parse_zimm(ops[1], line_no));
        return;
    }
  }

  // ---- pass 2: resolve and encode ----

  void finalize_symbols() {
    program_.text_base = kTextBase;
    program_.data_base = kTcdmBase;
    program_.dram_base = kDramBase;
    symbols_.for_each([&](std::string_view name, std::int64_t value) {
      program_.symbols.emplace(name, static_cast<std::uint32_t>(value));
    });
    program_.entry = program_.has_symbol("_start")
                         ? program_.symbol("_start")
                         : kTextBase;
  }

  void encode_all() {
    program_.text.reserve(instrs_.size());
    program_.text_words.reserve(instrs_.size());
    program_.text_lines.reserve(instrs_.size());
    for (const auto& p : instrs_) {
      Instr instr;
      instr.mnemonic = p.mnemonic;
      instr.rd = p.rd;
      instr.rs1 = p.rs1;
      instr.rs2 = p.rs2;
      instr.rs3 = p.rs3;
      auto value = static_cast<std::uint64_t>(eval(p.imm, p.line));
      if (p.pc_relative) value -= p.addr;
      instr.imm = static_cast<std::int32_t>(value);
      try {
        program_.text_words.push_back(isa::encode(instr));
      } catch (const EncodingError& e) {
        throw AsmError(e.what(), p.line);
      }
      program_.text.push_back(instr);
      program_.text_lines.push_back(p.line);
    }
    for (const auto& f : fixups_) {
      store(f.section, f.offset, static_cast<std::uint64_t>(eval(f.value, f.line)), f.size);
    }
    program_.data = std::move(data_);
    program_.dram = std::move(dram_);
  }

  struct DataFixup {
    SectionId section;
    std::size_t offset;
    unsigned size;
    Imm value;
    unsigned line;
  };

  SectionId section_ = SectionId::kText;
  SymbolTable symbols_;
  ExprPool exprs_;
  std::vector<std::string_view> ops_;  // the current line's operands, reused
  std::vector<PendingInstr> instrs_;
  std::vector<std::uint8_t> data_;
  std::vector<std::uint8_t> dram_;
  std::vector<DataFixup> fixups_;
  Program program_;
};

}  // namespace

Program assemble(std::string_view source) { return Assembler().run(source); }

}  // namespace copift::rvasm
