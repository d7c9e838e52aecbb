// JSON: one value type with its reader and writer, plus the two writer
// primitives every JSON producer in the repo appends through.
//
// Sweep tables (ResultTable), serve replies, `--lint-json` reports and
// Perfetto traces all escape their strings with Json::append_quoted and
// print their doubles with Json::append_number, so the same value has the
// same bytes whichever producer wrote it. Json::parse is the one reader:
// the serve wire protocol parses requests with it, and the tests parse
// every producer's output back through it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace copift {

/// Raised on malformed JSON text and on a typed access of the wrong kind.
/// Parse errors carry the byte offset of the offending character. Serve
/// clients see these messages verbatim (serve::ProtocolError is this type),
/// hence the "protocol error: " prefix.
class JsonError : public Error {
 public:
  explicit JsonError(const std::string& what) : Error("protocol error: " + what) {}
};

/// An immutable JSON value: null, bool, number, string, array or object.
/// Integer literals that fit in 64 bits are kept exact alongside the double
/// view, so cycle counts survive a round trip bit-for-bit.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<Json>;
  /// Insertion-ordered (a std::map would silently reorder keys and hide
  /// duplicate-key bugs; the parser rejects duplicates instead).
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() = default;  // null
  static Json boolean(bool v);
  static Json number(double v);
  static Json number(std::uint64_t v);
  static Json number(std::int64_t v);
  static Json string(std::string v);
  static Json array(Array v);
  static Json object(Object v);

  /// Parse exactly one JSON document; trailing non-whitespace is an error.
  /// Throws JsonError with the byte offset on malformed input. `depth`
  /// bounds nesting so hostile input cannot overflow the parser stack.
  static Json parse(std::string_view text, unsigned max_depth = 64);

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return type_ == Type::kObject; }

  /// Typed accessors; throw JsonError naming the actual type on mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  /// The value as an exact unsigned integer; throws when the literal was
  /// fractional, negative, or does not fit (value carried in the message).
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] std::uint32_t as_u32() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member lookup; nullptr when absent (throws on non-objects).
  [[nodiscard]] const Json* find(std::string_view key) const;
  /// Object member that must exist; the error names the missing key.
  [[nodiscard]] const Json& at(std::string_view key) const;

  /// Serialize back to compact (single-line) JSON text. Exact-integer
  /// numbers print as integers, other finite numbers through
  /// append_number, and non-finite ones as null.
  [[nodiscard]] std::string dump() const;
  void dump_to(std::string& out) const;

  /// Append `value` as a quoted JSON string (RFC 8259): quote, backslash
  /// and every control character escaped, with the short escape where JSON
  /// has one. Every other byte, UTF-8 included, passes through unchanged.
  static void append_quoted(std::string& out, std::string_view value);
  /// Append `v` with 17 significant digits, as printf's "%.17g" writes it:
  /// every double round-trips, and the bytes do not depend on the thread or
  /// the run. Non-finite values come out as "inf" or "nan", which JSON
  /// lacks; a writer that can meet them decides what to print instead.
  static void append_number(std::string& out, double v);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  // Exact-integer sidecar for number values (kNone when fractional/huge).
  enum class IntKind { kNone, kUnsigned, kNegative } int_kind_ = IntKind::kNone;
  std::uint64_t uint_ = 0;  // magnitude; kNegative means value is -(int64)uint_
  std::string string_;
  std::shared_ptr<const Array> array_;
  std::shared_ptr<const Object> object_;
};

}  // namespace copift
