// Small helper for emitting assembly text from C++ kernel generators.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace copift::kernels {

class AsmBuilder {
 public:
  /// Append one instruction/directive line (indented).
  AsmBuilder& l(std::string_view line) {
    text_.append("  ").append(line).push_back('\n');
    return *this;
  }
  /// Append a label definition.
  AsmBuilder& label(std::string_view name) {
    text_.append(name).append(":\n");
    return *this;
  }
  /// Append a comment line.
  AsmBuilder& c(std::string_view text) {
    text_.append("  # ").append(text).push_back('\n');
    return *this;
  }
  /// Append raw text (multi-line allowed).
  AsmBuilder& raw(std::string_view text) {
    text_.append(text);
    return *this;
  }

  [[nodiscard]] std::string str() const { return text_; }

 private:
  std::string text_;
};

/// A piece cat() accepts: text (anything convertible to std::string_view, or
/// a single char) or an integer wider than a byte, printed in decimal.
/// int8_t/uint8_t are character types, so an ostream would print them as
/// raw bytes; they, bool and floating point do not compile (widen the
/// integer, or render doubles with dword_of).
template <typename T>
concept CatPart = std::convertible_to<const T&, std::string_view> || std::same_as<T, char> ||
                  (std::integral<T> && !std::same_as<T, bool> && sizeof(T) > 1);

namespace detail {

template <typename T>
std::size_t cat_size(const T& part) {
  if constexpr (std::same_as<T, char>) {
    return 1;
  } else if constexpr (std::integral<T>) {
    return 20;  // digits of the widest 64-bit value, with sign
  } else {
    return std::string_view(part).size();
  }
}

template <typename T>
void cat_append(std::string& out, const T& part) {
  if constexpr (std::same_as<T, char>) {
    out.push_back(part);
  } else if constexpr (std::integral<T>) {
    char buf[20];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), part).ptr);
  } else {
    out.append(std::string_view(part));
  }
}

}  // namespace detail

/// Variadic string concatenation: cat("lw a0, ", off, "(", base, ")").
template <typename... Parts>
  requires(CatPart<std::remove_cvref_t<Parts>> && ...)
std::string cat(const Parts&... parts) {
  std::string out;
  out.reserve((detail::cat_size(parts) + ... + 0));
  (detail::cat_append(out, parts), ...);
  return out;
}

/// Emit a double constant as a `.dword` with its bit pattern.
std::string dword_of(double value);
/// Emit a raw 64-bit word as a `.dword`.
std::string dword_of(std::uint64_t bits);

/// Emit `dst = src + imm`, falling back to li+add through `tmp` when the
/// immediate exceeds the addi range (large COPIFT block sizes). `tmp` may
/// equal `dst` when `dst != src`.
void emit_add_imm(AsmBuilder& b, const std::string& dst, const std::string& src,
                  std::int64_t imm, const std::string& tmp);

}  // namespace copift::kernels
