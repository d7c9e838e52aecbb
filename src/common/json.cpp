#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

namespace copift {

// --- Json constructors ------------------------------------------------------

Json Json::boolean(bool v) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = v;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = v;
  return j;
}

Json Json::number(std::uint64_t v) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = static_cast<double>(v);
  j.int_kind_ = IntKind::kUnsigned;
  j.uint_ = v;
  return j;
}

Json Json::number(std::int64_t v) {
  if (v >= 0) return number(static_cast<std::uint64_t>(v));
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = static_cast<double>(v);
  j.int_kind_ = IntKind::kNegative;
  j.uint_ = static_cast<std::uint64_t>(-(v + 1)) + 1;  // |v| without overflow
  return j;
}

Json Json::string(std::string v) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::move(v);
  return j;
}

Json Json::array(Array v) {
  Json j;
  j.type_ = Type::kArray;
  j.array_ = std::make_shared<const Array>(std::move(v));
  return j;
}

Json Json::object(Object v) {
  Json j;
  j.type_ = Type::kObject;
  j.object_ = std::make_shared<const Object>(std::move(v));
  return j;
}

// --- accessors --------------------------------------------------------------

namespace {

const char* type_name(Json::Type t) {
  switch (t) {
    case Json::Type::kNull: return "null";
    case Json::Type::kBool: return "bool";
    case Json::Type::kNumber: return "number";
    case Json::Type::kString: return "string";
    case Json::Type::kArray: return "array";
    case Json::Type::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void type_error(const char* wanted, Json::Type got) {
  throw JsonError(std::string("expected ") + wanted + ", got " + type_name(got));
}

}  // namespace

bool Json::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return number_;
}

std::uint64_t Json::as_u64() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  if (int_kind_ != IntKind::kUnsigned) {
    throw JsonError("expected a non-negative integer, got " + dump());
  }
  return uint_;
}

std::uint32_t Json::as_u32() const {
  const std::uint64_t v = as_u64();
  if (v > 0xFFFFFFFFull) {
    throw JsonError("integer " + dump() + " does not fit in 32 bits");
  }
  return static_cast<std::uint32_t>(v);
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return string_;
}

const Json::Array& Json::as_array() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return *array_;
}

const Json::Object& Json::as_object() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return *object_;
}

const Json* Json::find(std::string_view key) const {
  for (const auto& [k, v] : as_object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* v = find(key);
  if (v == nullptr) throw JsonError("missing required key \"" + std::string(key) + "\"");
  return *v;
}

// --- parser -----------------------------------------------------------------

namespace {

class Parser {
 public:
  Parser(std::string_view text, unsigned max_depth) : text_(text), max_depth_(max_depth) {}

  Json run() {
    Json v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("at offset " + std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    ++pos_;
  }

  bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Json value(unsigned depth) {
    if (depth > max_depth_) fail("nesting deeper than " + std::to_string(max_depth_));
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return object(depth);
      case '[': return array(depth);
      case '"': return Json::string(string_body());
      case 't':
        if (consume_word("true")) return Json::boolean(true);
        fail("invalid literal (expected 'true')");
      case 'f':
        if (consume_word("false")) return Json::boolean(false);
        fail("invalid literal (expected 'false')");
      case 'n':
        if (consume_word("null")) return Json();
        fail("invalid literal (expected 'null')");
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return number();
        fail(std::string("unexpected character '") + c + "'");
    }
  }

  Json object(unsigned depth) {
    expect('{');
    Json::Object members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json::object(std::move(members));
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("object key must be a string");
      std::string key = string_body();
      for (const auto& [k, v] : members) {
        if (k == key) fail("duplicate object key \"" + key + "\"");
      }
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') break;
      if (c != ',') fail(std::string("expected ',' or '}' in object, got '") + c + "'");
    }
    return Json::object(std::move(members));
  }

  Json array(unsigned depth) {
    expect('[');
    Json::Array items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json::array(std::move(items));
    }
    while (true) {
      items.push_back(value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') break;
      if (c != ',') fail(std::string("expected ',' or ']' in array, got '") + c + "'");
    }
    return Json::array(std::move(items));
  }

  unsigned hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else fail(std::string("invalid hex digit '") + c + "' in \\u escape");
    }
    return v;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string string_body() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("raw control character in string (must be escaped)");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      const char e = peek();
      ++pos_;
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: pair required
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
              fail("unpaired UTF-16 high surrogate");
            }
            pos_ += 2;
            const unsigned lo = hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid UTF-16 low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired UTF-16 low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail(std::string("invalid escape '\\") + e + "'");
      }
    }
    return out;
  }

  Json number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (peek() == '0') {
      ++pos_;
      if (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("leading zero in number");
      }
    } else if (std::isdigit(static_cast<unsigned char>(peek()))) {
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    } else {
      fail("invalid number");
    }
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("digit required after decimal point");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("digit required in exponent");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    const std::string_view literal = text_.substr(start, pos_ - start);
    if (integral) {
      // Keep integers exact: a 64-bit cycle count must survive a round trip.
      // "-0" has no integer form, so it takes the double path below.
      if (literal[0] == '-') {
        std::int64_t v = 0;
        const auto [p, ec] = std::from_chars(literal.begin() + 0, literal.end(), v);
        if (ec == std::errc() && p == literal.end() && v != 0) return Json::number(v);
      } else {
        std::uint64_t v = 0;
        const auto [p, ec] = std::from_chars(literal.begin() + 0, literal.end(), v);
        if (ec == std::errc() && p == literal.end()) return Json::number(v);
      }
      // Out of 64-bit range: fall through to the double view.
    }
    double d = 0.0;
    const auto [p, ec] = std::from_chars(literal.begin() + 0, literal.end(), d);
    if (ec != std::errc() || p != literal.end()) fail("number out of range");
    return Json::number(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  unsigned max_depth_;
};

}  // namespace

Json Json::parse(std::string_view text, unsigned max_depth) {
  return Parser(text, max_depth).run();
}

// --- writer -----------------------------------------------------------------

void Json::append_quoted(std::string& out, std::string_view value) {
  out += '"';
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void Json::append_number(std::string& out, double v) {
  // std::to_chars with a precision formats exactly as printf("%.17g") does,
  // without printf's locale and varargs overhead.
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out.append(buf, result.ptr);
}

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += bool_ ? "true" : "false"; return;
    case Type::kNumber:
      if (int_kind_ == IntKind::kNone) {
        // JSON has no Inf/NaN; null is the conventional degradation.
        if (std::isfinite(number_)) append_number(out, number_);
        else out += "null";
        return;
      }
      if (int_kind_ == IntKind::kNegative) out += '-';
      out += std::to_string(uint_);
      return;
    case Type::kString: append_quoted(out, string_); return;
    case Type::kArray: {
      out += '[';
      bool first = true;
      for (const auto& v : *array_) {
        if (!first) out += ',';
        first = false;
        v.dump_to(out);
      }
      out += ']';
      return;
    }
    case Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : *object_) {
        if (!first) out += ',';
        first = false;
        append_quoted(out, k);
        out += ':';
        v.dump_to(out);
      }
      out += '}';
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

}  // namespace copift
