#include "debug/rsp.hpp"

#include <algorithm>

namespace copift::debug::rsp {

namespace {

constexpr char kEscape = '}';
constexpr char kInterruptByte = '\x03';

[[nodiscard]] int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

[[nodiscard]] char hex_char(unsigned v) { return "0123456789abcdef"[v & 0xF]; }

}  // namespace

std::uint8_t checksum(std::string_view payload) {
  unsigned sum = 0;
  for (const char c : payload) sum += static_cast<std::uint8_t>(c);
  return static_cast<std::uint8_t>(sum);
}

std::string escape(std::string_view payload) {
  std::string out;
  out.reserve(payload.size());
  for (const char c : payload) {
    if (c == '$' || c == '#' || c == kEscape) {
      out += kEscape;
      out += static_cast<char>(c ^ 0x20);
    } else {
      out += c;
    }
  }
  return out;
}

std::string unescape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] == kEscape && i + 1 < raw.size()) {
      out += static_cast<char>(raw[++i] ^ 0x20);
    } else if (raw[i] != kEscape) {
      out += raw[i];
    }
  }
  return out;
}

std::string frame(std::string_view payload) {
  const std::string escaped = escape(payload);
  const std::uint8_t sum = checksum(escaped);
  std::string out;
  out.reserve(escaped.size() + 4);
  out += '$';
  out += escaped;
  out += '#';
  out += hex_char(sum >> 4);
  out += hex_char(sum);
  return out;
}

std::string to_hex(std::string_view bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<std::uint8_t>(c);
    out += hex_char(b >> 4);
    out += hex_char(b);
  }
  return out;
}

std::optional<std::string> from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  std::string out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_digit(hex[i]);
    const int lo = hex_digit(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out += static_cast<char>((hi << 4) | lo);
  }
  return out;
}

std::string hex_u32_le(std::uint32_t value) {
  std::string out;
  out.reserve(8);
  for (unsigned i = 0; i < 4; ++i) {
    const auto b = static_cast<std::uint8_t>(value >> (8 * i));
    out += hex_char(b >> 4);
    out += hex_char(b);
  }
  return out;
}

std::string hex_u64_le(std::uint64_t value) {
  std::string out;
  out.reserve(16);
  for (unsigned i = 0; i < 8; ++i) {
    const auto b = static_cast<std::uint8_t>(value >> (8 * i));
    out += hex_char(b >> 4);
    out += hex_char(b);
  }
  return out;
}

std::optional<std::uint32_t> parse_u32_le(std::string_view hex) {
  if (hex.size() != 8) return std::nullopt;
  const auto bytes = from_hex(hex);
  if (!bytes) return std::nullopt;
  std::uint32_t v = 0;
  for (unsigned i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>((*bytes)[i])) << (8 * i);
  }
  return v;
}

std::optional<std::uint64_t> parse_u64_le(std::string_view hex) {
  if (hex.size() != 16) return std::nullopt;
  const auto bytes = from_hex(hex);
  if (!bytes) return std::nullopt;
  std::uint64_t v = 0;
  for (unsigned i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>((*bytes)[i])) << (8 * i);
  }
  return v;
}

std::optional<std::uint64_t> parse_hex_num(std::string_view hex) {
  if (hex.empty() || hex.size() > 16) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : hex) {
    const int d = hex_digit(c);
    if (d < 0) return std::nullopt;
    v = (v << 4) | static_cast<unsigned>(d);
  }
  return v;
}

void PacketReader::feed(std::string_view bytes) {
  buf_.append(bytes);
  parse();
}

std::optional<PacketReader::Event> PacketReader::next() {
  if (events_.empty()) return std::nullopt;
  Event e = std::move(events_.front());
  events_.pop_front();
  return e;
}

void PacketReader::parse() {
  std::size_t i = 0;
  while (i < buf_.size()) {
    const char c = buf_[i];
    if (c == '+') {
      events_.push_back({Event::Kind::kAck, {}});
      ++i;
      continue;
    }
    if (c == '-') {
      events_.push_back({Event::Kind::kNack, {}});
      ++i;
      continue;
    }
    if (c == kInterruptByte) {
      events_.push_back({Event::Kind::kInterrupt, {}});
      ++i;
      continue;
    }
    if (c != '$') {
      ++i;  // stray byte between frames: skip, as gdb stubs do
      continue;
    }
    // Frame start: need `$...#xx` complete before consuming anything. Frames
    // escape '$', so a '$' before the '#' starts a new frame: drop the
    // partial one and resync there. scan_ skips the bytes of this frame that
    // earlier feeds already searched.
    const std::size_t end = buf_.find_first_of("$#", i + std::max<std::size_t>(scan_, 1));
    if (end != std::string::npos && buf_[end] == '$') {
      i = end;
      scan_ = 0;
      continue;
    }
    if (end == std::string::npos || end + 2 >= buf_.size()) {  // incomplete
      if (buf_.size() - i > kPacketSize) {
        // Longer than any packet the stub accepts: drop it, once.
        events_.push_back({Event::Kind::kBadChecksum, {}});
        i = buf_.size();
        scan_ = 0;
      } else {
        scan_ = (end == std::string::npos ? buf_.size() : end) - i;
      }
      break;
    }
    const std::string_view body(buf_.data() + i + 1, end - i - 1);
    const int hi = hex_digit(buf_[end + 1]);
    const int lo = hex_digit(buf_[end + 2]);
    if (hi < 0 || lo < 0 || checksum(body) != ((hi << 4) | lo)) {
      events_.push_back({Event::Kind::kBadChecksum, {}});
    } else {
      events_.push_back({Event::Kind::kPacket, unescape(body)});
    }
    i = end + 3;
    scan_ = 0;
  }
  buf_.erase(0, i);
}

}  // namespace copift::debug::rsp
