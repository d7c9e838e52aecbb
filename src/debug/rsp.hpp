// GDB remote-serial-protocol packet codec.
//
// RSP frames every command/reply as `$<payload>#<xx>` where <xx> is the
// two-hex-digit modulo-256 sum of the payload bytes, and (in ack mode, the
// default) answers each frame with `+` (good checksum) or `-` (retransmit).
// The bytes `$`, `#` and `}` inside a payload are escaped as `}` followed by
// the byte XOR 0x20. A lone 0x03 byte outside any frame is the interrupt
// request (Ctrl-C in gdb).
//
// This header is the pure, socket-free half of the stub: framing, escaping,
// hex encode/decode, and an incremental PacketReader that turns a raw byte
// stream into protocol events. All of it is unit-tested without a cluster
// or a connection (tests/test_debug.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>

namespace copift::debug::rsp {

/// Modulo-256 sum of the payload bytes (computed over the *escaped* payload,
/// per the protocol).
[[nodiscard]] std::uint8_t checksum(std::string_view payload);

/// Escape `$`, `#` and `}` as `}` + (byte ^ 0x20).
[[nodiscard]] std::string escape(std::string_view payload);

/// Inverse of escape(); a trailing lone `}` is dropped (malformed input).
[[nodiscard]] std::string unescape(std::string_view raw);

/// Full frame for a payload: `$` + escape(payload) + `#` + checksum.
[[nodiscard]] std::string frame(std::string_view payload);

// --- hex helpers (RSP is ASCII-hex almost everywhere) -----------------------

[[nodiscard]] std::string to_hex(std::string_view bytes);
/// Decodes pairs of hex digits; returns nullopt on odd length or non-hex.
[[nodiscard]] std::optional<std::string> from_hex(std::string_view hex);

/// Little-endian byte-order hex of a 32/64-bit value, as `g`/`p` replies
/// expect for RISC-V targets (8 resp. 16 hex chars).
[[nodiscard]] std::string hex_u32_le(std::uint32_t value);
[[nodiscard]] std::string hex_u64_le(std::uint64_t value);
/// Inverse: parse exactly 8/16 hex chars of little-endian bytes.
[[nodiscard]] std::optional<std::uint32_t> parse_u32_le(std::string_view hex);
[[nodiscard]] std::optional<std::uint64_t> parse_u64_le(std::string_view hex);

/// Big-endian (natural) hex number parse, as used for addresses/lengths in
/// `m`/`M`/`Z` packets; empty or over-long input returns nullopt.
[[nodiscard]] std::optional<std::uint64_t> parse_hex_num(std::string_view hex);

/// Largest packet the stub accepts, advertised to gdb as qSupported's
/// PacketSize.
inline constexpr std::size_t kPacketSize = 4000;

/// Incremental frame parser. feed() raw bytes as they arrive, then drain
/// next() until it returns nullopt. Bad-checksum frames surface as
/// kBadChecksum (the transport should answer `-`); garbage between frames
/// is skipped, as gdb's own stubs do. A `$` inside an unterminated frame
/// abandons it and starts a new one, and an unterminated frame that grows
/// past kPacketSize is dropped with one kBadChecksum, so the buffer stays
/// bounded whatever the peer sends.
class PacketReader {
 public:
  struct Event {
    enum class Kind { kPacket, kAck, kNack, kInterrupt, kBadChecksum };
    Kind kind;
    std::string payload;  // unescaped, kPacket only
  };

  void feed(std::string_view bytes);
  [[nodiscard]] std::optional<Event> next();
  /// Bytes held for an unterminated frame.
  [[nodiscard]] std::size_t buffered() const noexcept { return buf_.size(); }

 private:
  void parse();

  std::string buf_;
  std::size_t scan_ = 0;  // bytes of the frame at buf_[0] that earlier feeds searched
  std::deque<Event> events_;
};

}  // namespace copift::debug::rsp
