// FNV-1a 64: the hash of the counters' layout fingerprint, the --cache-file
// checksum and the tests' pinned outputs.
#pragma once

#include <cstdint>
#include <string_view>

namespace copift {

/// FNV-1a 64 of `bytes`, continuing from `hash` (the offset basis by
/// default), so a stream can be hashed in pieces.
constexpr std::uint64_t fnv1a(std::string_view bytes,
                              std::uint64_t hash = 0xcbf29ce484222325ULL) noexcept {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace copift
