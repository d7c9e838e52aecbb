// FNV-1a 64, the hash the pinned-output tests compare against constants.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/fnv1a.hpp"

namespace copift::testing {

/// FNV-1a 64 over a byte stream; integers are fed little-endian.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size) {
    hash_ = fnv1a(std::string_view(static_cast<const char*>(data), size), hash_);
  }
  void u32(std::uint32_t v) {
    const unsigned char le[4] = {static_cast<unsigned char>(v), static_cast<unsigned char>(v >> 8),
                                 static_cast<unsigned char>(v >> 16),
                                 static_cast<unsigned char>(v >> 24)};
    bytes(le, sizeof(le));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = fnv1a({});
};

}  // namespace copift::testing
