// A string-keyed hash table in one flat array, for the assembler's name
// lookups: mnemonics, pseudo-instructions, directives, CSR names and
// symbols. Open addressing with linear probing, kept at most half full, so a
// lookup is one hash and usually one key comparison, with no node
// allocations. Keys are views: the caller keeps their bytes alive (string
// literals, or the source text being assembled).
#pragma once

#include <cstddef>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

namespace copift {

template <typename V>
class StringTable {
 public:
  StringTable() : slots_(16) {}

  /// Adds `key`; returns false, keeping the existing value, if it is present.
  bool insert(std::string_view key, V value) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    Slot& slot = slots_[index_of(key)];
    if (slot.used) return false;
    slot = Slot{key, std::move(value), true};
    ++size_;
    return true;
  }

  /// The value stored under `key`, or nullptr.
  [[nodiscard]] const V* find(std::string_view key) const {
    const Slot& slot = slots_[index_of(key)];
    return slot.used ? &slot.value : nullptr;
  }

  /// Calls f(key, value) for every entry, in no particular order.
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& slot : slots_) {
      if (slot.used) f(slot.key, slot.value);
    }
  }

 private:
  struct Slot {
    std::string_view key;
    V value{};
    bool used = false;
  };

  /// The slot holding `key`, or the free slot where it would go.
  [[nodiscard]] std::size_t index_of(std::string_view key) const {
    const std::size_t mask = slots_.size() - 1;  // the size is a power of two
    std::size_t i = std::hash<std::string_view>{}(key) & mask;
    while (slots_[i].used && slots_[i].key != key) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    for (auto& slot : old) {
      if (slot.used) slots_[index_of(slot.key)] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace copift
