// Direct-mapped memo tables for the fault oracle's pure terms.
//
// Every term the oracle memoizes is a pure function of its key and of the
// owning model's constructor arguments, so a table only ever caches what a
// fresh computation returns: a hit hands back the bits a miss would have
// computed, and an evicted entry is recomputed the same way.  Memoization
// therefore cannot change a decision, only its cost.
#ifndef VASIM_TIMING_MEMO_HPP
#define VASIM_TIMING_MEMO_HPP

#include <array>
#include <memory>
#include <type_traits>

#include "src/common/types.hpp"

namespace vasim::timing {

/// A table of 2^kLog2Slots `Value`s, each keyed by a full 64-bit key.  A
/// bitmap records which slots are filled, so no key value is reserved as an
/// "empty" marker.  Storage is allocated on the first lookup and only the
/// bitmap is zeroed, so a model that never queries pays nothing and slots
/// that are never filled cost no resident memory.  A copy starts empty.  Not
/// thread-safe: the owning models' const queries fill it.
template <class Value, unsigned kLog2Slots>
class MemoTable {
  // Trivial default construction is what leaves unfilled slots untouched.
  static_assert(std::is_trivially_default_constructible_v<Value> &&
                std::is_trivially_copyable_v<Value>);

 public:
  MemoTable() = default;
  MemoTable(const MemoTable& /*other*/) {}
  MemoTable& operator=(const MemoTable& other) {
    if (this != &other) storage_.reset();
    return *this;
  }
  MemoTable(MemoTable&&) noexcept = default;
  MemoTable& operator=(MemoTable&&) noexcept = default;

  /// The value for `key`, held in slot `index mod 2^kLog2Slots`; on a miss
  /// `compute(key)` fills (or evicts into) that slot.
  template <class Compute>
  const Value& get(u64 key, u64 index, Compute&& compute) {
    if (!storage_) storage_.reset(new Storage);  // default-init: slots untouched
    const u64 i = index & (kSlots - 1);
    u64& word = storage_->filled[i / 64];
    const u64 bit = u64{1} << (i % 64);
    Slot& s = storage_->slots[i];
    if ((word & bit) == 0 || s.key != key) {
      s.value = compute(key);
      s.key = key;
      word |= bit;
    }
    return s.value;
  }

 private:
  static constexpr u64 kSlots = u64{1} << kLog2Slots;
  struct Slot {
    u64 key;
    Value value;
  };
  struct Storage {
    std::array<u64, (kSlots + 63) / 64> filled{};
    std::array<Slot, kSlots> slots;
  };

  std::unique_ptr<Storage> storage_;
};

}  // namespace vasim::timing

#endif  // VASIM_TIMING_MEMO_HPP
