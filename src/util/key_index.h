// KeyIndex: a flat key → rows index over a caller-owned key array. The
// shape is a chained hash table with its chains threaded through the rows:
// a power-of-two `heads` array holds the newest row id of each slot's chain
// and `next[r]` the next older row of row r's chain. Slots come from a
// Fibonacci multiply-shift of the key, so equal keys always share a chain;
// other keys may share it too, so callers compare keys[r] themselves.
//
// Rows are linked in id order, which gives the index its two exact edits:
// appending links the new rows at their chains' heads, and truncating to a
// prefix unlinks the newest rows first, each of which is then its chain's
// head (head = next[r]; no tombstones). Heads stay at one slot per row or
// more, doubling (and relinking every row) when appends outgrow them.
#ifndef CCF_UTIL_KEY_INDEX_H_
#define CCF_UTIL_KEY_INDEX_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ccf {

/// Slot of `key` in a table of 2^(64 - shift) slots: the top bits of
/// key * 2^64/φ (Fibonacci hashing), which spread sequential keys evenly.
inline size_t KeySlot(uint64_t key, int shift) {
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift);
}

/// \brief key → row ids, newest first, over rows [0, size()) of a key array
/// the caller owns and passes to every edit. Row ids are 32-bit, so the
/// array holds fewer than 2^32 - 1 rows.
class KeyIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// Rows linked: the prefix of the caller's key array the index covers.
  size_t size() const { return next_.size(); }
  /// False until the first Build, or the first Append of rows; a caller
  /// that builds lazily tests this.
  bool built() const { return !heads_.empty(); }

  /// Relinks rows [0, keys.size()) from scratch, with heads sized to the
  /// rows (also after the array shrank or was rewritten).
  void Build(std::span<const uint64_t> keys) {
    const size_t slots =
        std::bit_ceil(std::max<size_t>(keys.size(), kMinSlots));
    shift_ = 64 - std::countr_zero(slots);
    heads_.assign(slots, kNone);
    next_.resize(keys.size());
    for (size_t r = 0; r < keys.size(); ++r) Link(keys[r], r);
  }

  /// Links rows [size(), keys.size()), the rows appended since the last
  /// edit; relinks everything at twice the heads when they outgrow them.
  void Append(std::span<const uint64_t> keys) {
    if (keys.size() > heads_.size()) {
      Build(keys);
      return;
    }
    size_t r = next_.size();
    next_.resize(keys.size());
    for (; r < keys.size(); ++r) Link(keys[r], r);
  }

  /// Unlinks rows [n, size()), newest first. `keys` must still hold them.
  void Truncate(std::span<const uint64_t> keys, size_t n) {
    for (size_t r = next_.size(); r-- > n;) {
      heads_[KeySlot(keys[r], shift_)] = next_[r];
    }
    next_.resize(std::min(n, next_.size()));
  }

  /// Calls f(row) for every linked row r with keys[r] == key, newest first.
  template <typename F>
  void ForEach(std::span<const uint64_t> keys, uint64_t key, F&& f) const {
    if (heads_.empty()) return;
    for (uint32_t r = heads_[KeySlot(key, shift_)]; r != kNone; r = next_[r]) {
      if (keys[r] == key) f(r);
    }
  }

 private:
  static constexpr size_t kMinSlots = 16;

  void Link(uint64_t key, size_t r) {
    uint32_t& head = heads_[KeySlot(key, shift_)];
    next_[r] = head;
    head = static_cast<uint32_t>(r);
  }

  int shift_ = 64;
  std::vector<uint32_t> heads_;  // newest row per slot, kNone = empty
  std::vector<uint32_t> next_;   // next older row of the same chain
};

}  // namespace ccf

#endif  // CCF_UTIL_KEY_INDEX_H_
