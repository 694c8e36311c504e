// BloomSketchView: Bloom-filter semantics over a borrowed bit range.
//
// CCF entries embed tiny Bloom filters inside the payload bits of cuckoo
// table slots (Bloom-CCF stores one per entry; Mixed-CCF packs one across
// the d slots of a converted key). This view performs set/test against any
// (BitVector, offset, width) window without owning storage.
#ifndef CCF_BLOOM_BLOOM_SKETCH_H_
#define CCF_BLOOM_BLOOM_SKETCH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "hash/hasher.h"
#include "util/bit_vector.h"

namespace ccf {

/// \brief Non-owning Bloom filter over a window of bits.
///
/// Probing uses double hashing (h1 + i * h2). An item here is an
/// (attribute index, value) pair encoded into one 64-bit word.
class BloomSketchView {
 public:
  /// A window of `num_bits` bits starting at absolute bit `offset` of
  /// `*bits`. The window may also be split across several disjoint segments
  /// (the Mixed-CCF fragment case) — see the segment constructor.
  BloomSketchView(BitVector* bits, size_t offset, size_t num_bits,
                  const Hasher* hasher, int num_hashes)
      : segments_{{offset, num_bits}},
        total_bits_(num_bits),
        bits_(bits),
        hasher_(hasher),
        num_hashes_(num_hashes) {}

  /// A window formed by concatenating `(offset, len)` segments in order.
  BloomSketchView(BitVector* bits,
                  std::vector<std::pair<size_t, size_t>> segments,
                  const Hasher* hasher, int num_hashes);

  /// Encodes an (attribute index, value) pair as a Bloom item.
  static uint64_t EncodeAttr(uint32_t attr_index, uint64_t value) {
    // Mix the index into the high bits; values are hashed anyway so a simple
    // xor-fold keeps pairs distinct.
    return value ^ (0x51ed270b9ull * (attr_index + 1));
  }

  /// Double-hashing probe stream of an item. Insert/Contains derive their
  /// probe positions from exactly this seed, so callers that test many
  /// same-size windows against one item (the Bloom-CCF broadcast batch)
  /// can precompute all k logical positions once instead of rehashing per
  /// candidate entry — answers stay bit-identical by construction.
  struct ProbeSeed {
    uint64_t h1;
    uint64_t h2;
  };
  static ProbeSeed SeedFor(const Hasher& hasher, uint64_t item) {
    return ProbeSeed{hasher.Hash(item, 11), hasher.Hash(item, 12) | 1};
  }
  /// Logical bit position of probe `i` within a `total_bits`-bit window.
  static size_t ProbeAt(const ProbeSeed& seed, int i, size_t total_bits) {
    return static_cast<size_t>(
        (seed.h1 + static_cast<uint64_t>(i) * seed.h2) % total_bits);
  }

  void Insert(uint64_t item);
  bool Contains(uint64_t item) const;

  /// Copies all window bits out (used to re-pack fragments after kicks).
  std::vector<bool> Extract() const;
  /// Overwrites the window with `bits` (size must equal total_bits()).
  void Deposit(const std::vector<bool>& window_bits);

  void Clear();
  size_t total_bits() const { return total_bits_; }
  int num_hashes() const { return num_hashes_; }

 private:
  size_t GlobalBit(size_t logical) const;

  std::vector<std::pair<size_t, size_t>> segments_;
  size_t total_bits_;
  BitVector* bits_;
  const Hasher* hasher_;
  int num_hashes_;
};

}  // namespace ccf

#endif  // CCF_BLOOM_BLOOM_SKETCH_H_
