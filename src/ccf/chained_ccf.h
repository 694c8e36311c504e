// Chained CCF (§6.2): fingerprint-vector entries with the paper's chaining
// technique. A bucket pair holds at most d copies of a fingerprint; further
// duplicates walk to ℓ̃ = h(min{ℓ,ℓ′}, κ) and so on (Algorithms 4 and 5),
// preserving no-false-negatives (Theorem 3).
#ifndef CCF_CCF_CHAINED_CCF_H_
#define CCF_CCF_CHAINED_CCF_H_

#include <memory>

#include "ccf/ccf_base.h"

namespace ccf {

/// \brief Fingerprint-vector CCF with duplicate-key chaining.
class ChainedCcf : public CcfBase {
 public:
  static Result<std::unique_ptr<ConditionalCuckooFilter>> Make(
      const CcfConfig& config);

  bool ContainsAddressed(uint64_t bucket, uint32_t fp,
                         const Predicate& pred) const override;
  bool ContainsAddressedExcluding(
      uint64_t bucket, uint32_t fp, const Predicate& pred,
      std::span<const uint64_t> excluded) const override;
  bool ContainsKeyAddressedExcluding(
      uint64_t bucket, uint32_t fp,
      std::span<const uint64_t> excluded) const override;
  Result<std::unique_ptr<KeyFilter>> PredicateQuery(
      const Predicate& pred) const override;
  Result<std::unique_ptr<ConditionalCuckooFilter>> Clone() const override {
    auto copy = std::unique_ptr<ChainedCcf>(new ChainedCcf(*this));
    // The implicit copy leaves codec_ pointing at the SOURCE's hasher;
    // rebind so the clone stays valid after the source is epoch-freed.
    copy->codec_.RebindHasher(&copy->hasher_);
    return std::unique_ptr<ConditionalCuckooFilter>(std::move(copy));
  }
  CcfVariant variant() const override { return CcfVariant::kChained; }

  /// Rows absorbed by the chain-cap terminal case (always answered true).
  uint64_t num_overflow_rows() const { return num_overflow_rows_; }

  /// Longest chain walked by any insertion so far (diagnostics).
  int max_chain_seen() const { return max_chain_seen_; }

 protected:
  void LookupBatchBroadcast(std::span<const uint64_t> keys,
                            const Predicate& pred,
                            std::span<bool> out) const override;
  uint64_t PackRowPayload(std::span<const uint64_t> attrs) const override;
  bool TryInsertNoKick(const BucketPair& pair, uint32_t fp,
                       std::span<const uint64_t> attrs,
                       uint64_t payload) override;
  /// Inserts per Algorithm 4. Outcomes:
  ///  * OK — stored, or safely absorbed: when every chain pair up to Lmax is
  ///    full of κ copies the row is dropped but queries for it return true
  ///    regardless (Theorem 3's terminal case), counted in
  ///    num_overflow_rows().
  ///  * CapacityError — a cuckoo kick budget was exhausted; the row is NOT
  ///    represented and the caller must stop/resize (this is the "failed
  ///    insertion" event of Figure 4).
  Status InsertAddressed(const BucketPair& pair, uint32_t fp,
                         std::span<const uint64_t> attrs, uint64_t payload,
                         ChainCursors* cursors) override;
  void SaveExtras(ByteWriter* writer) const override;
  Status LoadExtras(ByteReader* reader) override;

 private:
  ChainedCcf(CcfConfig config, BucketTable table);

  /// Chain pairs a batch walks directly before it keeps a cursor for the
  /// chain (ChainCursors): short chains are cheaper to re-walk than to
  /// index.
  static constexpr int kDirectHops = 4;

  /// Algorithm 5's walk with a pluggable entry matcher (raw predicate or
  /// precompiled fingerprints), starting from the key's already-computed
  /// first pair. The first pair is scanned inline; only a saturated one
  /// calls out to the chain walk, which keeps the ChainWalk (and its inline
  /// visited buffer) out of the batched probe loop's frame.
  template <typename EntryMatcher>
  bool WalkContains(BucketPair first_pair, uint32_t fp,
                    EntryMatcher&& matches) const {
    auto [count, matched] = ScanPairWithFp(first_pair, fp, matches);
    if (matched) return true;
    if (count != config_.max_dupes) return false;
    return WalkChainContains(first_pair, fp, matches);
  }

  /// WalkContains past a saturated first pair: hops 1 .. Lmax-1.
  template <typename EntryMatcher>
  [[gnu::noinline]] bool WalkChainContains(const BucketPair& first_pair,
                                           uint32_t fp,
                                           EntryMatcher& matches) const {
    ChainWalk walk(&hasher_, table_->bucket_mask(), first_pair.primary, fp);
    for (int hop = 1; hop < ChainCap(); ++hop) {
      walk.Advance();
      auto [count, matched] = ScanPairWithFp(walk.pair(), fp, matches);
      if (matched) return true;
      if (count != config_.max_dupes) return false;
    }
    // Lmax pairs checked, all holding d copies: true regardless of
    // predicate (Algorithm 5's terminal case).
    return true;
  }

  AttrFingerprintCodec codec_;
  uint64_t num_overflow_rows_ = 0;
  int max_chain_seen_ = 0;
};

}  // namespace ccf

#endif  // CCF_CCF_CHAINED_CCF_H_
