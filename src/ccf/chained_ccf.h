// Chained CCF (§6.2): fingerprint-vector entries with the paper's chaining
// technique. A bucket pair holds at most d copies of a fingerprint; further
// duplicates walk to ℓ̃ = h(min{ℓ,ℓ′}, κ) and so on (Algorithms 4 and 5),
// preserving no-false-negatives (Theorem 3).
#ifndef CCF_CCF_CHAINED_CCF_H_
#define CCF_CCF_CHAINED_CCF_H_

#include <memory>
#include <optional>

#include "ccf/ccf_base.h"

namespace ccf {

/// \brief Fingerprint-vector CCF with duplicate-key chaining.
class ChainedCcf : public CcfBase {
 public:
  static Result<std::unique_ptr<ConditionalCuckooFilter>> Make(
      const CcfConfig& config);

  /// Inserts per Algorithm 4. Outcomes:
  ///  * OK — stored, or safely absorbed: when every chain pair up to Lmax is
  ///    full of κ copies the row is dropped but queries for it return true
  ///    regardless (Theorem 3's terminal case), counted in
  ///    num_overflow_rows().
  ///  * CapacityError — a cuckoo kick budget was exhausted; the row is NOT
  ///    represented and the caller must stop/resize (this is the "failed
  ///    insertion" event of Figure 4).
  Status Insert(uint64_t key, std::span<const uint64_t> attrs) override;

  bool ContainsKey(uint64_t key) const override;
  bool Contains(uint64_t key, const Predicate& pred) const override;
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
  Status InsertAddressed(const BucketPair& pair, uint32_t fp,
                         std::span<const uint64_t> attrs) override;
  void SaveExtras(ByteWriter* writer) const override;
  Status LoadExtras(ByteReader* reader) override;

 private:
  ChainedCcf(CcfConfig config, BucketTable table);

  /// Algorithm 5's walk with a pluggable entry matcher (raw predicate or
  /// precompiled fingerprints), starting from the key's already-computed
  /// first pair. The ChainWalk is only materialized once the first pair is
  /// saturated, keeping the common case allocation-free.
  template <typename EntryMatcher>
  bool WalkContains(BucketPair first_pair, uint32_t fp,
                    EntryMatcher&& matches) const {
    std::optional<ChainWalk> walk;
    BucketPair pair = first_pair;
    for (int hop = 0; hop < ChainCap(); ++hop) {
      if (hop > 0) pair = walk->pair();
      auto [count, matched] = ScanPairWithFp(pair, fp, matches);
      if (matched) return true;
      if (count != config_.max_dupes) return false;
      if (hop + 1 < ChainCap()) {
        // Exactly d copies: the chain may continue at the next pair.
        if (!walk) {
          walk.emplace(&hasher_, table_->bucket_mask(), first_pair.primary,
                       fp);
        }
        walk->Advance();
      }
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
