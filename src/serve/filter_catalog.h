// The filter-fleet serving tier: a concurrent catalog of precomputed
// filters (the paper's deployment model, §2 — "our work allows such
// filters to be precomputed and stored") keyed by filter id, serving a
// hot/cold-skewed fleet of thousands of per-table × per-predicate-family
// sketches instead of the single filter everything below this layer
// assumes.
//
// Two mechanisms make the fleet cheap:
//
//   * Zero-copy opens. File-backed entries are promoted by mmap'ing the
//     serialized blob and alias-deserializing it (the loaded BucketTable's
//     bit arrays point INTO the read-only mapping), so opening a 100 MB
//     filter costs a page-table setup, not a copy — and untouched filters
//     cost no RSS at all. Mutations copy-on-write at the BitVector layer;
//     the mapping is never written through.
//
//   * Hot/cold tiering. Memory-backed entries demote to a zero-run
//     compressed blob (ccf/compress.h) under a configurable hot budget;
//     a second-chance clock picks eviction victims, promote-on-access
//     decompresses back. Every transition is epoch-published, so lookups
//     on hot entries never block on a concurrent promotion or eviction —
//     a reader pinned to a just-evicted filter keeps probing it safely
//     until it unpins.
//
// Every lookup resolves on its calling thread: one epoch pin, one batched
// probe of the entry's filter.
#ifndef CCF_SERVE_FILTER_CATALOG_H_
#define CCF_SERVE_FILTER_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ccf/ccf.h"
#include "util/epoch.h"
#include "util/file_io.h"
#include "util/result.h"

namespace ccf {

struct CatalogOptions {
  /// Hot-tier budget in bytes of resident (decompressed) filter storage.
  /// When a promotion pushes the total above it, the clock evicts until
  /// back under. 0 (the default) disables eviction. Accounting is by
  /// logical filter size (SizeInBits / 8); alias-mode entries are counted
  /// the same even though their residency is page-cache-backed.
  size_t hot_budget_bytes = 0;
  /// Ignored: every lookup resolves on its calling thread. Kept only so
  /// callers that still assign it compile.
  bool enable_batcher = false;
};

/// Monotonic catalog counters (relaxed reads; consistent enough for tests
/// and benchmarks, not a synchronization point).
struct CatalogStats {
  uint64_t promotions = 0;
  uint64_t evictions = 0;
  uint64_t alias_loads = 0;
  size_t hot_bytes = 0;
};

/// \brief A concurrent id → filter catalog with zero-copy opens and hot/cold
/// tiering under a byte budget.
///
/// Thread safety: all public methods are safe to call concurrently.
/// Entries are never removed (the id set is monotonic), which is what
/// lets lookups hold bare Entry pointers across the map lock.
///
/// File-backed entries are served read-only: an eviction drops the
/// mapping, and a re-promotion reloads the FILE, so mutations applied to
/// a file-backed entry (InsertBatch) survive only until its eviction.
/// Memory-backed entries re-compress their CURRENT state on eviction —
/// rows still staged in a sharded entry's write buffer are committed
/// first (an entry whose commit fails stays hot) — so their mutations are
/// durable across tier transitions.
class FilterCatalog {
 public:
  explicit FilterCatalog(CatalogOptions options = {});

  FilterCatalog(const FilterCatalog&) = delete;
  FilterCatalog& operator=(const FilterCatalog&) = delete;

  /// Registers a file-backed entry (cold; first access mmaps + alias-
  /// deserializes it). The file must outlive the catalog. Invalid on a
  /// duplicate id; the path is not touched until first access.
  Status AddFile(const std::string& id, const std::string& path);

  /// Registers an in-memory filter (hot immediately; evicts to a
  /// compressed blob under budget pressure).
  Status AddFilter(const std::string& id,
                   std::unique_ptr<ConditionalCuckooFilter> filter);

  /// Batched predicate lookup against entry `id`, promote-on-access:
  /// out[i] = Contains(keys[i], pred). Resolves inline on the calling
  /// thread.
  Status LookupBatch(const std::string& id, std::span<const uint64_t> keys,
                     const Predicate& pred, std::span<bool> out);

  /// Batched key-only membership against entry `id`, promote-on-access.
  Status ContainsKeyBatch(const std::string& id,
                          std::span<const uint64_t> keys,
                          std::span<bool> out);

  /// Batched RANGE lookup against entry `id`, which must be (or load as) a
  /// RangeCcf: out[i] = ContainsInRange(keys[i], lo, hi, other). The
  /// dyadic cover is compiled once for the batch and broadcast through the
  /// entry's batch pipeline — bit-identical to the scalar loop, epoch-
  /// protected like LookupBatch, staged live-written rows visible.
  /// Invalid when the entry is not a range filter.
  Status LookupRangeBatch(const std::string& id,
                          std::span<const uint64_t> keys, uint64_t lo,
                          uint64_t hi, const Predicate& other,
                          std::span<bool> out);

  /// Applies a row batch to entry `id` without blocking its readers.
  /// Sharded entries stage through their write-buffer overlay (pair with
  /// ShardedCcfOptions autocommit for bursty writers); plain variants
  /// insert into a copy-on-write clone and epoch-publish it. Alias-loaded
  /// tables are unshared before the first write — the backing mapping is
  /// never touched.
  Status InsertBatch(const std::string& id, std::span<const uint64_t> keys,
                     std::span<const uint64_t> attrs);

  /// Forces entry `id` cold (testing / administrative). Fails if the
  /// entry is mid-promotion; lookups pinned to the old snapshot finish
  /// unharmed.
  Status Evict(const std::string& id);

  size_t num_entries() const;
  size_t hot_bytes() const {
    return hot_bytes_.load(std::memory_order_relaxed);
  }
  CatalogStats stats() const;

 private:
  struct Entry {
    Entry(std::string id_in, EpochDomain* domain)
        : id(std::move(id_in)), live(domain, nullptr) {}
    const std::string id;
    /// Serializes tier transitions (promotion, eviction, mutation) of
    /// this entry. Lookups never take it while the entry is hot.
    std::mutex mu;
    /// The hot filter, or null while cold. Readers Load under an epoch
    /// pin; transitions Publish under `mu`.
    TableHandle<ConditionalCuckooFilter> live;
    /// Non-empty => file-backed (promotion mmaps + alias-loads the path).
    std::string path;
    /// Compressed at-rest form of a memory-backed entry (guarded by mu;
    /// meaningful while cold or as the demotion target).
    std::string cold_blob;
    /// Accounted bytes while hot (guarded by mu / the eviction lock).
    size_t hot_bytes = 0;
    /// Second-chance bit: set on access, cleared by a passing clock hand.
    std::atomic<uint32_t> referenced{0};
  };

  Entry* FindEntry(const std::string& id) const;
  Result<Entry*> AddEntry(const std::string& id);

  /// Loads the entry's filter into the hot tier and epoch-publishes it;
  /// caller holds e.mu. Returns the published filter (valid under the
  /// caller's epoch pin, or under e.mu).
  Result<const ConditionalCuckooFilter*> PromoteLocked(Entry& e);
  /// Double-checked promotion: returns the hot filter, promoting first if
  /// cold. `guard` must be the caller's live epoch pin and must span the
  /// use of the result.
  Result<const ConditionalCuckooFilter*> HotFilter(
      Entry& e, const EpochDomain::Guard& guard, bool* promoted);
  /// Demotion prep; caller holds e.mu. Flushes a memory-backed sharded
  /// filter's staged rows into its published tables (Serialize captures
  /// committed state only, so demoting without a flush would drop them)
  /// and reconciles hot-byte accounting with any background growth
  /// (autocommits, watermark resizes) since the entry was last accounted.
  /// On failure the entry must stay hot — its staged rows are still only
  /// in the overlay.
  Status PrepareDemotionLocked(Entry& e, ConditionalCuckooFilter* cur);
  /// Clock eviction until hot_bytes_ is back under the budget.
  void EnforceBudget();

  /// The resolution path shared by LookupBatch (`pred` set) and
  /// ContainsKeyBatch (`pred` null).
  Status ResolveBatch(Entry& e, std::span<const uint64_t> keys,
                      const Predicate* pred, bool* out);

  CatalogOptions options_;
  mutable EpochDomain domain_;

  mutable std::shared_mutex map_mu_;
  std::unordered_map<std::string, std::unique_ptr<Entry>> entries_;

  /// Clock state: registration-ordered entry list + hand position.
  std::mutex evict_mu_;
  std::vector<Entry*> clock_;  // guarded by evict_mu_
  size_t clock_hand_ = 0;      // guarded by evict_mu_

  std::atomic<size_t> hot_bytes_{0};
  std::atomic<uint64_t> num_promotions_{0};
  std::atomic<uint64_t> num_evictions_{0};
  std::atomic<uint64_t> num_alias_loads_{0};
};

}  // namespace ccf

#endif  // CCF_SERVE_FILTER_CATALOG_H_
