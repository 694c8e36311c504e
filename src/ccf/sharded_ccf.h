// Sharded CCF: partitions keys across N independent ConditionalCuckooFilter
// shards behind the same interface. Each key is routed to exactly one shard
// by a hash that is uncorrelated with the in-shard addressing hash, so shard
// answers are bit-identical to a single filter holding that shard's rows.
//
// Concurrency model (the online serving core):
//   * Reads are lock-free and always safe: every query method pins the
//     filter's epoch domain, loads each shard's current table snapshot
//     pointer once for the whole call, and resolves against those immutable
//     snapshots. Readers never block on writers or resizes.
//   * Writes are serialized per shard by a writer mutex; writers to
//     DIFFERENT shards run fully in parallel (InsertParallel's N-way build).
//     In-place writes to a shard mutate its current snapshot, so readers of
//     that specific shard must be quiesced during in-place writes — the same
//     single-writer/multi-reader contract as the unsharded filter.
//   * Batched writes never block readers: BufferWrite stages rows into a
//     per-shard write buffer (readers see them immediately through an exact
//     overlay probe, so Insert→Contains semantics hold before the commit;
//     the probe walks only the queried key's chain of staged records, so
//     staged erases keep every batched read on its prefetched table probe
//     and only a key with its own staged erase takes the excluding probe),
//     and CommitWrites builds the staged rows into a copy-on-write clone of
//     the shard's filter OFF the serving path, publishing the result with
//     the same epoch swap a resize uses. Readers stay pinned-lock-free
//     through the whole write cycle; only stagers/committers of the SAME
//     shard serialize with each other.
//   * Proactive resize: with ShardedCcfOptions::resize_watermark set, a
//     commit (or in-place insert) that leaves a shard's occupancy at or
//     above the watermark schedules a background doubling resize BEFORE any
//     insert fails, keeping CapacityError-triggered rebuilds off the tail
//     latency path. Committed erases leave residue in the table, so a shard
//     holding dead rows compacts at its current geometry first and doubles
//     only if its surviving rows still reach the trigger.
//   * NUMA placement: when the topology resolved at construction has more
//     than one node (util/topology.h; CCF_NUMA=off collapses it to one),
//     shards are assigned round-robin to nodes, each shard's table pages
//     are bound to its node at allocation (ScopedNumaAllocNode through
//     BitVector), and the build / resize / commit worker threads are
//     pinned to their shard's node. Reads always resolve on the calling
//     thread under the filter's one epoch domain. Placement moves pages
//     and threads, never answers: every mode is bit-identical to the
//     single-node path.
//   * Resizes never block readers: ResizeShard rebuilds ONE shard at the new
//     geometry from the shard's retained row log (re-placing rows from the
//     hash memo, not re-hashing) and publishes the replacement via an atomic
//     epoch swap. Concurrent readers see either the complete old shard or
//     the complete new shard — never a partial table, never a false
//     negative — and the old table is freed only after every reader that
//     could hold it has unpinned. Insert/InsertParallel trigger these
//     per-shard resizes transparently on CapacityError instead of failing
//     the build.
//
// The batched lookup path prefetches the target shard's bucket pair per key
// and resolves through CcfBase::ContainsAddressed (or the shard's own batch
// path for a broadcast predicate), then folds in the overlay per key through
// ResolveKeyWithOps; shards share one salt but may have DIFFERENT bucket
// counts after per-shard resizes, so addressing is re-masked per target
// shard.
#ifndef CCF_CCF_SHARDED_CCF_H_
#define CCF_CCF_SHARDED_CCF_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "ccf/ccf.h"
#include "ccf/ccf_base.h"
#include "util/epoch.h"
#include "util/topology.h"

namespace ccf {

/// Sharding parameters.
struct ShardedCcfOptions {
  /// Number of shards (rounded up to a power of two).
  int num_shards = 4;
  /// Threads used by InsertParallel; 0 means one per shard.
  int build_threads = 0;
  /// Doubling resizes a single Insert/InsertParallel/CommitWrites call may
  /// trigger transparently per shard on CapacityError before surfacing the
  /// error (after one compaction at the current geometry when the shard
  /// holds dead rows). 0 disables doubling on CapacityError.
  int max_auto_resizes = 8;
  /// Load-factor watermark for PROACTIVE background resize: when a commit
  /// or in-place insert leaves a shard's occupancy / slots at or above this
  /// fraction, a background rebuild is scheduled for that shard (doubling,
  /// after a compaction if the shard holds dead rows) so the rebuild
  /// happens off the serving path before any insert fails (CapacityError
  /// doubling then stays a fallback, not the steady-state growth
  /// mechanism). 0 (the default) disables the policy — builds that
  /// assert bit-identical geometry trajectories rely on that. 0.85 is a
  /// good serving-side setting. Ignored on deserialized (log-less)
  /// filters, which cannot resize.
  double resize_watermark = 0.0;
  /// Dead-row fraction of a shard's retained row log at which a commit
  /// triggers an in-place compaction of that shard: the log is rewritten
  /// without erased rows and the shard's table is rebuilt (at its current
  /// geometry) from the survivors, clearing the residue erased rows leave
  /// in the table. Bounds the log and the residue under churn. <= 0
  /// disables the policy (explicit Compact() and the compact-first growth
  /// rule still apply). Ignored on deserialized (log-less) filters.
  double compact_watermark = 0.5;
  /// Auto-commit SIZE trigger for bursty writers: when a buffered write
  /// leaves a shard's staged overlay at or above this many rows, a
  /// background commit of THAT shard is scheduled (same futures machinery
  /// as the watermark resizes), folding the overlay into the probe-speed
  /// table without any explicit CommitWrites call. Staged rows stay
  /// query-visible throughout; the overlay just stays small. 0 (the
  /// default) disables the policy.
  size_t autocommit_pending_rows = 0;
  /// Auto-commit AGE trigger: when a buffered write finds the shard's
  /// oldest staged row older than this, a background commit of the shard
  /// is scheduled. Bounds how long a trickle of writes can linger in the
  /// overlay. Zero (the default) disables the policy. Checked on write —
  /// an idle shard holds its staged rows until the next write or an
  /// explicit CommitWrites/DrainMaintenance.
  std::chrono::milliseconds autocommit_interval{0};
};

/// \brief N independent CCF shards behind the ConditionalCuckooFilter
/// interface, with epoch-protected snapshots and shard-by-shard background
/// resize (see the concurrency model above).
class ShardedCcf : public ConditionalCuckooFilter {
 public:
  /// Creates `options.num_shards` shards of `variant`. `config.num_buckets`
  /// is the TOTAL bucket budget; each shard gets num_buckets / num_shards
  /// (at least 1, rounded up to a power of two). All shards share
  /// config.salt so a key's fingerprint is shard-independent (bucket
  /// indices are per-shard re-maskings of the same hash).
  static Result<std::unique_ptr<ShardedCcf>> Make(
      CcfVariant variant, const CcfConfig& config,
      const ShardedCcfOptions& options);

  /// Teardown order matters and is part of the contract: (1) reap every
  /// in-flight background maintenance future (they capture `this` and touch
  /// the shards), and only then (2) synchronize the epoch domain so
  /// deferred reclamation hooks (write-buffer recycling references the
  /// shards) run while the shards are still alive. The domain itself is
  /// declared first, so it is destroyed last — after every TableHandle has
  /// released its object into it. Callers holding CommitWritesAsync /
  /// ResizeShardAsync futures must still join those before destroying the
  /// filter (std::future's destructor does, for async-launched tasks).
  ~ShardedCcf() override;

  /// Routes the row to its shard (one writer per shard; takes that shard's
  /// writer mutex). On CapacityError the shard transparently resizes
  /// (doubling, up to options.max_auto_resizes) and the row lands in the
  /// rebuilt shard. The in-place write itself follows the single-writer
  /// contract — readers of THIS shard must be quiesced while it runs (the
  /// header's writer rules); only the capacity-triggered rebuild+swap part
  /// is safe under concurrent readers.
  Status Insert(uint64_t key, std::span<const uint64_t> attrs) override;

  /// Bulk parallel build. `attrs` is row-major: row i occupies
  /// attrs[i*num_attrs, (i+1)*num_attrs). Rows are gathered per shard
  /// (insertion order within a shard follows the input order) and each
  /// shard runs its own batched two-wave InsertBatch under its writer
  /// mutex, with `num_threads` threads striping over shards (0 →
  /// options.build_threads). A shard that fails with CapacityError resizes
  /// itself (doubling, up to options.max_auto_resizes) and rebuilds from
  /// its retained row log, so well-provisioned auto-resize budgets make
  /// whole-build doubling retries unnecessary. Per-shard errors are
  /// aggregated deterministically: the error of the LOWEST failing shard
  /// index is returned (prefixed "shard N: "), independent of thread
  /// scheduling; remaining shards still finish, so the structure stays
  /// consistent.
  ///
  /// `hash_memo` follows ConditionalCuckooFilter::InsertBatch (two words
  /// per row), aligned to the INPUT row order: the shard route, the
  /// in-shard key hash, and the packed payload all depend only on the
  /// salt, so a memo filled here stays valid across bucket-doubling
  /// rebuilds of a fresh ShardedCcf with the same salt.
  Status InsertParallel(std::span<const uint64_t> keys,
                        std::span<const uint64_t> attrs, int num_threads = 0,
                        std::vector<uint64_t>* hash_memo = nullptr);

  /// The ConditionalCuckooFilter bulk-build entry: InsertParallel with the
  /// configured thread count.
  Status InsertBatch(std::span<const uint64_t> keys,
                     std::span<const uint64_t> attrs,
                     std::vector<uint64_t>* hash_memo = nullptr) override;

  /// Stages one row into its shard's write buffer WITHOUT touching the
  /// published table snapshot: readers are never blocked and never see a
  /// partial write, yet the row is immediately visible to every query
  /// method through the pending-row overlay (exact key + attribute
  /// matching, so no false negatives and no new false positives while
  /// staged). O(1) amortized; serializes with other writers of the same
  /// shard on its writer mutex. The row joins the table — and the retained
  /// row log — at the next CommitWrites.
  Status BufferWrite(uint64_t key, std::span<const uint64_t> attrs);

  /// Bulk BufferWrite: row i is (keys[i], attrs[i*num_attrs ..)), row-major
  /// like InsertParallel. Rows are gathered per shard and appended under
  /// each shard's writer mutex once (per-shard staging order follows the
  /// input order).
  Status BufferWriteBatch(std::span<const uint64_t> keys,
                          std::span<const uint64_t> attrs);

  /// Stages a tombstone for every row with this key AND this exact
  /// attribute vector (class delete) into the shard's write buffer, with
  /// the same release-publish visibility contract as BufferWrite: the
  /// matching committed and staged rows are hidden from every query method
  /// the moment this returns, other rows of the key are untouched, and no
  /// unrelated row can turn false-negative (erase records match on the
  /// exact key, so fingerprint aliases never inherit the exclusion). The
  /// next CommitWrites marks the rows dead in the retained log (exact) and
  /// leaves their table entries in place: one entry may stand for several
  /// live rows (inserts collapse equal (pair, fingerprint, payload)
  /// entries), so erased entries stay as one-sided residue — extra false
  /// positives, never false negatives — until a rebuild from the surviving
  /// rows (compaction, resize, or a growth trigger, which compacts first).
  /// Rejected on deserialized filters (no log to mark) and on oversized
  /// geometries (slot_bits > 64, no packed payload word to match).
  Status BufferErase(uint64_t key, std::span<const uint64_t> attrs);

  /// Atomically (from any reader's perspective) replaces rows (key,
  /// old_attrs) with (key, new_attrs): stages an erase record and an insert
  /// record published together with ONE release store, so no reader can
  /// observe the gap between them — the key never transiently disappears.
  /// Same restrictions as BufferErase.
  Status BufferUpdate(uint64_t key, std::span<const uint64_t> old_attrs,
                      std::span<const uint64_t> new_attrs);

  /// Publishes every shard's staged records: per shard, marks the rows the
  /// batch's erases kill dead in the retained log, clones the current
  /// filter (Clone shares the table snapshot), batch-inserts the surviving
  /// staged rows into the clone — the clone copy-on-writes the table off
  /// the serving path — and installs the result via the same epoch swap a
  /// resize uses, then retires the drained buffer once no reader can hold
  /// it. Readers stay pinned-lock-free throughout and observe either (old
  /// table + overlay) or the new table, never a gap. A shard whose commit
  /// hits CapacityError transparently rebuilds from its log (pending rows
  /// included) like Insert does — at its current geometry first if it holds
  /// dead rows, doubling only if the survivors still do not fit; if the
  /// watermark policy is enabled, a post-commit occupancy at or above the
  /// watermark schedules the same compact-then-double rebuild in the
  /// background. Per-shard errors aggregate deterministically (lowest
  /// failing shard, "shard N: " prefix); a failed shard KEEPS its rows
  /// staged — still overlay-visible — so the caller can resize and retry.
  /// Works on deserialized filters too (no log to append to; the rows
  /// simply become part of the published tables).
  ///
  /// Striped: when more than one shard has staged records, `num_threads`
  /// workers (0 → options.build_threads, which 0-defaults to one per
  /// shard) drain the shards in parallel, InsertParallel-style — each
  /// worker commits a disjoint stripe under the per-shard writer mutexes,
  /// pinned to its stripe's node when placement is active. Error
  /// reporting stays deterministic regardless of thread count: the LOWEST
  /// failing shard's status wins, "shard N: "-prefixed. With one (or no)
  /// non-empty shard the commit runs inline on the calling thread exactly
  /// as before.
  Status CommitWrites(int num_threads = 0);

  /// CommitWrites on a background thread; the future carries its Status.
  std::future<Status> CommitWritesAsync();

  /// Staged-but-uncommitted records across all shards (inserts AND erase
  /// tombstones; not yet counted by num_rows()).
  uint64_t pending_writes() const;

  /// Compacts EVERY shard unconditionally: rebuilds each shard's table at
  /// its current geometry from the live rows of its retained log (erased
  /// rows dropped) and rewrites the log to the survivors. The result is
  /// bit-identical to a from-scratch batched build of the surviving row
  /// set, so it clears the residue committed erases leave in the table
  /// (until then erased rows may still read true; live rows always do).
  /// Serializes with writers per shard; readers stay pinned-lock-free and
  /// see the swap atomically. Fails on deserialized (log-less) filters.
  Status Compact();

  /// Completed shard compactions (watermark-triggered and explicit).
  uint64_t num_compactions() const {
    return num_compactions_.load(std::memory_order_relaxed);
  }

  /// Completed autocommit-triggered background shard commits (see
  /// ShardedCcfOptions::autocommit_pending_rows / autocommit_interval).
  uint64_t num_autocommits() const {
    return num_autocommits_.load(std::memory_order_relaxed);
  }

  /// Total retained-log rows across shards, dead rows included
  /// (diagnostics; takes each shard's writer mutex briefly).
  uint64_t retained_log_rows() const;

  /// Retained-log rows marked dead by committed erases and not yet
  /// compacted away (diagnostics; takes each shard's writer mutex briefly).
  uint64_t dead_log_rows() const;

  /// Completed watermark-triggered background resizes (a subset of
  /// num_resizes()).
  uint64_t num_watermark_resizes() const {
    return num_watermark_resizes_.load(std::memory_order_relaxed);
  }

  /// Blocks until every scheduled watermark resize has finished (their
  /// Statuses are advisory and dropped — the policy retries at the next
  /// commit if a background attempt failed). Deterministic tests and
  /// drain-before-measure tooling use this; serving callers never need it.
  void DrainMaintenance();

  /// Rebuilds shard `shard` at `new_num_buckets` buckets (0 → double the
  /// shard's current count) from the live rows of its retained log (which
  /// is rewritten to the survivors), publishing the replacement via epoch
  /// swap; a rebuild at the current geometry counts as a compaction.
  /// Readers keep probing the old snapshot until the swap and are never
  /// blocked; the old table is reclaimed once the last reader unpins.
  /// Serializes with other writers of the shard. The rebuilt shard is
  /// bit-identical to a from-scratch batched build of the shard's live
  /// rows at the new geometry. Fails on deserialized filters
  /// (the row log is not serialized) and on out-of-range shard indices.
  Status ResizeShard(int shard, uint64_t new_num_buckets = 0);

  /// ResizeShard on a background thread; the future carries its Status.
  std::future<Status> ResizeShardAsync(int shard,
                                       uint64_t new_num_buckets = 0);

  bool ContainsKey(uint64_t key) const override;
  bool Contains(uint64_t key, const Predicate& pred) const override;
  Status LookupBatch(std::span<const uint64_t> keys,
                     std::span<const Predicate> preds,
                     std::span<bool> out) const override;
  void ContainsKeyBatch(std::span<const uint64_t> keys,
                        std::span<bool> out) const override;

  /// Derives one key filter per shard, routed like the source filter. The
  /// per-shard derived filters alias the shard snapshots (no table copy)
  /// and stay valid even if a later resize retires the shard object.
  /// Snapshot semantics: the derivation covers COMMITTED rows only —
  /// staged-but-uncommitted rows join derived filters after the next
  /// CommitWrites (the direct query methods see them immediately).
  Result<std::unique_ptr<KeyFilter>> PredicateQuery(
      const Predicate& pred) const override;

  uint64_t SizeInBits() const override;
  double LoadFactor() const override;
  uint64_t num_entries() const override;
  /// Sum of the shard tables' row counts. On a filter with a row log every
  /// published shard table carries its log's live row count, so this is
  /// retained_log_rows() - dead_log_rows() after every write, commit and
  /// rebuild (exact duplicates count per row, erased rows not at all).
  uint64_t num_rows() const override;

  /// The per-shard configuration AT CONSTRUCTION (num_buckets is the
  /// initial per-shard value; shards may have grown since — see
  /// shard(i).config() for a shard's current geometry). Returned from an
  /// immutable member, so the reference stays valid across resizes and is
  /// safe to read concurrently with them.
  const CcfConfig& config() const override { return shard_config_; }
  CcfVariant variant() const override { return variant_; }

  /// Completed per-shard resizes over the filter's lifetime (auto-triggered
  /// and explicit).
  uint64_t num_resizes() const {
    return num_resizes_.load(std::memory_order_relaxed);
  }

  /// Whether online resize is available: true for filters built in-process
  /// (which retain their row log), false after Deserialize (serialized
  /// blobs carry tables, not rows).
  bool resizable() const { return resizable_; }

  /// Serialized-blob magic ("SCF2", bumped with the aligned word-array
  /// format); ConditionalCuckooFilter::Deserialize dispatches here when it
  /// leads a blob.
  static constexpr uint32_t kMagic = 0x53434632;

  /// Serializes the COMMITTED state (the published shard tables). Staged
  /// rows are not part of any table yet and are not serialized — call
  /// CommitWrites first if they must be captured. Shard blobs are 8-byte
  /// aligned within the container so alias-mode loads work through it.
  std::string Serialize() const override;
  /// With `alias` non-null, shard tables alias the blob (zero-copy); see
  /// ConditionalCuckooFilter::Deserialize(data, mapping).
  static Result<std::unique_ptr<ConditionalCuckooFilter>> Deserialize(
      std::string_view data, const AliasMapping* alias = nullptr);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// The shard's CURRENT filter. Quiescent-use accessor (tests, stats): the
  /// reference is valid until the shard is next resized.
  const ConditionalCuckooFilter& shard(int i) const {
    return *shards_[static_cast<size_t>(i)]->handle.Current();
  }

  /// Shard index of a key (uncorrelated with in-shard addressing).
  size_t ShardOf(uint64_t key) const {
    return static_cast<size_t>(shard_hasher_.Hash(key, 0) & shard_mask_);
  }

 private:
  /// \brief One shard's staged-but-uncommitted rows: the epoch-protected
  /// pending-row overlay.
  ///
  /// Publication protocol (the reason readers are wait-free): storage is
  /// sized at construction and never reallocated; the writer (holding the
  /// shard's writer mutex) writes a row's words and THEN publishes it with
  /// a release store of the new size, so a reader that acquires `size()`
  /// sees every word of rows [0, size). A full buffer is replaced wholesale
  /// — copy rows into a bigger block, swap the shard's pending pointer, and
  /// retire the old block into the epoch domain (recycled through the
  /// shard's spare slot once no reader can hold it). Rows use the retained
  /// row log's layout: keys + row-major attrs + two geometry-independent
  /// memo words per row, so a commit feeds them straight into InsertBatch's
  /// memo path and appends them to the log verbatim. Each record also
  /// carries an op tag: kOpInsert stages a row, kOpErase stages a tombstone
  /// for the (key, packed payload) class.
  ///
  /// Per-key chain index: `heads_` (one slot per record of capacity,
  /// addressed by a multiplicative hash of the key) holds the newest record
  /// id of the slot's chain and `next_[i]` the next older one. The writer
  /// links record i (next_[i] = head, then a release store of head = i)
  /// before the size store that publishes it, so a reader that binds
  /// size() n and then acquires a head can follow the chain newest-first,
  /// skipping ids >= n (linked but published after its snapshot). Reset
  /// and Adopt rebuild the index when a block is recycled or grown. The
  /// chain walk (Resolve) is the overlay's whole read side: a key costs
  /// one head load plus the records that share its slot, whatever the
  /// overlay holds, so staged erases never force a scan.
  class WriteBuffer {
   public:
    enum : uint8_t { kOpInsert = 0, kOpErase = 1 };

    /// `capacity` is a power of two (PendingWithRoom sizes blocks so).
    WriteBuffer(size_t capacity, size_t num_attrs)
        : capacity_(capacity),
          num_attrs_(num_attrs),
          head_shift_(64 - std::countr_zero(capacity)),
          keys_(capacity),
          attrs_(capacity * num_attrs),
          memo_(2 * capacity),
          ops_(capacity),
          next_(capacity),
          heads_(new std::atomic<uint32_t>[capacity]) {
      Reset();
    }

    size_t capacity() const { return capacity_; }
    /// Reader-side row count; rows [0, size) are fully published.
    size_t size() const { return size_.load(std::memory_order_acquire); }
    /// Writer-side count (callers hold the shard's writer mutex).
    size_t size_unsync() const {
      return size_.load(std::memory_order_relaxed);
    }

    /// Writes record size_unsync() + offset WITHOUT publishing it
    /// (writer-side; requires size_unsync() + offset < capacity). Pair
    /// with PublishStaged: the staged group becomes visible with ONE
    /// release store, so a reader observes all of its records or none —
    /// the multi-record generalization of the update-as-atomic-swap
    /// pattern (a RangeCcf row's η dyadic label records ride this; a
    /// partially-visible level set would answer range queries false).
    void Stage(size_t offset, uint64_t key, std::span<const uint64_t> attrs,
               uint64_t key_hash, uint64_t payload,
               uint8_t op = kOpInsert) {
      const size_t i = size_.load(std::memory_order_relaxed) + offset;
      keys_[i] = key;
      std::copy(attrs.begin(), attrs.end(),
                attrs_.begin() + static_cast<ptrdiff_t>(i * num_attrs_));
      memo_[2 * i] = key_hash;
      memo_[2 * i + 1] = payload;
      ops_[i] = op;
    }

    /// Links the `count` staged records into their key chains, then
    /// publishes them atomically with one release store of the size.
    void PublishStaged(size_t count) {
      const size_t n = size_.load(std::memory_order_relaxed);
      for (size_t i = n; i < n + count; ++i) Link(i);
      size_.store(n + count, std::memory_order_release);
    }

    /// Appends one record (writer-side; requires size_unsync() < capacity).
    void Append(uint64_t key, std::span<const uint64_t> attrs,
                uint64_t key_hash, uint64_t payload,
                uint8_t op = kOpInsert) {
      Stage(0, key, attrs, key_hash, payload, op);
      PublishStaged(1);
    }

    /// Appends erase(old) + insert(new) published by ONE release store, so
    /// readers observe the update as an atomic swap — never the erased-only
    /// gap (writer-side; requires size_unsync() + 2 <= capacity).
    void AppendUpdate(uint64_t key, std::span<const uint64_t> old_attrs,
                      uint64_t old_hash, uint64_t old_payload,
                      std::span<const uint64_t> new_attrs, uint64_t new_hash,
                      uint64_t new_payload) {
      Stage(0, key, old_attrs, old_hash, old_payload, kOpErase);
      Stage(1, key, new_attrs, new_hash, new_payload, kOpInsert);
      PublishStaged(2);
    }

    /// Copies the first `n` records of `from` into this empty (fresh or
    /// Reset) block and links them (builds the replacement block before it
    /// is published; writer-side).
    void Adopt(const WriteBuffer& from, size_t n) {
      std::copy_n(from.keys_.begin(), n, keys_.begin());
      std::copy_n(from.attrs_.begin(), n * num_attrs_, attrs_.begin());
      std::copy_n(from.memo_.begin(), 2 * n, memo_.begin());
      std::copy_n(from.ops_.begin(), n, ops_.begin());
      PublishStaged(n);
    }

    /// Empties the block and its index (construction, or reuse of a
    /// recycled block no reader can hold anymore; writer-side).
    void Reset() {
      for (size_t h = 0; h < capacity_; ++h) {
        heads_[h].store(kNoRecord, std::memory_order_relaxed);
      }
      num_erases_ = 0;
      size_.store(0, std::memory_order_relaxed);
    }

    /// Erase records among the staged rows (writer-side).
    size_t num_erases_unsync() const { return num_erases_; }

    /// Per-record reads (valid for published records, or writer-side).
    uint8_t op(size_t i) const { return ops_[i]; }
    uint64_t key(size_t i) const { return keys_[i]; }
    uint64_t key_hash(size_t i) const { return memo_[2 * i]; }
    uint64_t payload(size_t i) const { return memo_[2 * i + 1]; }
    std::span<const uint64_t> attrs_row(size_t i) const {
      return {attrs_.data() + i * num_attrs_, num_attrs_};
    }

    /// The overlay's half of one key's read (reader-side, any thread, no
    /// locks): binds size() ONCE and walks only the key's chain,
    /// newest-first. Returns true iff a staged insert of `key` survives
    /// every later-staged erase of its (key, payload) class and matches
    /// `pred` (null = key-only) — exact, so it adds no approximation of its
    /// own. When it returns false, `erased` (cleared first; callers reuse
    /// one vector across keys) holds the payload words of every staged
    /// erase of the key in the snapshot: the exclusions the committed
    /// probe must apply (see ShardedCcf::ResolveKeyWithOps). Both answers
    /// come from the same snapshot, so an update published mid-read is
    /// seen whole or not at all.
    bool Resolve(uint64_t key, const Predicate* pred,
                 std::vector<uint64_t>* erased) const {
      erased->clear();
      const size_t n = size();
      for (uint32_t i = heads_[HeadSlot(key)].load(std::memory_order_acquire);
           i != kNoRecord; i = next_[i]) {
        if (i >= n || keys_[i] != key) continue;
        const uint64_t p = payload(i);
        if (ops_[i] == kOpErase) {
          // Seen before every older insert it kills; a re-insert staged
          // AFTER it was visited first and stays live.
          erased->push_back(p);
          continue;
        }
        if (std::find(erased->begin(), erased->end(), p) == erased->end() &&
            (pred == nullptr || pred->Matches(attrs_row(i)))) {
          return true;
        }
      }
      return false;
    }

    /// Record views over the first `n` records (writer-side, for commit).
    std::span<const uint64_t> keys(size_t n) const {
      return {keys_.data(), n};
    }
    std::span<const uint64_t> attrs(size_t n) const {
      return {attrs_.data(), n * num_attrs_};
    }
    std::span<const uint64_t> memo(size_t n) const {
      return {memo_.data(), 2 * n};
    }

   private:
    static constexpr uint32_t kNoRecord = UINT32_MAX;

    size_t HeadSlot(uint64_t key) const {
      return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> head_shift_);
    }
    /// Makes record i the newest of its chain (writer-side, before the
    /// size store that publishes it).
    void Link(size_t i) {
      std::atomic<uint32_t>& head = heads_[HeadSlot(keys_[i])];
      next_[i] = head.load(std::memory_order_relaxed);
      head.store(static_cast<uint32_t>(i), std::memory_order_release);
      num_erases_ += ops_[i] == kOpErase;
    }

    const size_t capacity_;
    const size_t num_attrs_;
    const int head_shift_;  // 64 - log2(capacity): top bits pick the slot
    std::atomic<size_t> size_{0};
    size_t num_erases_ = 0;  // writer-side
    std::vector<uint64_t> keys_;
    std::vector<uint64_t> attrs_;  // row-major
    std::vector<uint64_t> memo_;   // 2 words per record
    std::vector<uint8_t> ops_;     // kOpInsert / kOpErase per record
    std::vector<uint32_t> next_;   // older record of the same chain
    std::unique_ptr<std::atomic<uint32_t>[]> heads_;  // capacity slots
  };

  /// Per-shard serving state: the epoch-swappable filter, the writer lock,
  /// the retained row log that resizes rebuild from, and the pending
  /// write-buffer overlay. The log mirrors every accepted row in arrival
  /// order together with its two geometry-independent memo words
  /// (salt-keyed key hash + packed payload), so a rebuild re-masks instead
  /// of re-hashing.
  struct Shard {
    Shard(EpochDomain* domain, std::unique_ptr<ConditionalCuckooFilter> f,
          int node)
        : handle(domain, std::move(f)), node(node) {}
    ~Shard() {
      delete pending.load(std::memory_order_relaxed);
      delete spare.load(std::memory_order_relaxed);
    }
    TableHandle<ConditionalCuckooFilter> handle;
    /// Placement node (round-robin over the topology's nodes); 0 when
    /// placement is inactive. Immutable after construction.
    int node = 0;
    std::mutex writer_mu;
    std::vector<uint64_t> keys;   // guarded by writer_mu
    std::vector<uint64_t> attrs;  // row-major, guarded by writer_mu
    std::vector<uint64_t> memo;   // 2 words per row, guarded by writer_mu
    /// Tombstone bookkeeping over the log (all guarded by writer_mu): a
    /// committed erase marks its rows dead here EXACTLY — the log always
    /// knows the true live set while the table keeps the dead rows'
    /// residue — and every rebuild rewrites the log from the survivors.
    std::vector<uint8_t> dead;  // parallel to keys; 1 = erased row
    size_t dead_count = 0;
    /// key → log row indices, built lazily by the first CRUD commit and
    /// maintained by LogAppendRows/LogTruncate afterwards.
    std::unordered_map<uint64_t, std::vector<uint32_t>> row_index;
    bool index_built = false;
    /// Staged rows (null when none): readers load under an epoch pin;
    /// writers mutate/swap under writer_mu. Swapped-out blocks are retired
    /// into the epoch domain and recycled through `spare`.
    std::atomic<WriteBuffer*> pending{nullptr};
    /// Single-slot recycle stash fed by the epoch retire hook.
    std::atomic<WriteBuffer*> spare{nullptr};
    /// Guards against stacking duplicate watermark resizes for this shard.
    std::atomic<bool> resize_scheduled{false};
    /// Guards against stacking duplicate auto-commits for this shard.
    std::atomic<bool> commit_scheduled{false};
    /// When the shard's overlay went non-empty (guarded by writer_mu;
    /// meaningful only while the overlay has rows and the age trigger is
    /// enabled).
    std::chrono::steady_clock::time_point first_staged{};
  };

  ShardedCcf(std::vector<std::unique_ptr<ConditionalCuckooFilter>> shards,
             ShardedCcfOptions options,
             std::shared_ptr<const NumaTopology> topo);

  /// The one rebuild: a fresh table at `num_buckets` from the live log
  /// rows, published on success, with the log rewritten to the survivors;
  /// on failure table and log are untouched. Counts as a compaction at the
  /// current geometry and as a resize otherwise. Caller holds writer_mu on
  /// a resizable filter.
  Status RebuildShardLocked(Shard& shard, uint64_t num_buckets);
  /// Capacity fallback: compacts first when the shard holds dead rows, then
  /// retries doubling rebuilds (up to options_.max_auto_resizes); caller
  /// holds writer_mu and has just seen CapacityError.
  Status GrowShardLocked(Shard& shard, Status capacity_error);

  /// A pending buffer with room for `rows_needed` more rows, swapping in a
  /// grown (or recycled) block if necessary; caller holds writer_mu.
  WriteBuffer* PendingWithRoom(Shard& shard, size_t rows_needed);
  /// Stamps `table` with the shard's live log row count (the one meaning
  /// of num_rows() on a filter with a row log); no-op after Deserialize.
  /// Caller holds writer_mu.
  void StampLiveRows(const Shard& shard,
                     ConditionalCuckooFilter* table) const {
    if (resizable_) {
      static_cast<CcfBase*>(table)->SetNumRows(shard.keys.size() -
                                               shard.dead_count);
    }
  }
  /// Retires a swapped-out buffer into the epoch domain; reclamation
  /// recycles it through the shard's spare slot.
  void RetireBuffer(Shard& shard, WriteBuffer* old);
  /// Commits shard `s`'s staged records (see CommitWrites): plans the
  /// batch's dead marks and surviving inserts, applies them to the log,
  /// builds the survivors into a copy-on-write clone and publishes it; on
  /// failure the log is rolled back exactly and the records stay staged.
  /// Caller holds writer_mu.
  Status CommitShardLocked(size_t s, Shard& shard);
  /// Appends rows to the shard's retained log, keeping the dead vector and
  /// (if built) the row index in sync; caller holds writer_mu.
  void LogAppendRows(Shard& shard, std::span<const uint64_t> keys,
                     std::span<const uint64_t> attrs,
                     std::span<const uint64_t> memo);
  /// Drops log rows [old_rows, end) (rollback of a failed append); caller
  /// holds writer_mu.
  void LogTruncate(Shard& shard, size_t old_rows);
  /// Builds the key → log rows index on first CRUD use; caller holds
  /// writer_mu.
  void EnsureLogIndex(Shard& shard);
  /// Rebuilds the shard at its current geometry when the dead fraction of
  /// the log crosses options_.compact_watermark; caller holds writer_mu.
  void MaybeCompactShard(Shard& shard);
  /// Whether the shard's occupancy (residue included) is at or above
  /// options_.resize_watermark; caller holds writer_mu.
  bool AtResizeWatermark(Shard& shard) const;
  /// Schedules a background rebuild if the shard's occupancy is at or above
  /// the watermark: compact first when it holds dead rows, double if still
  /// at the watermark; caller holds writer_mu.
  void MaybeScheduleWatermarkResize(size_t s, Shard& shard);
  /// Runs `task` on a background thread tracked in maintenance_ (reaping
  /// finished ones).
  void ScheduleMaintenance(std::function<Status()> task);
  /// Schedules a background commit of shard `s` when its staged overlay
  /// crosses the autocommit size or age trigger; caller holds writer_mu
  /// and has just appended to the overlay.
  void MaybeScheduleAutoCommit(size_t s, Shard& shard);

  /// The one overlay resolution behind every read path (scalar, per-key
  /// batch, broadcast and key-only): `base_hit` is the caller's
  /// committed-table answer for (key, pred) from its own fast probe
  /// (scalar, prefetched batch, or addressed). The overlay's chain
  /// walk answers staged rows; only when the base probe hit AND the key
  /// has its own staged erase — a reader querying a key just erased — does
  /// the committed table get re-probed with those payloads excluded
  /// (Contains*AddressedExcluding). Every other key keeps the batched
  /// probe's answer. `pred` null means key-only; `erased` is the caller's
  /// scratch, reused across keys (no per-key allocation). Caller holds an
  /// epoch pin covering both pointers; `overlay` may be null.
  bool ResolveKeyWithOps(const CcfBase* base, const WriteBuffer* overlay,
                         uint64_t key, const Predicate* pred, bool base_hit,
                         std::vector<uint64_t>* erased) const;

  /// Every shard's pending overlay and current table snapshot, loaded once
  /// under the caller's pin — THE way batch read paths bind the shard set.
  /// Overlays are loaded before tables (the reverse of the writer's
  /// publish-table-then-drop-overlay commit order; see ContainsKey), and
  /// shards with no staged rows get a null overlay, so the common
  /// no-pending batch pays one pointer load per shard and nothing else.
  struct Snapshot {
    std::vector<const WriteBuffer*> overlays;
    std::vector<const CcfBase*> bases;
  };
  Snapshot LoadSnapshot(const EpochDomain::Guard& guard) const;

  /// Resolves one shard's gathered broadcast keys against (base, overlay):
  /// the shard's prefetched batch probe, then the overlay per key. Results
  /// land at out[pos[j]].
  Status ResolveShardBroadcast(const CcfBase* base, const WriteBuffer* overlay,
                               std::span<const uint64_t> keys,
                               std::span<const size_t> pos,
                               const Predicate& pred, bool* out) const;

  /// Runs work(s) exactly once per shard across `threads` workers
  /// (threads <= 1 ⇒ inline loop on the caller). Under active placement
  /// with threads >= num nodes, workers stripe node-major and pin to their
  /// node's cpu set so shard mutations run next to the shard's pages;
  /// otherwise plain modular striping (a pinned thread serves exactly one
  /// node, so fewer threads than nodes must stay unpinned to cover every
  /// shard). Shared by InsertParallel and the striped CommitWrites.
  void ForEachShardParallel(int threads,
                            const std::function<void(size_t)>& work);

  /// The shard's placement node for allocation binding: its node under
  /// active placement, -1 (no binding) otherwise.
  int AllocNode(const Shard& shard) const {
    return numa_active_ ? shard.node : -1;
  }

  /// Declared first so it is destroyed LAST: retired shard filters are
  /// freed by the domain's destructor after the handles are gone.
  mutable EpochDomain domain_;
  std::vector<std::unique_ptr<Shard>> shards_;
  ShardedCcfOptions options_;
  /// Topology snapshot taken at construction (placement decisions must not
  /// shift under a test override mid-life); placement is active when it
  /// has more than one node.
  std::shared_ptr<const NumaTopology> topo_;
  bool numa_active_ = false;
  /// Immutable copies taken at construction so config()/variant() never
  /// dereference a swappable shard object (a concurrent resize of shard 0
  /// could retire it mid-read).
  CcfConfig shard_config_;
  CcfVariant variant_;
  uint64_t shard_mask_ = 0;
  Hasher shard_hasher_;
  std::atomic<uint64_t> num_resizes_{0};
  std::atomic<uint64_t> num_watermark_resizes_{0};
  std::atomic<uint64_t> num_compactions_{0};
  std::atomic<uint64_t> num_autocommits_{0};
  /// In-flight watermark resizes (futures must be joined before the shards
  /// they reference die); reaped opportunistically, drained on destruction.
  mutable std::mutex maintenance_mu_;
  std::vector<std::future<Status>> maintenance_;  // guarded by maintenance_mu_
  bool resizable_ = true;
};

}  // namespace ccf

#endif  // CCF_CCF_SHARDED_CCF_H_
