#include "serve/filter_catalog.h"

#include <utility>

#include "ccf/compressed_ccf.h"
#include "ccf/range_ccf.h"
#include "ccf/sharded_ccf.h"
#include "util/serde.h"

namespace ccf {

FilterCatalog::FilterCatalog(CatalogOptions options) : options_(options) {}

Result<FilterCatalog::Entry*> FilterCatalog::AddEntry(const std::string& id) {
  std::unique_lock lock(map_mu_);
  auto [it, inserted] =
      entries_.emplace(id, std::make_unique<Entry>(id, &domain_));
  if (!inserted) {
    return Status::Invalid("duplicate catalog id: " + id);
  }
  Entry* e = it->second.get();
  lock.unlock();
  {
    std::lock_guard clock_lock(evict_mu_);
    clock_.push_back(e);
  }
  return e;
}

FilterCatalog::Entry* FilterCatalog::FindEntry(const std::string& id) const {
  std::shared_lock lock(map_mu_);
  auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : it->second.get();
}

Status FilterCatalog::AddFile(const std::string& id, const std::string& path) {
  CCF_ASSIGN_OR_RETURN(Entry * e, AddEntry(id));
  std::lock_guard lock(e->mu);
  e->path = path;
  return Status::OK();
}

Status FilterCatalog::AddFilter(
    const std::string& id, std::unique_ptr<ConditionalCuckooFilter> filter) {
  if (filter == nullptr) {
    return Status::Invalid("AddFilter requires a non-null filter");
  }
  CCF_ASSIGN_OR_RETURN(Entry * e, AddEntry(id));
  {
    std::lock_guard lock(e->mu);
    e->hot_bytes = static_cast<size_t>(filter->SizeInBits() / 8);
    hot_bytes_.fetch_add(e->hot_bytes, std::memory_order_relaxed);
    e->referenced.store(1, std::memory_order_relaxed);
    e->live.Publish(std::move(filter));
  }
  EnforceBudget();
  return Status::OK();
}

Result<const ConditionalCuckooFilter*> FilterCatalog::PromoteLocked(
    Entry& e) {
  std::unique_ptr<ConditionalCuckooFilter> filter;
  if (!e.path.empty()) {
    CCF_ASSIGN_OR_RETURN(MappedFile mf, MmapFileBytes(e.path));
    auto mapping = std::make_shared<MappedFile>(std::move(mf));
    std::string_view view = mapping->view();
    // Aliasing constructor: the keepalive owns the MappedFile, so the
    // mapping stays valid as long as any aliased BitVector (or retired
    // filter awaiting reclamation) still references it.
    AliasMapping alias{
        std::shared_ptr<const void>(mapping, view.data())};
    CCF_ASSIGN_OR_RETURN(filter,
                         ConditionalCuckooFilter::Deserialize(view, alias));
    num_alias_loads_.fetch_add(1, std::memory_order_relaxed);
  } else {
    if (e.cold_blob.empty()) {
      return Status::Invalid("catalog entry has no cold form: " + e.id);
    }
    CCF_ASSIGN_OR_RETURN(filter, DecodeFilterBlob(e.cold_blob));
  }
  const ConditionalCuckooFilter* raw = filter.get();
  e.hot_bytes = static_cast<size_t>(filter->SizeInBits() / 8);
  hot_bytes_.fetch_add(e.hot_bytes, std::memory_order_relaxed);
  e.referenced.store(1, std::memory_order_relaxed);
  e.live.Publish(std::move(filter));
  num_promotions_.fetch_add(1, std::memory_order_relaxed);
  return raw;
}

Result<const ConditionalCuckooFilter*> FilterCatalog::HotFilter(
    Entry& e, const EpochDomain::Guard& guard, bool* promoted) {
  const ConditionalCuckooFilter* f = e.live.Load(guard);
  if (f != nullptr) {
    e.referenced.store(1, std::memory_order_relaxed);
    return f;
  }
  std::lock_guard lock(e.mu);
  f = e.live.Load(guard);  // double-check under the transition lock
  if (f != nullptr) {
    e.referenced.store(1, std::memory_order_relaxed);
    return f;
  }
  if (promoted != nullptr) *promoted = true;
  return PromoteLocked(e);
}

Status FilterCatalog::PrepareDemotionLocked(Entry& e,
                                            ConditionalCuckooFilter* cur) {
  auto* sharded = dynamic_cast<ShardedCcf*>(cur);
  if (sharded == nullptr) {
    // A range filter over a sharded inner stages through the same overlay;
    // its staged dyadic labels need the same pre-demotion flush.
    if (auto* range = dynamic_cast<RangeCcf*>(cur)) {
      sharded = range->sharded_inner();
    }
  }
  if (sharded != nullptr) {
    // Staged rows live only in the write-buffer overlay and Serialize()
    // captures committed tables, so a memory-backed demotion must commit
    // first or the re-promoted filter would answer false negatives.
    // File-backed entries reload from the file on re-promotion (documented
    // lossy), so flushing buys nothing there. New stages can't race in:
    // catalog writers go through InsertBatch, which takes e.mu.
    if (e.path.empty() && sharded->pending_writes() > 0) {
      CCF_RETURN_NOT_OK(sharded->CommitWrites());
    }
    // Quiesce watermark resizes the commit may have scheduled so the
    // encoded blob and the accounting below see the final geometry.
    sharded->DrainMaintenance();
  }
  // Background autocommits and watermark resizes grow the filter without
  // touching Entry::hot_bytes; reconcile before the eviction subtracts it,
  // or the drift leaks residency out of hot_bytes_ and the budget
  // under-evicts.
  size_t actual = static_cast<size_t>(cur->SizeInBits() / 8);
  if (actual != e.hot_bytes) {
    hot_bytes_.fetch_add(actual, std::memory_order_relaxed);
    hot_bytes_.fetch_sub(e.hot_bytes, std::memory_order_relaxed);
    e.hot_bytes = actual;
  }
  return Status::OK();
}

Status FilterCatalog::ResolveBatch(Entry& e, std::span<const uint64_t> keys,
                                   const Predicate* pred, bool* out) {
  bool promoted = false;
  {
    // The pin must cover both the Load/promotion and the probe: eviction
    // retires the filter into domain_, so reclamation cannot run past us.
    EpochDomain::Guard guard = domain_.Pin();
    CCF_ASSIGN_OR_RETURN(const ConditionalCuckooFilter* f,
                         HotFilter(e, guard, &promoted));
    std::span<bool> out_span(out, keys.size());
    if (pred != nullptr) {
      CCF_RETURN_NOT_OK(f->LookupBatch(
          keys, std::span<const Predicate>(pred, 1), out_span));
    } else {
      f->ContainsKeyBatch(keys, out_span);
    }
  }
  if (promoted) EnforceBudget();
  return Status::OK();
}

Status FilterCatalog::LookupBatch(const std::string& id,
                                  std::span<const uint64_t> keys,
                                  const Predicate& pred,
                                  std::span<bool> out) {
  if (out.size() != keys.size()) {
    return Status::Invalid("output size must match key count");
  }
  Entry* e = FindEntry(id);
  if (e == nullptr) return Status::KeyNotFound("no catalog entry: " + id);
  return ResolveBatch(*e, keys, &pred, out.data());
}

Status FilterCatalog::ContainsKeyBatch(const std::string& id,
                                       std::span<const uint64_t> keys,
                                       std::span<bool> out) {
  if (out.size() != keys.size()) {
    return Status::Invalid("output size must match key count");
  }
  Entry* e = FindEntry(id);
  if (e == nullptr) return Status::KeyNotFound("no catalog entry: " + id);
  return ResolveBatch(*e, keys, nullptr, out.data());
}

Status FilterCatalog::LookupRangeBatch(const std::string& id,
                                       std::span<const uint64_t> keys,
                                       uint64_t lo, uint64_t hi,
                                       const Predicate& other,
                                       std::span<bool> out) {
  if (out.size() != keys.size()) {
    return Status::Invalid("output size must match key count");
  }
  Entry* e = FindEntry(id);
  if (e == nullptr) return Status::KeyNotFound("no catalog entry: " + id);
  bool promoted = false;
  Status st = [&]() -> Status {
    EpochDomain::Guard guard = domain_.Pin();
    CCF_ASSIGN_OR_RETURN(const ConditionalCuckooFilter* f,
                         HotFilter(*e, guard, &promoted));
    const auto* range = dynamic_cast<const RangeCcf*>(f);
    if (range == nullptr) {
      return Status::Invalid("catalog entry is not a range filter: " + id);
    }
    CCF_ASSIGN_OR_RETURN(CompiledRangePredicate pred,
                         range->CompileRange(lo, hi, other));
    return range->ContainsInRangeBatch(keys, pred, out);
  }();
  if (promoted) EnforceBudget();
  return st;
}

Status FilterCatalog::InsertBatch(const std::string& id,
                                  std::span<const uint64_t> keys,
                                  std::span<const uint64_t> attrs) {
  Entry* e = FindEntry(id);
  if (e == nullptr) return Status::KeyNotFound("no catalog entry: " + id);

  bool grew = false;
  Status st = [&]() -> Status {
    std::lock_guard lock(e->mu);
    ConditionalCuckooFilter* cur = e->live.writable();
    if (cur == nullptr) {
      CCF_RETURN_NOT_OK(PromoteLocked(*e).status());
      cur = e->live.writable();
      grew = true;  // the promotion charged hot_bytes_
    }
    if (auto* range = dynamic_cast<RangeCcf*>(cur);
        range != nullptr && range->sharded_inner() != nullptr) {
      // Range filters take RAW rows: the η dyadic labels are expanded here
      // and staged as one atomically-published group per row. A plain-
      // inner RangeCcf falls through to the clone path below (its Clone
      // and InsertBatch carry the expansion).
      return range->BufferWriteBatch(keys, attrs);
    }
    if (auto* sharded = dynamic_cast<ShardedCcf*>(cur)) {
      // Sharded filters are live-writable while serving: stage through the
      // write-buffer overlay (autocommit options fold the commits in).
      return sharded->BufferWriteBatch(keys, attrs);
    }
    // Clone shares the table snapshot; the first insert copy-on-writes it
    // (EnsureTableUnique), so an alias-loaded mapping is never written
    // through and concurrent readers keep probing the old epoch.
    CCF_ASSIGN_OR_RETURN(std::unique_ptr<ConditionalCuckooFilter> next,
                         cur->Clone());
    CCF_RETURN_NOT_OK(next->InsertBatch(keys, attrs));
    size_t new_bytes = static_cast<size_t>(next->SizeInBits() / 8);
    hot_bytes_.fetch_add(new_bytes, std::memory_order_relaxed);
    hot_bytes_.fetch_sub(e->hot_bytes, std::memory_order_relaxed);
    e->hot_bytes = new_bytes;
    e->live.Publish(std::move(next));
    grew = true;
    return Status::OK();
  }();
  // A write-side promotion or clone-grown publish can push the fleet over
  // budget just like a lookup-side promotion: sweep after releasing e->mu
  // (mirrors ResolveBatch/AddFilter) so a write-heavy workload can't
  // exceed hot_budget_bytes indefinitely.
  if (grew) EnforceBudget();
  return st;
}

Status FilterCatalog::Evict(const std::string& id) {
  Entry* e = FindEntry(id);
  if (e == nullptr) return Status::KeyNotFound("no catalog entry: " + id);
  std::unique_lock lock(e->mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    return Status::Invalid("catalog entry busy (mid-transition): " + id);
  }
  ConditionalCuckooFilter* cur = e->live.writable();
  if (cur == nullptr) return Status::OK();  // already cold
  CCF_RETURN_NOT_OK(PrepareDemotionLocked(*e, cur));
  if (e->path.empty()) {
    e->cold_blob = EncodeFilterBlob(*cur);
  }
  e->live.Publish(nullptr);
  hot_bytes_.fetch_sub(e->hot_bytes, std::memory_order_relaxed);
  e->hot_bytes = 0;
  num_evictions_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void FilterCatalog::EnforceBudget() {
  if (options_.hot_budget_bytes == 0) return;
  if (hot_bytes_.load(std::memory_order_relaxed) <= options_.hot_budget_bytes) {
    return;
  }
  std::lock_guard lock(evict_mu_);
  if (clock_.empty()) return;
  // Bounded scan: two full sweeps clear every reference bit, a third
  // guarantees progress on every evictable entry; entries we cannot evict
  // (busy, already cold, or the only hot one being probed) end the scan.
  size_t max_steps = 3 * clock_.size() + 8;
  for (size_t step = 0;
       step < max_steps &&
       hot_bytes_.load(std::memory_order_relaxed) > options_.hot_budget_bytes;
       ++step) {
    Entry* victim = clock_[clock_hand_];
    clock_hand_ = (clock_hand_ + 1) % clock_.size();
    if (victim->live.Current() == nullptr) continue;  // already cold
    // Second chance: recently-used entries get their bit cleared and a
    // reprieve.
    if (victim->referenced.exchange(0, std::memory_order_acq_rel) != 0) {
      continue;
    }
    // Never block a lookup-side promotion or a writer: skip busy entries.
    std::unique_lock vlock(victim->mu, std::try_to_lock);
    if (!vlock.owns_lock()) continue;
    ConditionalCuckooFilter* cur = victim->live.writable();
    if (cur == nullptr) continue;  // lost a race with Evict
    // Commit staged sharded rows and reconcile size accounting; a failed
    // commit means demotion would drop rows, so the victim stays hot.
    if (!PrepareDemotionLocked(*victim, cur).ok()) continue;
    if (victim->path.empty()) {
      // Memory-backed: capture the CURRENT state (mutations included) in
      // compressed form. File-backed entries reload from the file.
      victim->cold_blob = EncodeFilterBlob(*cur);
    }
    // Publish(nullptr) retires the filter into the epoch domain: pinned
    // readers mid-probe keep a valid table until they unpin.
    victim->live.Publish(nullptr);
    hot_bytes_.fetch_sub(victim->hot_bytes, std::memory_order_relaxed);
    victim->hot_bytes = 0;
    num_evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

size_t FilterCatalog::num_entries() const {
  std::shared_lock lock(map_mu_);
  return entries_.size();
}

CatalogStats FilterCatalog::stats() const {
  CatalogStats s;
  s.promotions = num_promotions_.load(std::memory_order_relaxed);
  s.evictions = num_evictions_.load(std::memory_order_relaxed);
  s.alias_loads = num_alias_loads_.load(std::memory_order_relaxed);
  s.hot_bytes = hot_bytes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ccf
