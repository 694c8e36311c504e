#include "ccf/chained_ccf.h"

#include <algorithm>

#include "ccf/entry_match.h"

namespace ccf {

ChainedCcf::ChainedCcf(CcfConfig config, BucketTable table)
    : CcfBase(config, std::move(table)),
      codec_(&hasher_, config.num_attrs, config.attr_fp_bits,
             config.small_value_opt) {}

Result<std::unique_ptr<ConditionalCuckooFilter>> ChainedCcf::Make(
    const CcfConfig& config) {
  CCF_ASSIGN_OR_RETURN(
      BucketTable table,
      BucketTable::Make(config.num_buckets, config.slots_per_bucket,
                        config.key_fp_bits,
                        config.num_attrs * config.attr_fp_bits));
  return std::unique_ptr<ConditionalCuckooFilter>(
      new ChainedCcf(config, std::move(table)));
}

Status ChainedCcf::InsertAddressed(const BucketPair& first_pair, uint32_t fp,
                                   std::span<const uint64_t> attrs,
                                   uint64_t payload, ChainCursors* cursors) {
  // Algorithm 4: success if the identical (κ, α) entry already exists on
  // the walk; else place at the first pair holding fewer than d copies.
  const bool packed = table_->slot_bits() <= 64;
  auto identical = [&](uint64_t b, int s) {
    return packed ? EntryPayloadWord(b, s) == payload
                  : codec_.EqualsStored(*table_, b, s, /*base=*/0, attrs);
  };
  auto place = [&](const BucketPair& pair, int hop) {
    bool placed = PlaceWithKicks(pair, fp, [&](uint64_t b, int s) {
      codec_.Store(table_.get(), b, s, /*base=*/0, attrs);
    });
    if (!placed) {
      return Status::CapacityError(
          "chained CCF: cuckoo kick budget exhausted");
    }
    if (hop > max_chain_seen_) max_chain_seen_ = hop;
    ++num_rows_;
    return Status::OK();
  };
  auto collapse = [&](int hop) {
    if (hop > max_chain_seen_) max_chain_seen_ = hop;
    return Status::OK();
  };
  // Every pair up to the cap holds d copies of κ: queries for this key
  // return true regardless of predicate (Theorem 3), so dropping the row
  // cannot cause a false negative.
  auto overflow = [&] {
    ++num_overflow_rows_;
    return Status::OK();
  };

  // Hop 0 is the row's own pair, scanned directly: rows that never chain
  // (the first pair has room) never touch the cursors.
  auto [count, dup] = ScanPairWithFp(first_pair, fp, identical);
  if (dup) return collapse(0);
  if (count < config_.max_dupes) return place(first_pair, 0);

  // The first pair is saturated with κ copies: walk κ's chain. A chain the
  // batch already has a cursor for resumes there; otherwise the first
  // kDirectHops pairs are walked directly (no state, no allocation), and a
  // chain that runs past them gets a cursor, so its later vectors skip the
  // saturated prefix.
  const uint64_t start_key =
      (std::min(first_pair.primary, first_pair.alt) << config_.key_fp_bits) |
      fp;
  ChainCursors::Cursor* cursor = nullptr;
  if (cursors != nullptr) {
    cursors->index.ForEach(cursors->starts, start_key,
                           [&](uint32_t c) { cursor = &cursors->cursors[c]; });
  }
  if (cursor == nullptr) {
    const int direct = cursors != nullptr && packed
                           ? std::min(ChainCap(), kDirectHops)
                           : ChainCap();
    ChainWalk walk(&hasher_, table_->bucket_mask(), first_pair.primary, fp);
    for (int hop = 1; hop < direct; ++hop) {
      walk.Advance();
      auto [copies, hit] = ScanPairWithFp(walk.pair(), fp, identical);
      if (hit) return collapse(hop);
      if (copies < config_.max_dupes) return place(walk.pair(), hop);
    }
    if (direct == ChainCap()) return overflow();
    cursors->starts.push_back(start_key);
    cursors->index.Append(cursors->starts);
    cursor = &cursors->cursors.emplace_back(&hasher_, table_->bucket_mask(),
                                            first_pair.primary, fp);
  }
  for (const auto& [word, hop] : cursor->words) {
    if (word == payload) return collapse(hop);
  }
  for (ChainWalk& at = cursor->walk; at.hops() < ChainCap(); at.Advance()) {
    auto [copies, hit] = ScanPairWithFp(at.pair(), fp, identical);
    if (hit) return collapse(at.hops());
    if (copies < config_.max_dupes) return place(at.pair(), at.hops());
    // Saturated: its words are frozen from here on.
    ScanPairWithFp(at.pair(), fp, [&](uint64_t b, int s) {
      cursor->words.emplace_back(EntryPayloadWord(b, s), at.hops());
      return false;
    });
  }
  return overflow();
}

uint64_t ChainedCcf::PackRowPayload(std::span<const uint64_t> attrs) const {
  return table_->slot_bits() <= 64 ? codec_.Pack(attrs) : 0;
}

bool ChainedCcf::TryInsertNoKick(const BucketPair& pair, uint32_t fp,
                                 std::span<const uint64_t> attrs,
                                 uint64_t payload) {
  if (table_->slot_bits() > 64) {
    // Oversized geometry: per-attribute scan and store (cold fallback).
    auto [count, dup] = ScanPairWithFp(pair, fp, [&](uint64_t b, int s) {
      return codec_.EqualsStored(*table_, b, s, /*base=*/0, attrs);
    });
    if (dup) return true;
    if (count >= config_.max_dupes) return false;
    auto [b, s] = FreeSlotInPair(pair);
    if (s < 0) return false;
    table_->Put(b, s, fp);
    codec_.Store(table_.get(), b, s, /*base=*/0, attrs);
    ++num_rows_;
    return true;
  }
  // Packed fast path: the row's vector was hashed once into `payload`
  // (PackRowPayload, possibly straight from the rebuild memo); one fused
  // pass per bucket serves the duplicate compare (single-field equality),
  // the fp copy count, and the free-slot search (countr_one of the
  // occupancy word) — and placement writes the whole slot in one field
  // store. Decisions are identical to the generic path above.
  (void)attrs;
  const int vec_bits = codec_.vector_bits();
  const uint64_t packed = payload;
  int count = 0;
  uint64_t free_bucket = 0;
  int free_slot = -1;
  auto scan = [&](uint64_t b) {  // returns true on a duplicate hit
    uint64_t occ = table_->OccupiedMask(b);
    uint64_t m = table_->MatchMask(b, fp) & occ;
    while (m != 0) {
      int s = std::countr_zero(m);
      m &= m - 1;
      ++count;
      if (table_->GetPayloadField(b, s, 0, vec_bits) == packed) return true;
    }
    if (free_slot < 0) {
      int fs = std::countr_one(occ);
      if (fs < table_->slots_per_bucket()) {
        free_bucket = b;
        free_slot = fs;
      }
    }
    return false;
  };
  if (scan(pair.primary)) return true;  // collapsed
  if (!pair.degenerate() && scan(pair.alt)) return true;
  if (count >= config_.max_dupes) return false;  // chain walk: wave 2
  if (free_slot < 0) return false;  // displacement needed: wave 2
  table_->PutSlot(free_bucket, free_slot, fp, packed);
  ++num_rows_;
  return true;
}

bool ChainedCcf::ContainsAddressed(uint64_t bucket, uint32_t fp,
                                   const Predicate& pred) const {
  return WalkContains(PairOf(bucket, fp), fp, [&](uint64_t b, int s) {
    return VectorEntryMatches(*table_, b, s, /*base=*/0, codec_, pred);
  });
}

bool ChainedCcf::ContainsAddressedExcluding(
    uint64_t bucket, uint32_t fp, const Predicate& pred,
    std::span<const uint64_t> excluded) const {
  if (excluded.empty()) return ContainsAddressed(bucket, fp, pred);
  CCF_DCHECK(table_->slot_bits() <= 64);
  // Excluded entries stay physically present (a commit leaves them as
  // residue), so the walk's saturation counts (ScanPairWithFp's totals) are
  // unchanged; they merely stop matching. The terminal all-saturated case
  // still answers true — one-sided, exactly like any other false positive.
  return WalkContains(PairOf(bucket, fp), fp, [&](uint64_t b, int s) {
    return !PayloadExcluded(EntryPayloadWord(b, s), excluded) &&
           VectorEntryMatches(*table_, b, s, /*base=*/0, codec_, pred);
  });
}

bool ChainedCcf::ContainsKeyAddressedExcluding(
    uint64_t bucket, uint32_t fp, std::span<const uint64_t> excluded) const {
  if (excluded.empty()) return ContainsKeyAddressed(bucket, fp);
  CCF_DCHECK(table_->slot_bits() <= 64);
  // A surviving row of the key may live further down the chain while every
  // first-pair copy is staged-erased (the first pair must then be
  // saturated, which is exactly the walk-continues condition) — so the
  // key-only exclusion probe needs the full walk, not the §7.1 first-pair
  // shortcut.
  return WalkContains(PairOf(bucket, fp), fp, [&](uint64_t b, int s) {
    return !PayloadExcluded(EntryPayloadWord(b, s), excluded);
  });
}

void ChainedCcf::LookupBatchBroadcast(std::span<const uint64_t> keys,
                                      const Predicate& pred,
                                      std::span<bool> out) const {
  // One predicate for the whole batch: hash its values once, compare raw
  // fingerprints per entry. Single-wave: with a selective predicate a
  // primary-only match is rare, so the alt-deferring two-wave flavour does
  // not pay here (see PlainCcf::LookupBatchBroadcast).
  CompiledVectorPredicate compiled =
      CompiledVectorPredicate::Compile(codec_, pred);
  BatchResolve(keys, out, [&](size_t, const BucketPair& pair, uint32_t fp) {
    return WalkContains(pair, fp, [&](uint64_t b, int s) {
      return VectorEntryMatchesCompiled(*table_, b, s, /*base=*/0, codec_,
                                        compiled);
    });
  });
}

Result<std::unique_ptr<KeyFilter>> ChainedCcf::PredicateQuery(
    const Predicate& pred) const {
  // §6.2: entries cannot be erased (gaps would break chains); instead each
  // non-matching entry is marked with an extra bit.
  BitVector marks(table_->num_slots());
  for (uint64_t b = 0; b < table_->num_buckets(); ++b) {
    for (int s = 0; s < table_->slots_per_bucket(); ++s) {
      if (!table_->occupied(b, s)) continue;
      if (!VectorEntryMatches(*table_, b, s, /*base=*/0, codec_, pred)) {
        marks.SetBit(b * static_cast<uint64_t>(table_->slots_per_bucket()) +
                         static_cast<uint64_t>(s),
                     true);
      }
    }
  }
  return std::unique_ptr<KeyFilter>(new MarkedKeyFilter(
      table_, std::move(marks), hasher_, config_.max_dupes, ChainCap(),
      /*chain_on_full_pair=*/true));
}

void ChainedCcf::SaveExtras(ByteWriter* writer) const {
  writer->WriteU64(num_overflow_rows_);
  writer->WriteU32(static_cast<uint32_t>(max_chain_seen_));
}

Status ChainedCcf::LoadExtras(ByteReader* reader) {
  CCF_ASSIGN_OR_RETURN(num_overflow_rows_, reader->ReadU64());
  CCF_ASSIGN_OR_RETURN(uint32_t seen, reader->ReadU32());
  max_chain_seen_ = static_cast<int>(seen);
  return Status::OK();
}

}  // namespace ccf
