#include "join/semijoin.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/key_index.h"

namespace ccf {

Result<std::vector<char>> MatchMask(
    const TableData& table, const std::vector<const QueryPredicate*>& preds,
    YearMode year_mode, const RangeBinner& year_binner) {
  uint64_t n = table.table.num_rows();
  std::vector<char> mask(n, 1);
  for (const QueryPredicate* pred : preds) {
    CCF_ASSIGN_OR_RETURN(const std::vector<uint64_t>* col,
                         table.table.column(pred->column));
    if (!pred->is_range) {
      for (uint64_t i = 0; i < n; ++i) {
        if ((*col)[i] != pred->value) mask[i] = 0;
      }
      continue;
    }
    if (year_mode == YearMode::kExact) {
      for (uint64_t i = 0; i < n; ++i) {
        int64_t v = static_cast<int64_t>((*col)[i]);
        if (v < pred->lo || v > pred->hi) mask[i] = 0;
      }
    } else {
      // Binned semantics: the value's bin must be covered — edge bins admit
      // out-of-range values (the binning error Figure 7 isolates).
      std::vector<uint64_t> cover = year_binner.Cover(pred->lo, pred->hi);
      for (uint64_t i = 0; i < n; ++i) {
        uint64_t bin = year_binner.BinOf(static_cast<int64_t>((*col)[i]));
        if (std::find(cover.begin(), cover.end(), bin) == cover.end()) {
          mask[i] = 0;
        }
      }
    }
  }
  return mask;
}

Result<std::unordered_set<uint64_t>> CollectSurvivingKeys(
    const TableData& table, const std::vector<char>& mask) {
  CCF_ASSIGN_OR_RETURN(DistinctKeys distinct, CollectDistinctKeys(table, mask));
  return std::unordered_set<uint64_t>(distinct.keys.begin(),
                                      distinct.keys.end());
}

std::unordered_set<uint64_t> SurvivingKeys(const TableData& table,
                                           const std::vector<char>& mask) {
  auto keys = CollectSurvivingKeys(table, mask);
  return keys.ok() ? std::move(*keys) : std::unordered_set<uint64_t>{};
}

namespace {

constexpr int kMinSlotsLog2 = 4;
constexpr size_t kChunkRows = 256;

// The slot holding `key`, or the empty slot where it belongs.
size_t SlotOf(const DistinctKeys& d, uint64_t key) {
  const size_t wrap = d.slots.size() - 1;
  size_t s = KeySlot(key, d.shift);
  while (d.slots[s] != 0 && d.keys[d.slots[s] - 1] != key) {
    s = (s + 1) & wrap;
  }
  return s;
}

// Doubles the index and re-places every id in first-appearance order.
void Grow(DistinctKeys* d) {
  d->slots.assign(d->slots.size() * 2, 0);
  --d->shift;
  for (size_t id = 0; id < d->keys.size(); ++id) {
    d->slots[SlotOf(*d, d->keys[id])] = static_cast<uint32_t>(id + 1);
  }
}

}  // namespace

int64_t DistinctKeys::Find(uint64_t key) const {
  if (slots.empty()) return -1;
  uint32_t v = slots[SlotOf(*this, key)];
  return static_cast<int64_t>(v) - 1;
}

Result<DistinctKeys> CollectDistinctKeys(const TableData& table,
                                         const std::vector<char>& mask) {
  CCF_ASSIGN_OR_RETURN(const std::vector<uint64_t>* key_col,
                       table.table.column(table.spec.key_column));
  if (mask.size() != key_col->size()) {
    return Status::Invalid("CollectDistinctKeys: mask has " +
                           std::to_string(mask.size()) + " rows, table has " +
                           std::to_string(key_col->size()));
  }
  if (key_col->size() >= (uint64_t{1} << 32)) {
    return Status::Invalid("CollectDistinctKeys: table has 2^32 rows or more");
  }
  DistinctKeys out;
  out.slots.assign(size_t{1} << kMinSlotsLog2, 0);
  out.shift = 64 - kMinSlotsLog2;
  // Masked keys are first compacted a chunk at a time with no branch on
  // the mask byte, so the index pass below only sees rows it must count.
  const std::vector<uint64_t>& kc = *key_col;
  uint64_t chunk[kChunkRows];
  for (size_t i = 0; i < kc.size();) {
    const size_t end = std::min(kc.size(), i + kChunkRows);
    size_t n = 0;
    for (; i < end; ++i) {
      chunk[n] = kc[i];
      n += mask[i] != 0;
    }
    for (size_t j = 0; j < n; ++j) {
      const uint64_t key = chunk[j];
      const size_t s = SlotOf(out, key);
      if (out.slots[s] != 0) {
        ++out.rows[out.slots[s] - 1];
        continue;
      }
      out.keys.push_back(key);
      out.rows.push_back(1);
      out.slots[s] = static_cast<uint32_t>(out.keys.size());
      if (out.keys.size() * 2 > out.slots.size()) Grow(&out);
    }
  }
  return out;
}

Result<std::vector<InstanceExact>> ComputeExactCounts(
    const ImdbDataset& dataset, const std::vector<JoinQuery>& queries,
    const RangeBinner& year_binner) {
  std::vector<InstanceExact> out;
  for (const JoinQuery& query : queries) {
    // Per-query caches: surviving key sets of each member table under its
    // predicates, exact and binned.
    std::vector<const TableData*> tables;
    std::vector<std::unordered_set<uint64_t>> keys_exact;
    std::vector<std::unordered_set<uint64_t>> keys_binned;
    std::vector<std::vector<char>> masks_exact;
    for (const std::string& name : query.tables) {
      CCF_ASSIGN_OR_RETURN(const TableData* td, dataset.FindTable(name));
      tables.push_back(td);
      auto preds = query.PredicatesOn(name);
      CCF_ASSIGN_OR_RETURN(
          std::vector<char> me,
          MatchMask(*td, preds, YearMode::kExact, year_binner));
      CCF_ASSIGN_OR_RETURN(
          std::vector<char> mb,
          MatchMask(*td, preds, YearMode::kBinned, year_binner));
      CCF_ASSIGN_OR_RETURN(auto exact, CollectSurvivingKeys(*td, me));
      CCF_ASSIGN_OR_RETURN(auto binned, CollectSurvivingKeys(*td, mb));
      keys_exact.push_back(std::move(exact));
      keys_binned.push_back(std::move(binned));
      masks_exact.push_back(std::move(me));
    }

    for (size_t b = 0; b < tables.size(); ++b) {
      const TableData& base = *tables[b];
      InstanceExact inst;
      inst.query_id = query.id;
      inst.base_table = base.spec.name;
      inst.num_joins = static_cast<int>(tables.size()) - 1;

      CCF_ASSIGN_OR_RETURN(const std::vector<uint64_t>* key_col,
                           base.table.column(base.spec.key_column));
      const std::vector<char>& base_mask = masks_exact[b];
      for (size_t i = 0; i < key_col->size(); ++i) {
        if (!base_mask[i]) continue;
        ++inst.m_predicate;
        uint64_t key = (*key_col)[i];
        bool exact_ok = true;
        bool binned_ok = true;
        for (size_t t = 0; t < tables.size(); ++t) {
          if (t == b) continue;
          if (exact_ok && !keys_exact[t].contains(key)) exact_ok = false;
          if (binned_ok && !keys_binned[t].contains(key)) binned_ok = false;
          if (!exact_ok && !binned_ok) break;
        }
        if (exact_ok) ++inst.m_semijoin;
        if (binned_ok) ++inst.m_semijoin_binned;
      }
      out.push_back(std::move(inst));
    }
  }
  return out;
}

}  // namespace ccf
