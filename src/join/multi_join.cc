#include "join/multi_join.h"

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <utility>

#include "ccf/range_ccf.h"
#include "ccf/sharded_ccf.h"
#include "join/semijoin.h"
#include "predicate/dyadic.h"

namespace ccf {

namespace {

/// Geometry for `entries` entries at a ≤ 0.5 load target: the chain builds
/// plain (non-auto-resizing) inner filters, so headroom substitutes for
/// rebuild machinery.
CcfConfig ChainConfig(uint64_t entries, int num_attrs,
                      const MultiJoinOptions& options) {
  CcfConfig c;
  c.slots_per_bucket = 4;
  c.key_fp_bits = options.key_fp_bits;
  c.attr_fp_bits = options.attr_fp_bits;
  c.num_attrs = num_attrs;
  c.salt = options.salt;
  uint64_t buckets = 64;
  while (buckets * 4 < entries * 2) buckets <<= 1;
  c.num_buckets = buckets;
  return c;
}

/// Splits `query`'s predicates on `table` into equality terms; returns the
/// year range (there is at most one) through the out-params.
std::vector<const QueryPredicate*> LocalEqualityPreds(
    const JoinQuery& query, const std::string& table, bool* has_range,
    uint64_t* range_lo, uint64_t* range_hi) {
  std::vector<const QueryPredicate*> eq;
  for (const QueryPredicate* p : query.PredicatesOn(table)) {
    if (p->is_range) {
      *has_range = true;
      *range_lo = p->lo < 0 ? 0 : static_cast<uint64_t>(p->lo);
      *range_hi = p->hi < 0 ? 0 : static_cast<uint64_t>(p->hi);
    } else {
      eq.push_back(p);
    }
  }
  return eq;
}

struct TitleRows {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> flat_attrs;  // raw predicate columns, row-major
  int range_attr = -1;               // production_year's attribute index
};

Result<TitleRows> ExtractTitleRows(const TableData& title) {
  TitleRows rows;
  CCF_ASSIGN_OR_RETURN(const std::vector<uint64_t>* key_col,
                       title.table.column(title.spec.key_column));
  std::vector<const std::vector<uint64_t>*> attr_cols;
  for (size_t i = 0; i < title.spec.predicate_columns.size(); ++i) {
    const std::string& col = title.spec.predicate_columns[i];
    CCF_ASSIGN_OR_RETURN(const std::vector<uint64_t>* c,
                         title.table.column(col));
    attr_cols.push_back(c);
    if (col == "production_year") rows.range_attr = static_cast<int>(i);
  }
  if (rows.range_attr < 0) {
    return Status::Invalid("title has no production_year column");
  }
  uint64_t n = key_col->size();
  rows.keys.assign(key_col->begin(), key_col->end());
  rows.flat_attrs.reserve(n * attr_cols.size());
  for (uint64_t i = 0; i < n; ++i) {
    for (const auto* col : attr_cols) rows.flat_attrs.push_back((*col)[i]);
  }
  return rows;
}

/// Builds the anchor RangeCcf over the full title table (raw years as the
/// range column). The range predicate is applied at PROBE time, which is
/// the point of the chain: one build serves every query range.
Result<std::unique_ptr<RangeCcf>> BuildTitleRangeFilter(
    const TableData& title, const MultiJoinOptions& options) {
  CCF_ASSIGN_OR_RETURN(TitleRows rows, ExtractTitleRows(title));
  uint64_t eta = static_cast<uint64_t>(options.max_level) + 1;
  CcfConfig config = ChainConfig(
      rows.keys.size() * eta,
      static_cast<int>(title.spec.predicate_columns.size()), options);
  std::unique_ptr<RangeCcf> filter;
  if (options.sharded_build) {
    ShardedCcfOptions sharded;
    sharded.num_shards = options.num_shards;
    CCF_ASSIGN_OR_RETURN(
        filter, RangeCcf::MakeSharded(options.variant, config,
                                      rows.range_attr, options.max_level,
                                      sharded));
    // The serving path: rows stage through the write-buffer overlay (each
    // row's η labels one atomically-published group) and commit in epoch-
    // published batches; the filter is queryable throughout.
    constexpr size_t kCommitChunk = 8192;
    size_t num_attrs = title.spec.predicate_columns.size();
    for (size_t off = 0; off < rows.keys.size(); off += kCommitChunk) {
      size_t n = std::min(kCommitChunk, rows.keys.size() - off);
      CCF_RETURN_NOT_OK(filter->BufferWriteBatch(
          std::span<const uint64_t>(rows.keys.data() + off, n),
          std::span<const uint64_t>(rows.flat_attrs.data() + off * num_attrs,
                                    n * num_attrs)));
      CCF_RETURN_NOT_OK(filter->CommitWrites());
    }
  } else {
    CCF_ASSIGN_OR_RETURN(filter,
                         RangeCcf::Make(options.variant, config,
                                        rows.range_attr, options.max_level));
    CCF_RETURN_NOT_OK(filter->InsertBatch(rows.keys, rows.flat_attrs));
  }
  return filter;
}

/// Raw-schema equality terms of title's local predicates, by attribute
/// index in the range filter's schema.
Result<Predicate> TitleOtherPredicate(
    const TableData& title, const std::vector<const QueryPredicate*>& eq) {
  Predicate other;
  for (const QueryPredicate* p : eq) {
    int attr = -1;
    for (size_t i = 0; i < title.spec.predicate_columns.size(); ++i) {
      if (title.spec.predicate_columns[i] == p->column) {
        attr = static_cast<int>(i);
      }
    }
    if (attr < 0) {
      return Status::Invalid("title predicate on unknown column: " +
                             p->column);
    }
    other.AndEquals(attr, p->value);
  }
  return other;
}

}  // namespace

Result<MultiJoinResult> RunMultiJoinChain(const ImdbDataset& dataset,
                                          const JoinQuery& query,
                                          const MultiJoinOptions& options) {
  if (!query.HasTable("title") || query.tables.size() < 2) {
    return Status::Invalid(
        "chain plans need title plus at least one fact table");
  }
  if (options.max_level < 0 || options.max_level > kMaxDyadicLevel) {
    return Status::Invalid("max_level must be in [0, 57]");
  }
  const TableData& title = dataset.title();

  bool title_has_range = false;
  uint64_t range_lo = 0, range_hi = 0;
  std::vector<const QueryPredicate*> title_eq = LocalEqualityPreds(
      query, "title", &title_has_range, &range_lo, &range_hi);
  if (!title_has_range) {
    // No year predicate: the full domain (the filter clamps internally).
    range_lo = static_cast<uint64_t>(kYearLo);
    range_hi = static_cast<uint64_t>(kYearHi);
  }

  MultiJoinResult result;
  auto title_filter_or = BuildTitleRangeFilter(title, options);
  if (!title_filter_or.ok()) {
    return Status::CapacityError(
        "title range filter build: " +
        std::string(title_filter_or.status().message()));
  }
  std::unique_ptr<RangeCcf> title_filter =
      std::move(title_filter_or).ValueOrDie();
  result.total_filter_bits += title_filter->SizeInBits();
  {
    MultiJoinStep step;
    step.table = "title";
    step.rows_scanned = title.table.num_rows();
    step.rows_after_local = step.rows_scanned;  // applied at probe time
    step.rows_after_probe = step.rows_scanned;
    result.steps.push_back(std::move(step));
  }
  CCF_ASSIGN_OR_RETURN(Predicate title_other,
                       TitleOtherPredicate(title, title_eq));

  // The chain: probe the previous filter, build the next from survivors.
  std::unique_ptr<ConditionalCuckooFilter> prev_equality;  // steps >= 2
  bool first_probe_step = true;
  RangeBinner year_binner =
      RangeBinner::Make(kYearLo, kYearHi, kYearBins).ValueOrDie();

  std::vector<std::string> fact_tables;
  for (const std::string& name : query.tables) {
    if (name != "title") fact_tables.push_back(name);
  }

  for (const std::string& name : fact_tables) {
    CCF_ASSIGN_OR_RETURN(const TableData* td, dataset.FindTable(name));
    MultiJoinStep step;
    step.table = name;
    step.rows_scanned = td->table.num_rows();

    bool unused_range = false;
    uint64_t unused_lo = 0, unused_hi = 0;
    std::vector<const QueryPredicate*> local_eq = LocalEqualityPreds(
        query, name, &unused_range, &unused_lo, &unused_hi);
    CCF_ASSIGN_OR_RETURN(
        std::vector<char> mask,
        MatchMask(*td, local_eq, YearMode::kExact, year_binner));
    for (char m : mask) step.rows_after_local += m != 0;

    CCF_ASSIGN_OR_RETURN(DistinctKeys distinct,
                         CollectDistinctKeys(*td, mask));
    // bool buffer (not vector<bool>): the batch APIs take span<bool>.
    std::unique_ptr<bool[]> hits(new bool[distinct.keys.size()]());
    std::span<bool> hit_span(hits.get(), distinct.keys.size());

    if (first_probe_step) {
      if (options.mode == ChainProbeMode::kBatched) {
        CCF_ASSIGN_OR_RETURN(
            CompiledRangePredicate compiled,
            title_filter->CompileRange(range_lo, range_hi, title_other));
        CCF_RETURN_NOT_OK(title_filter->ContainsInRangeBatch(
            distinct.keys, compiled, hit_span));
      } else {
        for (size_t i = 0; i < distinct.keys.size(); ++i) {
          hits[i] = title_filter->ContainsInRange(distinct.keys[i], range_lo,
                                                  range_hi, title_other);
        }
      }
    } else {
      if (options.mode == ChainProbeMode::kBatched) {
        prev_equality->ContainsKeyBatch(distinct.keys, hit_span);
      } else {
        for (size_t i = 0; i < distinct.keys.size(); ++i) {
          hits[i] = prev_equality->ContainsKey(distinct.keys[i]);
        }
      }
    }

    // Count surviving ROWS and gather them for the next build.
    CCF_ASSIGN_OR_RETURN(const std::vector<uint64_t>* key_col,
                         td->table.column(td->spec.key_column));
    std::vector<uint64_t> next_keys;
    std::vector<uint64_t> next_attrs;
    const std::vector<uint64_t>* attr_col = nullptr;
    if (!td->spec.predicate_columns.empty()) {
      CCF_ASSIGN_OR_RETURN(attr_col,
                           td->table.column(td->spec.predicate_columns[0]));
    }
    for (size_t i = 0; i < key_col->size(); ++i) {
      if (!mask[i]) continue;
      int64_t id = distinct.Find((*key_col)[i]);
      if (id < 0 || !hits[id]) continue;
      ++step.rows_after_probe;
      next_keys.push_back((*key_col)[i]);
      next_attrs.push_back(attr_col == nullptr ? 0 : (*attr_col)[i]);
    }

    result.final_rows = step.rows_after_probe;
    result.steps.push_back(std::move(step));
    first_probe_step = false;

    // Build the next hop's filter from this step's probe OUTPUT — the
    // pipelined semijoin: each filter encodes the survivors of everything
    // upstream. Skipped after the last table.
    if (name != fact_tables.back()) {
      CcfConfig config =
          ChainConfig(std::max<uint64_t>(next_keys.size(), 64), 1, options);
      CCF_ASSIGN_OR_RETURN(prev_equality, ConditionalCuckooFilter::Make(
                                              options.variant, config));
      if (!next_keys.empty()) {
        Status st = prev_equality->InsertBatch(next_keys, next_attrs);
        if (!st.ok()) {
          return Status::CapacityError("step filter build (" + name +
                                       "): " + std::string(st.message()));
        }
      }
      result.total_filter_bits += prev_equality->SizeInBits();
    }
  }
  return result;
}

Result<MultiJoinResult> ExactChainReference(const ImdbDataset& dataset,
                                            const JoinQuery& query) {
  if (!query.HasTable("title") || query.tables.size() < 2) {
    return Status::Invalid(
        "chain plans need title plus at least one fact table");
  }
  const TableData& title = dataset.title();
  RangeBinner year_binner =
      RangeBinner::Make(kYearLo, kYearHi, kYearBins).ValueOrDie();

  MultiJoinResult result;
  CCF_ASSIGN_OR_RETURN(
      std::vector<char> title_mask,
      MatchMask(title, query.PredicatesOn("title"), YearMode::kExact,
                year_binner));
  std::unordered_set<uint64_t> live = SurvivingKeys(title, title_mask);
  {
    MultiJoinStep step;
    step.table = "title";
    step.rows_scanned = title.table.num_rows();
    step.rows_after_local = step.rows_scanned;
    step.rows_after_probe = step.rows_scanned;
    result.steps.push_back(std::move(step));
  }

  for (const std::string& name : query.tables) {
    if (name == "title") continue;
    CCF_ASSIGN_OR_RETURN(const TableData* td, dataset.FindTable(name));
    MultiJoinStep step;
    step.table = name;
    step.rows_scanned = td->table.num_rows();

    std::vector<const QueryPredicate*> local_eq;
    for (const QueryPredicate* p : query.PredicatesOn(name)) {
      if (!p->is_range) local_eq.push_back(p);
    }
    CCF_ASSIGN_OR_RETURN(
        std::vector<char> mask,
        MatchMask(*td, local_eq, YearMode::kExact, year_binner));
    for (char m : mask) step.rows_after_local += m != 0;

    CCF_ASSIGN_OR_RETURN(const std::vector<uint64_t>* key_col,
                         td->table.column(td->spec.key_column));
    std::unordered_set<uint64_t> next_live;
    for (size_t i = 0; i < key_col->size(); ++i) {
      if (!mask[i] || !live.contains((*key_col)[i])) continue;
      ++step.rows_after_probe;
      next_live.insert((*key_col)[i]);
    }
    live = std::move(next_live);
    result.final_rows = step.rows_after_probe;
    result.steps.push_back(std::move(step));
  }
  return result;
}

}  // namespace ccf
