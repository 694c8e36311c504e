#include "join/ccf_builder.h"

#include <algorithm>
#include <utility>

#include "ccf/chained_ccf.h"
#include "ccf/sharded_ccf.h"

namespace ccf {

CcfBuildParams LargeParams(CcfVariant variant) {
  CcfBuildParams p;
  p.variant = variant;
  p.key_fp_bits = 12;
  p.attr_fp_bits = 8;
  p.bloom_bits = 24;
  p.bloom_hashes = 4;  // §10.5: "4 hash functions for Bloom filters"
  return p;
}

CcfBuildParams SmallParams(CcfVariant variant) {
  CcfBuildParams p;
  p.variant = variant;
  p.key_fp_bits = 7;
  p.attr_fp_bits = 4;
  p.bloom_bits = 8;
  p.bloom_hashes = 2;
  return p;
}

Status BuiltCcf::ProbeKeys(std::span<const uint64_t> keys,
                           const std::vector<const QueryPredicate*>& preds,
                           std::span<bool> out) const {
  if (out.size() != keys.size()) {
    return Status::Invalid("ProbeKeys: out.size() must equal keys.size()");
  }
  if (preds.empty()) {
    filter->ContainsKeyBatch(keys, out);
    return Status::OK();
  }
  CCF_ASSIGN_OR_RETURN(Predicate pred, CompilePredicates(preds));
  return filter->LookupBatch(keys, std::span<const Predicate>(&pred, 1), out);
}

Result<Predicate> BuiltCcf::CompilePredicates(
    const std::vector<const QueryPredicate*>& preds) const {
  Predicate out;
  for (const QueryPredicate* p : preds) {
    CCF_ASSIGN_OR_RETURN(int attr, schema.IndexOf(p->column));
    if (!p->is_range) {
      out.AndEquals(attr, p->value);
      continue;
    }
    if (!year_binner.has_value()) {
      return Status::Invalid("range predicate on a table without a binner");
    }
    out.AndIn(attr, year_binner->Cover(p->lo, p->hi));
  }
  return out;
}

namespace {

// Rows presented to the CCF: key + predicate-column values, with
// production_year replaced by its bin id. Columnar: one flat row-major
// attribute matrix instead of a heap vector per row, so extraction writes
// three flat arrays with zero per-row allocation — and the flat matrix is
// exactly the shape InsertBatch / InsertParallel consume.
struct SketchRows {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> flat_attrs;  // row-major, keys.size() * num_attrs
  std::vector<uint64_t> distinct_dupes_per_key;
  uint64_t num_dropped = 0;  // exact duplicate rows left out
};

// With `drop_duplicates`, later exact duplicates (same key, same attribute
// values) are left out and the rest keep their first-occurrence order.
Result<SketchRows> ExtractRows(const TableData& table,
                               const std::optional<RangeBinner>& binner,
                               bool drop_duplicates) {
  SketchRows rows;
  CCF_ASSIGN_OR_RETURN(const std::vector<uint64_t>* key_col,
                       table.table.column(table.spec.key_column));
  std::vector<const std::vector<uint64_t>*> attr_cols;
  for (const std::string& col : table.spec.predicate_columns) {
    CCF_ASSIGN_OR_RETURN(const std::vector<uint64_t>* c,
                         table.table.column(col));
    attr_cols.push_back(c);
  }
  const uint64_t n = key_col->size();
  const size_t num_attrs = attr_cols.size();
  if (n >> 32 != 0) return Status::Invalid("ExtractRows: over 2^32 rows");
  rows.keys.reserve(n);
  rows.flat_attrs.reserve(n * num_attrs);
  const auto& columns = table.spec.predicate_columns;
  const size_t year_idx =
      binner.has_value()
          ? std::find(columns.begin(), columns.end(), "production_year") -
                columns.begin()
          : columns.size();
  // One grouping pass serves both §8 sizing (distinct attribute vectors per
  // key) and the duplicate drop. Records (key, signature << 32 | row) are
  // counting-sorted into 2^16 bins by a hash of the key — one scatter pass,
  // no second buffer — and each bin is then sorted by (key, signature,
  // row); a comparison sort of all records cost 5x more on cast_info.
  struct RowRec {
    uint64_t key;
    uint64_t sig_row;
    bool operator<(const RowRec& o) const {
      return key != o.key ? key < o.key : sig_row < o.sig_row;
    }
  };
  constexpr int kBinBits = 16;
  auto bin_of = [](uint64_t key) {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >>
                               (64 - kBinBits));
  };
  std::vector<size_t> bin_end((size_t{1} << kBinBits) + 1, 0);
  for (uint64_t key : *key_col) ++bin_end[bin_of(key) + 1];
  for (size_t b = 1; b < bin_end.size(); ++b) bin_end[b] += bin_end[b - 1];
  std::vector<size_t> fill(bin_end.begin(), bin_end.end() - 1);
  std::vector<RowRec> recs(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t sig = 0xcbf29ce484222325ull;
    for (size_t a = 0; a < num_attrs; ++a) {
      uint64_t v = (*attr_cols[a])[i];
      if (a == year_idx) v = binner->BinOf(static_cast<int64_t>(v));
      rows.flat_attrs.push_back(v);
      sig = (sig ^ v) * 0x100000001b3ull;
    }
    const uint64_t key = (*key_col)[i];
    rows.keys.push_back(key);
    recs[fill[bin_of(key)]++] = {key, (sig >> 32 << 32) | i};
  }
  for (size_t b = 0; b + 1 < bin_end.size(); ++b) {
    std::sort(recs.begin() + static_cast<ptrdiff_t>(bin_end[b]),
              recs.begin() + static_cast<ptrdiff_t>(bin_end[b + 1]));
  }
  // A row is a duplicate when its values equal those of an earlier
  // distinct row of its key with the same signature — compared value by
  // value, since the signature can collide.
  auto row_attrs = [&](uint64_t row) {
    return rows.flat_attrs.begin() + static_cast<ptrdiff_t>(row * num_attrs);
  };
  std::vector<bool> dropped(drop_duplicates ? n : 0);
  std::vector<uint64_t> run_distinct;
  for (size_t i = 0; i < recs.size();) {
    size_t end = i;
    while (end < recs.size() && recs[end].key == recs[i].key) ++end;
    uint64_t key_distinct = 0;
    for (size_t j = i; j < end; ++j) {
      if (j == i || recs[j].sig_row >> 32 != recs[j - 1].sig_row >> 32) {
        run_distinct.clear();
      }
      const uint64_t row = recs[j].sig_row & 0xffffffffu;
      bool seen = std::any_of(
          run_distinct.begin(), run_distinct.end(), [&](uint64_t first) {
            return std::equal(row_attrs(first), row_attrs(first) + num_attrs,
                              row_attrs(row));
          });
      if (!seen) {
        run_distinct.push_back(row);
        ++key_distinct;
      } else if (drop_duplicates) {
        dropped[row] = true;
      }
    }
    rows.distinct_dupes_per_key.push_back(key_distinct);
    i = end;
  }
  if (drop_duplicates) {
    // Compact in place: no second copy of the rows.
    uint64_t kept = 0;
    for (uint64_t i = 0; i < n; ++i) {
      if (dropped[i]) continue;
      rows.keys[kept] = rows.keys[i];
      std::copy(row_attrs(i), row_attrs(i) + num_attrs, row_attrs(kept));
      ++kept;
    }
    rows.num_dropped = n - kept;
    rows.keys.resize(kept);
    rows.flat_attrs.resize(kept * num_attrs);
  }
  return rows;
}

}  // namespace

Result<BuiltCcf> BuildCcf(const TableData& table,
                          const CcfBuildParams& params) {
  BuiltCcf built;
  built.source = &table;
  built.schema = AttributeSchema(table.spec.predicate_columns);
  for (const std::string& col : table.spec.predicate_columns) {
    if (col == "production_year") {
      CCF_ASSIGN_OR_RETURN(RangeBinner binner,
                           RangeBinner::Make(kYearLo, kYearHi, kYearBins));
      built.year_binner = binner;
    }
  }

  // Bloom and Mixed count folded rows in num_rows(), and so does a sharded
  // row log: only unsharded Plain and Chained builds drop duplicates.
  const bool drop_duplicates =
      params.num_shards <= 1 && (params.variant == CcfVariant::kPlain ||
                                 params.variant == CcfVariant::kChained);
  CCF_ASSIGN_OR_RETURN(
      SketchRows rows,
      ExtractRows(table, built.year_binner, drop_duplicates));

  CcfConfig config;
  config.key_fp_bits = params.key_fp_bits;
  config.attr_fp_bits = params.attr_fp_bits;
  config.num_attrs = static_cast<int>(table.spec.predicate_columns.size());
  config.max_dupes = params.max_dupes;
  config.max_chain = params.max_chain;
  config.bloom_bits = params.bloom_bits;
  config.bloom_hashes = params.bloom_hashes;
  config.optimize_bloom_hashes = params.optimize_bloom_hashes;
  config.salt = params.salt;
  config.slots_per_bucket = params.slots_per_bucket;

  DuplicateProfile profile = DuplicateProfile::FromCounts(
      rows.distinct_dupes_per_key, config.max_dupes, config.max_chain);
  CCF_ASSIGN_OR_RETURN(config,
                       ChooseGeometry(params.variant, config, profile));

  // Sharded builds: no whole-filter doubling-retry loop anymore. The shards
  // resize THEMSELVES online — a shard whose InsertParallel slice hits
  // CapacityError rebuilds at doubled geometry from its retained row log
  // (re-placing rows from the per-shard hash memo) and publishes the
  // replacement via epoch swap, while the other shards' builds proceed.
  // This is the same machinery that lets a serving filter absorb
  // capacity-crossing inserts without a stop-the-world rebuild.
  if (params.num_shards > 1) {
    ShardedCcfOptions opts;
    opts.num_shards = params.num_shards;
    opts.build_threads = params.build_threads;
    opts.max_auto_resizes = params.max_rebuilds;
    opts.resize_watermark = params.resize_watermark;
    if (params.compact_watermark >= 0.0) {
      opts.compact_watermark = params.compact_watermark;
    }
    CCF_ASSIGN_OR_RETURN(std::unique_ptr<ShardedCcf> sharded,
                         ShardedCcf::Make(params.variant, config, opts));
    Status st;
    if (params.live_write_batch > 0) {
      // Incremental-build entry point: grow the filter exactly the way a
      // serving instance absorbs live traffic — stage a chunk into the
      // per-shard write buffers, publish it with an epoch-swapped commit,
      // repeat. The filter answers queries (wait-free, overlay-visible)
      // after every chunk; watermark-triggered background resizes keep
      // CapacityError off the commit path when params.resize_watermark is
      // set.
      const size_t num_attrs = static_cast<size_t>(config.num_attrs);
      const size_t chunk = static_cast<size_t>(params.live_write_batch);
      // CRUD churn state: transient rows march through a three-chunk
      // lifecycle (inserted → updated → erased) with keys from a reserved
      // range no synthetic-IMDB table touches, so after the final flush the
      // surviving rows are exactly the dataset rows.
      uint64_t churn_counter = 0;
      std::vector<uint64_t> churn_fresh;    // inserted last chunk (attrs v0)
      std::vector<uint64_t> churn_updated;  // updated last chunk (attrs v1)
      auto churn_key = [](uint64_t c) { return 0x7fffffff00000000ull | c; };
      auto churn_attrs = [&](uint64_t c, uint64_t version) {
        std::vector<uint64_t> a(num_attrs);
        for (size_t j = 0; j < num_attrs; ++j) {
          a[j] = c * 131 + version * 17 + j;
        }
        return a;
      };
      auto stage_churn = [&]() -> Status {
        for (uint64_t c : churn_updated) {
          CCF_RETURN_NOT_OK(
              sharded->BufferErase(churn_key(c), churn_attrs(c, 1)));
        }
        churn_updated.clear();
        for (uint64_t c : churn_fresh) {
          CCF_RETURN_NOT_OK(sharded->BufferUpdate(
              churn_key(c), churn_attrs(c, 0), churn_attrs(c, 1)));
          churn_updated.push_back(c);
        }
        churn_fresh.clear();
        for (uint64_t i = 0; i < params.live_churn_rows; ++i) {
          uint64_t c = churn_counter++;
          CCF_RETURN_NOT_OK(
              sharded->BufferWrite(churn_key(c), churn_attrs(c, 0)));
          churn_fresh.push_back(c);
        }
        return Status::OK();
      };
      for (size_t begin = 0; begin < rows.keys.size() && st.ok();
           begin += chunk) {
        size_t n = std::min(chunk, rows.keys.size() - begin);
        st = sharded->BufferWriteBatch(
            std::span<const uint64_t>(rows.keys.data() + begin, n),
            std::span<const uint64_t>(rows.flat_attrs.data() +
                                          begin * num_attrs,
                                      n * num_attrs));
        if (st.ok() && params.live_churn_rows > 0) st = stage_churn();
        if (st.ok()) st = sharded->CommitWrites();
      }
      // Flush the churn rows still mid-lifecycle so only dataset rows
      // survive (updated rows carry attrs v1, fresh ones still v0).
      if (st.ok() && params.live_churn_rows > 0) {
        for (uint64_t c : churn_updated) {
          if (!st.ok()) break;
          st = sharded->BufferErase(churn_key(c), churn_attrs(c, 1));
        }
        for (uint64_t c : churn_fresh) {
          if (!st.ok()) break;
          st = sharded->BufferErase(churn_key(c), churn_attrs(c, 0));
        }
        if (st.ok()) st = sharded->CommitWrites();
      }
      sharded->DrainMaintenance();
    } else {
      std::vector<uint64_t> hash_memo;
      st = sharded->InsertParallel(rows.keys, rows.flat_attrs,
                                   /*num_threads=*/0, &hash_memo);
    }
    if (!st.ok()) {
      return Status::CapacityError(
          "CCF for table '" + table.spec.name + "' failed after per-shard "
          "online resizes: " + st.message());
    }
    if (params.live_write_batch > 0 && params.live_differential_check) {
      // The CRUD acceptance gate: compact every shard, then prove each
      // shard's table serializes bit-identical to a from-scratch batched
      // build of its surviving rows at the same geometry. The build
      // history — incremental commits, churn and the residue its erases
      // left in the tables, mid-build resizes — must be unobservable.
      CCF_RETURN_NOT_OK(sharded->Compact());
      const size_t num_attrs = static_cast<size_t>(config.num_attrs);
      const int num_shards = sharded->num_shards();
      std::vector<std::vector<uint64_t>> shard_keys(
          static_cast<size_t>(num_shards));
      std::vector<std::vector<uint64_t>> shard_attrs(
          static_cast<size_t>(num_shards));
      for (size_t i = 0; i < rows.keys.size(); ++i) {
        size_t s = sharded->ShardOf(rows.keys[i]);
        shard_keys[s].push_back(rows.keys[i]);
        shard_attrs[s].insert(
            shard_attrs[s].end(),
            rows.flat_attrs.begin() + static_cast<ptrdiff_t>(i * num_attrs),
            rows.flat_attrs.begin() +
                static_cast<ptrdiff_t>((i + 1) * num_attrs));
      }
      for (int s = 0; s < num_shards; ++s) {
        const ConditionalCuckooFilter& live = sharded->shard(s);
        CCF_ASSIGN_OR_RETURN(
            std::unique_ptr<ConditionalCuckooFilter> scratch,
            ConditionalCuckooFilter::Make(params.variant, live.config()));
        CCF_RETURN_NOT_OK(scratch->InsertBatch(
            shard_keys[static_cast<size_t>(s)],
            shard_attrs[static_cast<size_t>(s)]));
        if (scratch->Serialize() != live.Serialize()) {
          return Status::Internal(
              "live CRUD differential for table '" + table.spec.name +
              "': shard " + std::to_string(s) +
              " diverges from a from-scratch build of its surviving rows");
        }
      }
    }
    built.rebuilds = static_cast<int>(sharded->num_resizes());
    built.compactions = static_cast<int>(sharded->num_compactions());
    built.filter = std::move(sharded);
    return built;
  }

  // The hash memo carries each row's salt-keyed key hash across doubling
  // rebuilds: attempt 0 fills it during the batched address pass, and every
  // retry re-masks the cached hashes instead of re-hashing the table.
  Status last_error = Status::OK();
  auto build_from = [&](const SketchRows& from, CcfConfig geometry) {
    std::vector<uint64_t> hash_memo;
    for (int attempt = 0; attempt <= params.max_rebuilds; ++attempt) {
      CCF_ASSIGN_OR_RETURN(
          built.filter, ConditionalCuckooFilter::Make(params.variant,
                                                      geometry));
      last_error =
          built.filter->InsertBatch(from.keys, from.flat_attrs, &hash_memo);
      if (last_error.ok()) {
        built.rebuilds = attempt;
        return Status::OK();
      }
      geometry.num_buckets *= 2;  // §4.1's resize rule
    }
    return Status::CapacityError(
        "CCF for table '" + table.spec.name + "' failed after " +
        std::to_string(params.max_rebuilds) + " rebuilds: " +
        last_error.message());
  };
  CCF_RETURN_NOT_OK(build_from(rows, config));
  if (rows.num_dropped > 0 && params.variant == CcfVariant::kChained &&
      static_cast<const ChainedCcf&>(*built.filter).num_overflow_rows() > 0) {
    // Each dropped copy of a row that overflowed its chain would have been
    // counted once more: rebuild from every row to keep that count.
    CCF_ASSIGN_OR_RETURN(rows, ExtractRows(table, built.year_binner,
                                           /*drop_duplicates=*/false));
    CCF_RETURN_NOT_OK(build_from(rows, config));
  }
  return built;
}

Result<std::vector<BuiltCcf>> BuildAllCcfs(const ImdbDataset& dataset,
                                           const CcfBuildParams& params) {
  std::vector<BuiltCcf> out;
  out.reserve(dataset.tables.size());
  for (const TableData& table : dataset.tables) {
    CCF_ASSIGN_OR_RETURN(BuiltCcf built, BuildCcf(table, params));
    out.push_back(std::move(built));
  }
  return out;
}

}  // namespace ccf
