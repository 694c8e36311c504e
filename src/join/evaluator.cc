#include "join/evaluator.h"

#include <algorithm>
#include <memory>
#include <numeric>

namespace ccf {

// --- FilterSet ---------------------------------------------------------------

Status FilterSet::ProbeBatch(const std::string& table,
                             std::span<const uint64_t> keys,
                             const std::vector<const QueryPredicate*>& preds,
                             std::span<bool> out) const {
  if (out.size() != keys.size()) {
    return Status::Invalid("ProbeBatch: out.size() must equal keys.size()");
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    CCF_ASSIGN_OR_RETURN(bool ok, Probe(table, keys[i], preds));
    out[i] = ok;
  }
  return Status::OK();
}

// --- CcfFilterSet ------------------------------------------------------------

Result<const BuiltCcf*> CcfFilterSet::Find(const std::string& table) const {
  for (const BuiltCcf& f : *filters_) {
    if (f.source->spec.name == table) return &f;
  }
  return Status::KeyNotFound("no CCF for table '" + table + "'");
}

Result<bool> CcfFilterSet::Probe(
    const std::string& table, uint64_t key,
    const std::vector<const QueryPredicate*>& preds) const {
  CCF_ASSIGN_OR_RETURN(const BuiltCcf* ccf, Find(table));
  if (preds.empty()) return ccf->filter->ContainsKey(key);
  CCF_ASSIGN_OR_RETURN(Predicate pred, ccf->CompilePredicates(preds));
  return ccf->filter->Contains(key, pred);
}

Status CcfFilterSet::ProbeBatch(
    const std::string& table, std::span<const uint64_t> keys,
    const std::vector<const QueryPredicate*>& preds,
    std::span<bool> out) const {
  CCF_ASSIGN_OR_RETURN(const BuiltCcf* ccf, Find(table));
  return ccf->ProbeKeys(keys, preds, out);
}

uint64_t CcfFilterSet::TotalSizeInBits() const {
  uint64_t bits = 0;
  for (const BuiltCcf& f : *filters_) bits += f.filter->SizeInBits();
  return bits;
}

// --- CuckooFilterSet ---------------------------------------------------------

Result<CuckooFilterSet> CuckooFilterSet::Build(const ImdbDataset& dataset,
                                               int fingerprint_bits,
                                               uint64_t salt) {
  CuckooFilterSet set;
  for (const TableData& td : dataset.tables) {
    CCF_ASSIGN_OR_RETURN(
        DistinctKeys distinct,
        CollectDistinctKeys(td, std::vector<char>(td.table.num_rows(), 1)));

    CuckooFilterConfig config;
    config.fingerprint_bits = fingerprint_bits;
    config.slots_per_bucket = 4;
    config.salt = salt;
    CCF_ASSIGN_OR_RETURN(
        CuckooFilter filter,
        CuckooFilter::MakeForCapacity(distinct.keys.size(), config, 0.95));
    for (uint64_t k : distinct.keys) {
      Status st = filter.Insert(k);
      if (!st.ok()) {
        // Resize once; distinct key sets at 95% target occasionally spill.
        config.num_buckets = filter.config().num_buckets * 2;
        CCF_ASSIGN_OR_RETURN(filter, CuckooFilter::Make(config));
        for (uint64_t k2 : distinct.keys) {
          CCF_RETURN_NOT_OK(filter.Insert(k2));
        }
        break;
      }
    }
    set.names_.push_back(td.spec.name);
    set.filters_.push_back(std::move(filter));
  }
  return set;
}

Result<const CuckooFilter*> CuckooFilterSet::Find(
    const std::string& table) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == table) return &filters_[i];
  }
  return Status::KeyNotFound("no cuckoo filter for table '" + table + "'");
}

Result<bool> CuckooFilterSet::Probe(
    const std::string& table, uint64_t key,
    const std::vector<const QueryPredicate*>& preds) const {
  (void)preds;  // key-only baseline throws away predicate information
  CCF_ASSIGN_OR_RETURN(const CuckooFilter* filter, Find(table));
  return filter->Contains(key);
}

Status CuckooFilterSet::ProbeBatch(
    const std::string& table, std::span<const uint64_t> keys,
    const std::vector<const QueryPredicate*>& preds,
    std::span<bool> out) const {
  (void)preds;
  if (out.size() != keys.size()) {
    return Status::Invalid("ProbeBatch: out.size() must equal keys.size()");
  }
  CCF_ASSIGN_OR_RETURN(const CuckooFilter* filter, Find(table));
  filter->ContainsBatch(keys, out);
  return Status::OK();
}

uint64_t CuckooFilterSet::TotalSizeInBits() const {
  uint64_t bits = 0;
  for (const CuckooFilter& f : filters_) bits += f.SizeInBits();
  return bits;
}

// --- WorkloadEvaluator -------------------------------------------------------

WorkloadEvaluator::WorkloadEvaluator(const ImdbDataset* dataset,
                                     const std::vector<JoinQuery>* queries,
                                     std::vector<InstanceExact> exact,
                                     RangeBinner binner)
    : dataset_(dataset),
      queries_(queries),
      exact_(std::move(exact)),
      year_binner_(binner) {}

Result<WorkloadEvaluator> WorkloadEvaluator::Make(
    const ImdbDataset* dataset, const std::vector<JoinQuery>* queries) {
  CCF_ASSIGN_OR_RETURN(RangeBinner binner,
                       RangeBinner::Make(kYearLo, kYearHi, kYearBins));
  CCF_ASSIGN_OR_RETURN(std::vector<InstanceExact> exact,
                       ComputeExactCounts(*dataset, *queries, binner));
  return WorkloadEvaluator(dataset, queries, std::move(exact), binner);
}

Result<std::vector<InstanceResult>> WorkloadEvaluator::Evaluate(
    const FilterSet& filters) const {
  std::vector<InstanceResult> results;
  results.reserve(exact_.size());
  size_t inst = 0;
  for (const JoinQuery& query : *queries_) {
    // Preload member tables and their predicates.
    std::vector<const TableData*> tables;
    std::vector<std::vector<const QueryPredicate*>> preds;
    for (const std::string& name : query.tables) {
      CCF_ASSIGN_OR_RETURN(const TableData* td, dataset_->FindTable(name));
      tables.push_back(td);
      preds.push_back(query.PredicatesOn(name));
    }

    for (size_t b = 0; b < tables.size(); ++b) {
      const TableData& base = *tables[b];
      CCF_DCHECK(inst < exact_.size() &&
                 exact_[inst].base_table == base.spec.name);
      InstanceResult result;
      result.exact = exact_[inst];

      CCF_ASSIGN_OR_RETURN(
          std::vector<char> mask,
          MatchMask(base, preds[b], YearMode::kExact, year_binner_));
      // Probe answers are a function of the key only (per other table), so
      // gather the distinct surviving keys once and push them through the
      // batched probe hot path of every other table's filter. Keys that
      // fail a filter are compacted out before the next table (the batch
      // analogue of the scalar path's early exit), so a selective first
      // filter shrinks every later probe batch. The gather also counts the
      // masked rows of each key, so the surviving row count is a sum over
      // the surviving key ids: identical answers to probing row by row,
      // minus the repeated hashing, predicate compilation, cache misses and
      // second table scan.
      CCF_ASSIGN_OR_RETURN(DistinctKeys distinct,
                           CollectDistinctKeys(base, mask));
      size_t num_keys = distinct.keys.size();
      // Only distinct.rows is read after this point; take the key vector.
      std::vector<uint64_t> alive_keys = std::move(distinct.keys);
      std::vector<uint32_t> alive_pos(num_keys);
      std::iota(alive_pos.begin(), alive_pos.end(), uint32_t{0});
      std::unique_ptr<bool[]> probe(new bool[num_keys]);
      for (size_t t = 0; t < tables.size() && !alive_keys.empty(); ++t) {
        if (t == b) continue;
        CCF_RETURN_NOT_OK(filters.ProbeBatch(
            tables[t]->spec.name, alive_keys, preds[t],
            std::span<bool>(probe.get(), alive_keys.size())));
        size_t kept = 0;
        for (size_t k = 0; k < alive_keys.size(); ++k) {
          if (!probe[k]) continue;
          alive_keys[kept] = alive_keys[k];
          alive_pos[kept] = alive_pos[k];
          ++kept;
        }
        alive_keys.resize(kept);
        alive_pos.resize(kept);
      }
      for (uint32_t pos : alive_pos) result.m_filtered += distinct.rows[pos];
      results.push_back(std::move(result));
      ++inst;
    }
  }
  return results;
}

AggregateResult WorkloadEvaluator::Aggregate(
    const std::vector<InstanceResult>& results, uint64_t filter_size_bits) {
  AggregateResult agg;
  agg.total_size_bits = filter_size_bits;
  double sum_pred = 0, sum_semi = 0, sum_binned = 0, sum_filt = 0;
  for (const InstanceResult& r : results) {
    sum_pred += static_cast<double>(r.exact.m_predicate);
    sum_semi += static_cast<double>(r.exact.m_semijoin);
    sum_binned += static_cast<double>(r.exact.m_semijoin_binned);
    sum_filt += static_cast<double>(r.m_filtered);
  }
  if (sum_pred > 0) {
    agg.rf_filtered = sum_filt / sum_pred;
    agg.rf_semijoin = sum_semi / sum_pred;
    agg.rf_semijoin_binned = sum_binned / sum_pred;
  }
  double neg_binned = sum_pred - sum_binned;
  double neg_exact = sum_pred - sum_semi;
  if (neg_binned > 0) {
    agg.fpr_vs_binned = std::max(0.0, (sum_filt - sum_binned) / neg_binned);
  }
  if (neg_exact > 0) {
    agg.fpr_vs_exact = std::max(0.0, (sum_filt - sum_semi) / neg_exact);
  }
  return agg;
}

}  // namespace ccf
