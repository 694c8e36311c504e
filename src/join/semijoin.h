// Exact scan/semijoin machinery: evaluates query predicates directly on the
// column data (ground truth) and computes the surviving-key sets other
// tables contribute as semijoin reducers. This provides the "Exact Semijoin"
// baseline (the theoretically best possible reduction factor) and the
// "after binning" variant of Figure 7.
#ifndef CCF_JOIN_SEMIJOIN_H_
#define CCF_JOIN_SEMIJOIN_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "data/imdb_synth.h"
#include "data/workload.h"
#include "predicate/range_binning.h"
#include "util/result.h"

namespace ccf {

/// How production_year range predicates are evaluated.
enum class YearMode {
  kExact,   ///< true range semantics
  kBinned,  ///< §9.1 binning: match if the value's bin is in the cover
};

/// Row-level match mask of `preds` (all referencing `table`) against the
/// table's columns. Empty predicate list → all ones.
Result<std::vector<char>> MatchMask(
    const TableData& table, const std::vector<const QueryPredicate*>& preds,
    YearMode year_mode, const RangeBinner& year_binner);

/// Distinct join-key values of rows where `mask` is set. Fails as
/// CollectDistinctKeys does: on a wrong-length mask or a missing key column.
Result<std::unordered_set<uint64_t>> CollectSurvivingKeys(
    const TableData& table, const std::vector<char>& mask);

/// CollectSurvivingKeys with any error answered by an empty set: the form
/// perfbench's ground-truth audit calls, which always passes a MatchMask of
/// the table. Library code calls CollectSurvivingKeys.
std::unordered_set<uint64_t> SurvivingKeys(const TableData& table,
                                           const std::vector<char>& mask);

/// Distinct join keys of masked rows in first-appearance order, with the
/// number of masked rows that carry each key. This is the gather step of
/// the batched probe path: `keys` feeds FilterSet::ProbeBatch directly
/// (probe answers are a function of the key only, so each distinct key is
/// probed once), and `rows[id]` lets the caller count surviving rows from
/// the surviving key ids alone, with no second pass over the table.
///
/// `slots` is a flat open-addressing index over `keys`: a power-of-two
/// array of `id + 1` (0 = empty), placed by Fibonacci multiply-shift and
/// linear probing at load <= 1/2. Equality is checked through `keys[id]`,
/// so every uint64_t key value is valid.
struct DistinctKeys {
  std::vector<uint64_t> keys;
  std::vector<uint32_t> rows;   ///< rows[id]: masked rows with keys[id]
  std::vector<uint32_t> slots;  ///< id + 1 per slot, 0 = empty
  int shift = 64;               ///< 64 - log2(slots.size())

  /// Position of `key` in `keys`, or -1 when no masked row carries it.
  int64_t Find(uint64_t key) const;
};

/// Fails with Invalid when `mask` is not one byte per key-column row or
/// the table has 2^32 rows or more (ids are 32-bit).
Result<DistinctKeys> CollectDistinctKeys(const TableData& table,
                                         const std::vector<char>& mask);

/// Exact per-instance counts for one (query, base-table) pair.
struct InstanceExact {
  int query_id = 0;
  std::string base_table;
  int num_joins = 0;          ///< number of other tables semijoined
  uint64_t m_predicate = 0;   ///< base rows matching local predicates
  uint64_t m_semijoin = 0;    ///< + exact semijoin against all other tables
  uint64_t m_semijoin_binned = 0;  ///< semijoin with binned year semantics

  double RfSemijoin() const {
    return m_predicate == 0 ? 0.0
                            : static_cast<double>(m_semijoin) /
                                  static_cast<double>(m_predicate);
  }
  double RfSemijoinBinned() const {
    return m_predicate == 0 ? 0.0
                            : static_cast<double>(m_semijoin_binned) /
                                  static_cast<double>(m_predicate);
  }
};

/// Computes exact counts for every (query, base-table) instance of the
/// workload. The base table's own predicates always use exact semantics
/// (§10.3: binning is omitted when scanning title directly); other tables'
/// year predicates use exact or binned semantics for the two baselines.
Result<std::vector<InstanceExact>> ComputeExactCounts(
    const ImdbDataset& dataset, const std::vector<JoinQuery>& queries,
    const RangeBinner& year_binner);

}  // namespace ccf

#endif  // CCF_JOIN_SEMIJOIN_H_
