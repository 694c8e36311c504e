// End-to-end integration: generate data + workload, build CCFs, evaluate
// reduction factors, and cross-check every guarantee against brute force.
#include <gtest/gtest.h>

#include <unordered_set>

#include "join/ccf_builder.h"
#include "join/evaluator.h"
#include "join/semijoin.h"

namespace ccf {
namespace {

constexpr double kScale = 1.0 / 1024;

class JoinIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new ImdbDataset(GenerateImdb(kScale, 3).ValueOrDie());
    WorkloadConfig wc;
    wc.num_queries = 20;
    wc.num_year_range_queries = 14;
    queries_ = new std::vector<JoinQuery>(
        GenerateWorkload(*dataset_, wc).ValueOrDie());
    evaluator_ = new WorkloadEvaluator(
        WorkloadEvaluator::Make(dataset_, queries_).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete evaluator_;
    delete queries_;
    delete dataset_;
    evaluator_ = nullptr;
    queries_ = nullptr;
    dataset_ = nullptr;
  }

  static ImdbDataset* dataset_;
  static std::vector<JoinQuery>* queries_;
  static WorkloadEvaluator* evaluator_;
};

ImdbDataset* JoinIntegrationTest::dataset_ = nullptr;
std::vector<JoinQuery>* JoinIntegrationTest::queries_ = nullptr;
WorkloadEvaluator* JoinIntegrationTest::evaluator_ = nullptr;

TEST_F(JoinIntegrationTest, ExactCountsAreConsistent) {
  for (const InstanceExact& inst : evaluator_->exact()) {
    // Semijoin output ⊆ binned-semijoin output ⊆ predicate output.
    EXPECT_LE(inst.m_semijoin, inst.m_semijoin_binned) << inst.base_table;
    EXPECT_LE(inst.m_semijoin_binned, inst.m_predicate) << inst.base_table;
    EXPECT_GE(inst.num_joins, 1);
  }
}

TEST_F(JoinIntegrationTest, ExactSemijoinMatchesBruteForce) {
  // Re-derive one instance's numbers with straightforward scans.
  const JoinQuery& q = (*queries_)[0];
  auto binner = RangeBinner::Make(kYearLo, kYearHi, kYearBins).ValueOrDie();
  const TableData* base = dataset_->FindTable(q.tables[0]).ValueOrDie();
  auto mask =
      MatchMask(*base, q.PredicatesOn(q.tables[0]), YearMode::kExact, binner)
          .ValueOrDie();
  uint64_t m_pred = 0;
  for (char m : mask) m_pred += static_cast<uint64_t>(m);
  const InstanceExact& inst = evaluator_->exact()[0];
  EXPECT_EQ(inst.query_id, q.id);
  EXPECT_EQ(inst.base_table, q.tables[0]);
  EXPECT_EQ(inst.m_predicate, m_pred);
}

TEST_F(JoinIntegrationTest, CcfFilteredCountsBoundedByExactAndPredicate) {
  for (CcfVariant variant :
       {CcfVariant::kChained, CcfVariant::kBloom, CcfVariant::kMixed}) {
    CcfBuildParams params = SmallParams(variant);
    auto filters = BuildAllCcfs(*dataset_, params).ValueOrDie();
    CcfFilterSet set(&filters);
    auto results = evaluator_->Evaluate(set).ValueOrDie();
    ASSERT_EQ(results.size(), evaluator_->exact().size());
    for (const InstanceResult& r : results) {
      // No false negatives: CCF-filtered output ⊇ binned semijoin output.
      EXPECT_GE(r.m_filtered, r.exact.m_semijoin_binned)
          << CcfVariantName(variant) << " " << r.exact.base_table;
      // Never returns more than the locally filtered scan.
      EXPECT_LE(r.m_filtered, r.exact.m_predicate);
    }
  }
}

TEST_F(JoinIntegrationTest, CcfBeatsKeyOnlyCuckooBaseline) {
  CcfBuildParams params = LargeParams(CcfVariant::kChained);
  auto filters = BuildAllCcfs(*dataset_, params).ValueOrDie();
  CcfFilterSet ccf_set(&filters);
  auto cuckoo_set = CuckooFilterSet::Build(*dataset_, 12, 1).ValueOrDie();

  auto ccf_results = evaluator_->Evaluate(ccf_set).ValueOrDie();
  auto cuckoo_results = evaluator_->Evaluate(cuckoo_set).ValueOrDie();
  AggregateResult ccf_agg =
      WorkloadEvaluator::Aggregate(ccf_results, ccf_set.TotalSizeInBits());
  AggregateResult cuckoo_agg = WorkloadEvaluator::Aggregate(
      cuckoo_results, cuckoo_set.TotalSizeInBits());

  // The paper's headline: predicate-aware filters reduce far more.
  EXPECT_LT(ccf_agg.rf_filtered, cuckoo_agg.rf_filtered * 0.85);
  // And land near the optimal semijoin RF.
  EXPECT_LT(ccf_agg.rf_filtered, ccf_agg.rf_semijoin_binned + 0.12);
}

TEST_F(JoinIntegrationTest, CuckooBaselineStillBeatsNothing) {
  auto cuckoo_set = CuckooFilterSet::Build(*dataset_, 12, 1).ValueOrDie();
  auto results = evaluator_->Evaluate(cuckoo_set).ValueOrDie();
  AggregateResult agg =
      WorkloadEvaluator::Aggregate(results, cuckoo_set.TotalSizeInBits());
  EXPECT_LT(agg.rf_filtered, 1.0);  // semijoin keys do filter something
  EXPECT_GE(agg.rf_filtered, agg.rf_semijoin);
}

TEST_F(JoinIntegrationTest, AggregateFprSmallForLargeFilters) {
  CcfBuildParams params = LargeParams(CcfVariant::kChained);
  auto filters = BuildAllCcfs(*dataset_, params).ValueOrDie();
  CcfFilterSet set(&filters);
  auto results = evaluator_->Evaluate(set).ValueOrDie();
  AggregateResult agg =
      WorkloadEvaluator::Aggregate(results, set.TotalSizeInBits());
  // §10.6: large chained CCFs reached 0.8% FPR vs the binned semijoin.
  EXPECT_LT(agg.fpr_vs_binned, 0.08);
}

// Evaluate's batched gather/probe/count must equal the scalar definition:
// for every instance, the masked base rows whose key passes scalar
// FilterSet::Probe on every other table of the query.
void ExpectEvaluateMatchesRowByRow(const WorkloadEvaluator& evaluator,
                                   const ImdbDataset& dataset,
                                   const std::vector<JoinQuery>& queries,
                                   const FilterSet& filters,
                                   const std::string& label) {
  auto binner = RangeBinner::Make(kYearLo, kYearHi, kYearBins).ValueOrDie();
  auto results = evaluator.Evaluate(filters).ValueOrDie();
  size_t inst = 0;
  for (const JoinQuery& q : queries) {
    for (const std::string& base_name : q.tables) {
      ASSERT_LT(inst, results.size()) << label;
      const TableData* base = dataset.FindTable(base_name).ValueOrDie();
      auto mask = MatchMask(*base, q.PredicatesOn(base_name),
                            YearMode::kExact, binner)
                      .ValueOrDie();
      const std::vector<uint64_t>& keys =
          *base->table.column(base->spec.key_column).ValueOrDie();
      uint64_t expected = 0;
      for (size_t i = 0; i < keys.size(); ++i) {
        if (!mask[i]) continue;
        bool pass = true;
        for (const std::string& other : q.tables) {
          if (other == base_name) continue;
          if (!filters.Probe(other, keys[i], q.PredicatesOn(other))
                   .ValueOrDie()) {
            pass = false;
            break;
          }
        }
        expected += pass;
      }
      EXPECT_EQ(results[inst].exact.base_table, base_name) << label;
      EXPECT_EQ(results[inst].m_filtered, expected)
          << label << " query " << q.id << " base " << base_name;
      ++inst;
    }
  }
  EXPECT_EQ(inst, results.size()) << label;
}

TEST_F(JoinIntegrationTest, EvaluateMatchesRowByRowScalarProbes) {
  for (CcfVariant variant :
       {CcfVariant::kChained, CcfVariant::kMixed, CcfVariant::kBloom}) {
    auto filters = BuildAllCcfs(*dataset_, SmallParams(variant)).ValueOrDie();
    CcfFilterSet set(&filters);
    ExpectEvaluateMatchesRowByRow(*evaluator_, *dataset_, *queries_, set,
                                  std::string(CcfVariantName(variant)));
  }
  auto cuckoo_set = CuckooFilterSet::Build(*dataset_, 12, 1).ValueOrDie();
  ExpectEvaluateMatchesRowByRow(*evaluator_, *dataset_, *queries_, cuckoo_set,
                                "cuckoo");
}

TEST_F(JoinIntegrationTest, BuiltCcfCompilesRangePredicates) {
  CcfBuildParams params = SmallParams(CcfVariant::kChained);
  const TableData* title = dataset_->FindTable("title").ValueOrDie();
  BuiltCcf built = BuildCcf(*title, params).ValueOrDie();
  QueryPredicate range{"title", "production_year", true, 0, 1990, 2005};
  Predicate compiled =
      built.CompilePredicates({&range}).ValueOrDie();
  ASSERT_EQ(compiled.terms().size(), 1u);
  EXPECT_GT(compiled.terms()[0].values.size(), 0u);
  EXPECT_LT(compiled.terms()[0].values.size(), 17u);  // ≤ 16 bins
}

TEST_F(JoinIntegrationTest, PlainVariantFailsOnHeavyTailTable) {
  // §10.5: "none of these figures have results for Plain CCF filters as
  // they did not result in reasonably sized filters." movie_keyword's tail
  // exceeds any bucket pair.
  const TableData* mk = dataset_->FindTable("movie_keyword").ValueOrDie();
  CcfBuildParams params = SmallParams(CcfVariant::kPlain);
  params.max_rebuilds = 2;
  auto result = BuildCcf(*mk, params);
  EXPECT_FALSE(result.ok());
}

TEST_F(JoinIntegrationTest, FilterSizesAreReportedAndOrdered) {
  // Bloom CCFs store one entry per key → smallest; chained stores every
  // distinct row → larger (Figure 10's pattern on duplicate-heavy tables).
  auto bloom =
      BuildAllCcfs(*dataset_, SmallParams(CcfVariant::kBloom)).ValueOrDie();
  auto chained =
      BuildAllCcfs(*dataset_, SmallParams(CcfVariant::kChained)).ValueOrDie();
  CcfFilterSet bloom_set(&bloom);
  CcfFilterSet chained_set(&chained);
  EXPECT_GT(bloom_set.TotalSizeInBits(), 0u);
  // movie_keyword (9.48 avg dupes): Bloom must be much smaller.
  uint64_t bloom_mk = 0, chained_mk = 0;
  for (const auto& f : bloom) {
    if (f.source->spec.name == "movie_keyword") {
      bloom_mk = f.filter->SizeInBits();
    }
  }
  for (const auto& f : chained) {
    if (f.source->spec.name == "movie_keyword") {
      chained_mk = f.filter->SizeInBits();
    }
  }
  EXPECT_LT(bloom_mk, chained_mk);
}

}  // namespace
}  // namespace ccf
