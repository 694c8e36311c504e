// Tests for the §9 extension features: dyadic range CCFs, two-stage
// attribute compression, and the per-value strawman.
#include <gtest/gtest.h>

#include <vector>

#include "ccf/compressed_ccf.h"
#include "ccf/per_value_filters.h"
#include "ccf/range_ccf.h"
#include "util/random.h"

namespace ccf {
namespace {

CcfConfig BaseConfig() {
  CcfConfig c;
  c.num_buckets = 2048;
  c.slots_per_bucket = 6;
  c.key_fp_bits = 12;
  c.attr_fp_bits = 8;
  c.num_attrs = 2;
  c.max_dupes = 3;
  c.salt = 3;
  return c;
}

TEST(RangeCcfTest, RejectsBadParameters) {
  CcfConfig c = BaseConfig();
  EXPECT_FALSE(RangeCcf::Make(CcfVariant::kChained, c, 5, 10).ok());
  EXPECT_FALSE(RangeCcf::Make(CcfVariant::kChained, c, -1, 10).ok());
  EXPECT_FALSE(RangeCcf::Make(CcfVariant::kChained, c, 0, 60).ok());
}

TEST(RangeCcfTest, NoFalseNegativesOnRangeQueries) {
  CcfConfig c = BaseConfig();
  c.num_buckets = 4096;  // η insertions per row need headroom
  auto range_ccf =
      RangeCcf::Make(CcfVariant::kChained, c, /*range_attr=*/1,
                     /*max_level=*/10)
          .ValueOrDie();
  Rng rng(9);
  std::vector<std::pair<uint64_t, uint64_t>> rows;  // (key, range value)
  for (int i = 0; i < 400; ++i) {
    uint64_t key = rng.NextBelow(300);
    uint64_t value = rng.NextBelow(1024);
    std::vector<uint64_t> attrs = {key % 7, value};
    ASSERT_TRUE(range_ccf->Insert(key, attrs).ok());
    rows.emplace_back(key, value);
  }
  // Every inserted row must match any range containing its value.
  for (const auto& [key, value] : rows) {
    ASSERT_TRUE(range_ccf->ContainsInRange(key, value, value));
    ASSERT_TRUE(range_ccf->ContainsInRange(
        key, value - std::min<uint64_t>(value, 50), value + 50));
    ASSERT_TRUE(range_ccf->ContainsInRange(key, 0, 1023));
  }
}

TEST(RangeCcfTest, DisjointRangesUsuallyRejected) {
  CcfConfig c = BaseConfig();
  c.num_buckets = 4096;
  auto range_ccf =
      RangeCcf::Make(CcfVariant::kChained, c, 1, 10).ValueOrDie();
  // All values in [0, 99].
  for (uint64_t key = 0; key < 300; ++key) {
    std::vector<uint64_t> attrs = {key % 7, key % 100};
    ASSERT_TRUE(range_ccf->Insert(key, attrs).ok());
  }
  // Queries over [512, 1023]: no true matches.
  int fp = 0;
  for (uint64_t key = 0; key < 300; ++key) {
    if (range_ccf->ContainsInRange(key, 512, 1023)) ++fp;
  }
  EXPECT_LT(fp, 60);  // dyadic labels hash; some collisions allowed
}

TEST(RangeCcfTest, RangePlusEqualityConjunction) {
  CcfConfig c = BaseConfig();
  c.num_buckets = 4096;
  // Dyadic labels always hash (they exceed the small-value range), so use
  // wide attribute fingerprints to keep per-query collision odds ≈ η·|cover|
  // / 2^12 < 1%.
  c.attr_fp_bits = 12;
  auto range_ccf =
      RangeCcf::Make(CcfVariant::kChained, c, 1, 10).ValueOrDie();
  std::vector<uint64_t> attrs = {5, 700};
  ASSERT_TRUE(range_ccf->Insert(42, attrs).ok());
  EXPECT_TRUE(range_ccf->ContainsInRange(42, 600, 800, Predicate::Equals(0, 5)));
  EXPECT_FALSE(
      range_ccf->ContainsInRange(42, 600, 800, Predicate::Equals(0, 6)));
  EXPECT_FALSE(
      range_ccf->ContainsInRange(42, 0, 100, Predicate::Equals(0, 5)));
  EXPECT_TRUE(range_ccf->ContainsRow(42, attrs));
}

TEST(RangeCcfTest, SizeGrowsWithEta) {
  // η insertions per row: the inner filter holds ~η× more entries.
  CcfConfig c = BaseConfig();
  c.num_buckets = 8192;
  auto range_ccf = RangeCcf::Make(CcfVariant::kChained, c, 1, 7).ValueOrDie();
  for (uint64_t key = 0; key < 100; ++key) {
    std::vector<uint64_t> attrs = {1, key};
    ASSERT_TRUE(range_ccf->Insert(key, attrs).ok());
  }
  // 8 labels per row; a few merge via 8-bit fingerprint collisions within
  // a key, so expect close to (not exactly) 800 entries.
  EXPECT_GE(range_ccf->inner().num_entries(), 100u * 7);
}

// --- CompressedCcf ----------------------------------------------------------

TEST(CompressedCcfTest, RejectsBadWidths) {
  CcfConfig c = BaseConfig();
  std::vector<uint64_t> keys = {1};
  std::vector<std::vector<uint64_t>> attrs = {{1, 2}};
  EXPECT_FALSE(CompressedCcf::Build(CcfVariant::kChained, c, /*wide=*/8,
                                    keys, attrs)
                   .ok());  // wide == narrow
  EXPECT_FALSE(
      CompressedCcf::Build(CcfVariant::kChained, c, 40, keys, attrs).ok());
}

TEST(CompressedCcfTest, NoFalseNegativesAfterCompression) {
  CcfConfig c = BaseConfig();
  Rng rng(8);
  std::vector<uint64_t> keys;
  std::vector<std::vector<uint64_t>> attrs;
  for (int i = 0; i < 2000; ++i) {
    keys.push_back(rng.NextBelow(500));
    attrs.push_back({rng.NextBelow(100000), rng.NextBelow(100000)});
  }
  auto compressed =
      CompressedCcf::Build(CcfVariant::kChained, c, /*wide_bits=*/16, keys,
                           attrs)
          .ValueOrDie();
  for (size_t i = 0; i < keys.size(); ++i) {
    Predicate pred = Predicate::Equals(0, attrs[i][0])
                         .AndEquals(1, attrs[i][1]);
    ASSERT_TRUE(compressed.Contains(keys[i], pred)) << i;
    ASSERT_TRUE(compressed.ContainsKey(keys[i]));
  }
}

TEST(CompressedCcfTest, FrequencyGreedyBeatsDirectHashOnSkewedColumns) {
  // A heavily skewed column: two hot values plus a long tail. Compression
  // gives the hot values exclusive codes; direct 4-bit hashing collides
  // them with the tail at random.
  CcfConfig c = BaseConfig();
  c.attr_fp_bits = 4;
  c.num_attrs = 1;
  Rng rng(12);
  std::vector<uint64_t> keys;
  std::vector<std::vector<uint64_t>> attrs;
  for (int i = 0; i < 3000; ++i) {
    keys.push_back(static_cast<uint64_t>(i));
    uint64_t v = i % 2 == 0
                     ? 111111
                     : (i % 4 == 1 ? 222222 : 300000 + rng.NextBelow(64));
    attrs.push_back({v});
  }
  auto compressed =
      CompressedCcf::Build(CcfVariant::kChained, c, 16, keys, attrs)
          .ValueOrDie();
  // Hot-value queries on keys holding the OTHER hot value must not match:
  // the two hot values have distinct codes by construction.
  int cross_fp = 0;
  for (int i = 0; i < 3000; i += 2) {  // keys with 111111
    if (compressed.Contains(static_cast<uint64_t>(i),
                            Predicate::Equals(0, 222222))) {
      ++cross_fp;
    }
  }
  EXPECT_EQ(cross_fp, 0);
  EXPECT_LT(compressed.added_collisions(0), 0.2);
}

// --- PerValueFilterBank ------------------------------------------------------

TEST(PerValueFilterBankTest, AnswersMatchGroundTruth) {
  Rng rng(3);
  std::vector<uint64_t> keys;
  std::vector<std::vector<uint64_t>> attrs;
  for (int i = 0; i < 2000; ++i) {
    keys.push_back(rng.NextBelow(400));
    attrs.push_back({rng.NextBelow(10), rng.NextBelow(5)});
  }
  auto bank = PerValueFilterBank::Build(2, 12, keys, attrs).ValueOrDie();
  // No false negatives on per-column predicates.
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(*bank.Contains(keys[i], Predicate::Equals(0, attrs[i][0])));
    ASSERT_TRUE(*bank.Contains(
        keys[i],
        Predicate::Equals(0, attrs[i][0]).AndEquals(1, attrs[i][1])));
  }
  // Unseen value → empty set.
  EXPECT_FALSE(*bank.Contains(keys[0], Predicate::Equals(0, 99999)));
}

TEST(PerValueFilterBankTest, SizeExplodesWithCardinality) {
  // The §5 motivation: per-value filters grow with Σ cardinalities while a
  // CCF's size is independent of them.
  Rng rng(4);
  std::vector<uint64_t> keys;
  std::vector<std::vector<uint64_t>> low_card, high_card;
  for (int i = 0; i < 3000; ++i) {
    keys.push_back(static_cast<uint64_t>(i));
    low_card.push_back({rng.NextBelow(4)});
    high_card.push_back({rng.NextBelow(1000)});
  }
  auto low = PerValueFilterBank::Build(1, 12, keys, low_card).ValueOrDie();
  auto high = PerValueFilterBank::Build(1, 12, keys, high_card).ValueOrDie();
  EXPECT_EQ(low.num_filters(), 4u);
  EXPECT_GT(high.num_filters(), 900u);
  // The filter COUNT explodes with cardinality (and multiplicatively with
  // column combinations, §5); per-filter overheads make the total larger
  // even though each filter is tiny.
  EXPECT_GT(high.SizeInBits(), low.SizeInBits());
}

}  // namespace
}  // namespace ccf
