// Property tests sweeping every CCF variant across geometries, fingerprint
// widths, and duplicate profiles (parameterized gtest). The central
// invariant is Theorem 3: NO FALSE NEGATIVES, ever.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "ccf/ccf.h"
#include "util/random.h"

namespace ccf {
namespace {

struct PropertyCase {
  CcfVariant variant;
  int attr_fp_bits;
  int num_attrs;
  int max_dupes;
  int avg_dupes;  // average duplicates per key in the workload
};

std::string CaseName(const ::testing::TestParamInfo<PropertyCase>& info) {
  const PropertyCase& p = info.param;
  std::string name(CcfVariantName(p.variant));
  name += "_a" + std::to_string(p.attr_fp_bits);
  name += "_n" + std::to_string(p.num_attrs);
  name += "_d" + std::to_string(p.max_dupes);
  name += "_dup" + std::to_string(p.avg_dupes);
  return name;
}

class CcfPropertyTest : public ::testing::TestWithParam<PropertyCase> {
 protected:
  std::unique_ptr<ConditionalCuckooFilter> MakeFilter(uint64_t buckets,
                                                      uint64_t salt) {
    const PropertyCase& p = GetParam();
    CcfConfig c;
    c.num_buckets = buckets;
    c.slots_per_bucket = p.variant == CcfVariant::kBloom ? 4 : 6;
    c.key_fp_bits = 12;
    c.attr_fp_bits = p.attr_fp_bits;
    c.num_attrs = p.num_attrs;
    c.max_dupes = p.max_dupes;
    c.bloom_bits = 16;
    c.salt = salt;
    return ConditionalCuckooFilter::Make(p.variant, c).ValueOrDie();
  }

  // A row workload with the requested duplication level. Returns (key,
  // attrs) rows.
  std::vector<std::pair<uint64_t, std::vector<uint64_t>>> MakeRows(
      int n, uint64_t seed) {
    const PropertyCase& p = GetParam();
    Rng rng(seed);
    std::vector<std::pair<uint64_t, std::vector<uint64_t>>> rows;
    uint64_t key_space =
        std::max<uint64_t>(1, static_cast<uint64_t>(n) /
                                  static_cast<uint64_t>(p.avg_dupes));
    for (int i = 0; i < n; ++i) {
      uint64_t key = rng.NextBelow(key_space);
      std::vector<uint64_t> attrs(static_cast<size_t>(p.num_attrs));
      for (auto& a : attrs) a = rng.NextBelow(500);
      rows.emplace_back(key, std::move(attrs));
    }
    return rows;
  }
};

TEST_P(CcfPropertyTest, NoFalseNegativesOnRowQueries) {
  auto ccf = MakeFilter(2048, 1);
  auto rows = MakeRows(4000, 101);
  size_t accepted = 0;
  for (const auto& [key, attrs] : rows) {
    Status st = ccf->Insert(key, attrs);
    if (!st.ok()) break;  // Plain may legitimately fill up
    ++accepted;
  }
  ASSERT_GT(accepted, 100u);
  for (size_t i = 0; i < accepted; ++i) {
    const auto& [key, attrs] = rows[i];
    ASSERT_TRUE(ccf->ContainsRow(key, attrs))
        << CcfVariantName(GetParam().variant) << " row " << i;
    ASSERT_TRUE(ccf->ContainsKey(key));
  }
}

TEST_P(CcfPropertyTest, SingleTermQueriesNeverMissInsertedValues) {
  auto ccf = MakeFilter(2048, 2);
  auto rows = MakeRows(3000, 202);
  size_t accepted = 0;
  for (const auto& [key, attrs] : rows) {
    if (!ccf->Insert(key, attrs).ok()) break;
    ++accepted;
  }
  for (size_t i = 0; i < accepted; ++i) {
    const auto& [key, attrs] = rows[i];
    for (size_t a = 0; a < attrs.size(); ++a) {
      ASSERT_TRUE(ccf->Contains(
          key, Predicate::Equals(static_cast<int>(a), attrs[a])))
          << "row " << i << " attr " << a;
    }
  }
}

TEST_P(CcfPropertyTest, AbsentKeysRarelyAccepted) {
  auto ccf = MakeFilter(2048, 3);
  auto rows = MakeRows(3000, 303);
  for (const auto& [key, attrs] : rows) {
    if (!ccf->Insert(key, attrs).ok()) break;
  }
  int fp = 0;
  constexpr int kProbes = 20000;
  for (int i = 0; i < kProbes; ++i) {
    if (ccf->ContainsKey(1'000'000 + static_cast<uint64_t>(i))) ++fp;
  }
  // 12-bit fingerprints: comfortably below 2%.
  EXPECT_LT(static_cast<double>(fp) / kProbes, 0.02);
}

TEST_P(CcfPropertyTest, DeterministicAcrossIdenticalBuilds) {
  auto a = MakeFilter(1024, 7);
  auto b = MakeFilter(1024, 7);
  auto rows = MakeRows(1500, 404);
  for (const auto& [key, attrs] : rows) {
    Status sa = a->Insert(key, attrs);
    Status sb = b->Insert(key, attrs);
    ASSERT_EQ(sa.ok(), sb.ok());
    if (!sa.ok()) break;
  }
  // Same salt + same input ⇒ identical answers on arbitrary probes.
  Rng rng(55);
  for (int i = 0; i < 3000; ++i) {
    uint64_t key = rng.NextBelow(3000);
    Predicate p = Predicate::Equals(0, rng.NextBelow(600));
    ASSERT_EQ(a->Contains(key, p), b->Contains(key, p));
  }
}

TEST_P(CcfPropertyTest, EmptyPredicateEquivalentToKeyQuery) {
  auto ccf = MakeFilter(1024, 9);
  auto rows = MakeRows(1200, 505);
  for (const auto& [key, attrs] : rows) {
    if (!ccf->Insert(key, attrs).ok()) break;
  }
  Rng rng(66);
  for (int i = 0; i < 2000; ++i) {
    uint64_t key = rng.NextBelow(2000);
    ASSERT_EQ(ccf->ContainsKey(key), ccf->Contains(key, Predicate()));
  }
}

TEST_P(CcfPropertyTest, SizeInBitsConstantUnderInsertions) {
  auto ccf = MakeFilter(512, 4);
  uint64_t size0 = ccf->SizeInBits();
  auto rows = MakeRows(500, 606);
  for (const auto& [key, attrs] : rows) {
    if (!ccf->Insert(key, attrs).ok()) break;
  }
  EXPECT_EQ(ccf->SizeInBits(), size0);  // fixed-size sketch
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, CcfPropertyTest,
    ::testing::Values(
        // variant, attr_fp_bits, num_attrs, max_dupes, avg_dupes
        PropertyCase{CcfVariant::kChained, 4, 1, 3, 1},
        PropertyCase{CcfVariant::kChained, 8, 1, 3, 8},
        PropertyCase{CcfVariant::kChained, 8, 2, 3, 4},
        PropertyCase{CcfVariant::kChained, 4, 3, 2, 6},
        PropertyCase{CcfVariant::kChained, 8, 1, 5, 12},
        PropertyCase{CcfVariant::kMixed, 4, 1, 3, 1},
        PropertyCase{CcfVariant::kMixed, 8, 1, 3, 8},
        PropertyCase{CcfVariant::kMixed, 8, 2, 3, 4},
        PropertyCase{CcfVariant::kMixed, 4, 2, 2, 10},
        PropertyCase{CcfVariant::kBloom, 8, 1, 3, 1},
        PropertyCase{CcfVariant::kBloom, 8, 2, 3, 6},
        PropertyCase{CcfVariant::kBloom, 4, 3, 3, 10},
        PropertyCase{CcfVariant::kPlain, 8, 1, 3, 1},
        PropertyCase{CcfVariant::kPlain, 4, 2, 3, 2}),
    CaseName);

// num_rows() on exact duplicates: (7,{3,4}) twice and (7,{5,6}) once.
// Plain, Chained and Mixed see the repeat's identical entry and count it
// once; Bloom ORs every row into the key's sketch, which cannot tell an
// exact duplicate from a new vector, so it counts every row it absorbs.
class CcfRowCountTest : public ::testing::TestWithParam<CcfVariant> {};

TEST_P(CcfRowCountTest, ExactDuplicatesCountOnceExceptOnBloom) {
  CcfConfig c;
  c.num_buckets = 64;
  c.slots_per_bucket = 4;
  c.key_fp_bits = 12;
  c.attr_fp_bits = 8;
  c.num_attrs = 2;
  c.max_dupes = 3;
  c.bloom_bits = 16;
  c.salt = 5;
  auto ccf = ConditionalCuckooFilter::Make(GetParam(), c).ValueOrDie();
  ASSERT_TRUE(ccf->Insert(7, std::vector<uint64_t>{3, 4}).ok());
  ASSERT_TRUE(ccf->Insert(7, std::vector<uint64_t>{3, 4}).ok());
  ASSERT_TRUE(ccf->Insert(7, std::vector<uint64_t>{5, 6}).ok());
  EXPECT_EQ(ccf->num_rows(), GetParam() == CcfVariant::kBloom ? 3u : 2u);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, CcfRowCountTest,
    ::testing::Values(CcfVariant::kPlain, CcfVariant::kChained,
                      CcfVariant::kBloom, CcfVariant::kMixed),
    [](const ::testing::TestParamInfo<CcfVariant>& info) {
      return std::string(CcfVariantName(info.param));
    });

}  // namespace
}  // namespace ccf
