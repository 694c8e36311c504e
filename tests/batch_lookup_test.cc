// Differential tests for the batched query hot path: LookupBatch,
// ContainsKeyBatch, CuckooFilter::ContainsBatch, and
// KeyFilter::ContainsBatch must return bit-identical answers to their
// scalar counterparts for every variant — the prefetched two-pass structure
// is an optimization, never a semantic change.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ccf/ccf.h"
#include "cuckoo/cuckoo_filter.h"
#include "util/random.h"

namespace ccf {
namespace {

struct BuiltFixture {
  std::unique_ptr<ConditionalCuckooFilter> ccf;
  std::vector<uint64_t> probe_keys;
  std::vector<Predicate> probe_preds;
};

BuiltFixture BuildFixture(CcfVariant variant, uint64_t salt) {
  CcfConfig config;
  config.num_buckets = 4096;
  config.slots_per_bucket = 6;
  config.key_fp_bits = 12;
  config.attr_fp_bits = 8;
  config.num_attrs = 2;
  config.max_dupes = 3;
  config.salt = salt;

  BuiltFixture f;
  f.ccf = ConditionalCuckooFilter::Make(variant, config).ValueOrDie();
  Rng rng(salt + 1);
  for (int i = 0; i < 9000; ++i) {
    // Key space smaller than row count: plenty of duplicate keys, so the
    // chained walk / Bloom conversion / plain duplicate paths all engage.
    uint64_t key = rng.NextBelow(3000);
    std::vector<uint64_t> attrs = {rng.NextBelow(300), rng.NextBelow(40)};
    Status st = f.ccf->Insert(key, attrs);
    if (!st.ok()) break;
  }

  Rng probe_rng(salt + 2);
  for (int i = 0; i < 6000; ++i) {
    // Half in-range (mostly present), half far outside (absent).
    f.probe_keys.push_back(probe_rng.NextBelow(6000));
    if (i % 3 == 0) {
      f.probe_preds.push_back(Predicate::In(
          0, {probe_rng.NextBelow(300), probe_rng.NextBelow(300)}));
    } else {
      f.probe_preds.push_back(
          Predicate::Equals(0, probe_rng.NextBelow(300))
              .AndEquals(1, probe_rng.NextBelow(40)));
    }
  }
  return f;
}

class BatchLookupTest : public ::testing::TestWithParam<CcfVariant> {};

TEST_P(BatchLookupTest, PerKeyPredicatesMatchScalar) {
  BuiltFixture f = BuildFixture(GetParam(), 17);
  size_t n = f.probe_keys.size();
  std::vector<bool> got(n);
  // std::vector<bool> is packed; batch output needs contiguous bools.
  std::unique_ptr<bool[]> out(new bool[n]);
  ASSERT_TRUE(f.ccf->LookupBatch(f.probe_keys, f.probe_preds,
                                 std::span<bool>(out.get(), n))
                  .ok());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], f.ccf->Contains(f.probe_keys[i], f.probe_preds[i]))
        << "variant=" << f.ccf->name() << " i=" << i;
  }
}

TEST_P(BatchLookupTest, BroadcastPredicateMatchesScalar) {
  BuiltFixture f = BuildFixture(GetParam(), 23);
  size_t n = f.probe_keys.size();
  Predicate pred = Predicate::Equals(0, 7);
  std::unique_ptr<bool[]> out(new bool[n]);
  ASSERT_TRUE(f.ccf->LookupBatch(f.probe_keys,
                                 std::span<const Predicate>(&pred, 1),
                                 std::span<bool>(out.get(), n))
                  .ok());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], f.ccf->Contains(f.probe_keys[i], pred)) << "i=" << i;
  }
}

TEST_P(BatchLookupTest, ContainsKeyBatchMatchesScalar) {
  BuiltFixture f = BuildFixture(GetParam(), 31);
  size_t n = f.probe_keys.size();
  std::unique_ptr<bool[]> out(new bool[n]);
  f.ccf->ContainsKeyBatch(f.probe_keys, std::span<bool>(out.get(), n));
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], f.ccf->ContainsKey(f.probe_keys[i])) << "i=" << i;
  }
}

TEST_P(BatchLookupTest, NoFalseNegativesThroughBatchPath) {
  CcfConfig config;
  config.num_buckets = 2048;
  config.num_attrs = 1;
  config.salt = 5;
  auto ccf = ConditionalCuckooFilter::Make(GetParam(), config).ValueOrDie();
  Rng rng(9);
  std::vector<uint64_t> keys;
  std::vector<Predicate> preds;
  for (int i = 0; i < 3000; ++i) {
    uint64_t key = rng.NextBelow(1000);
    std::vector<uint64_t> attrs = {rng.NextBelow(100)};
    if (!ccf->Insert(key, attrs).ok()) break;
    keys.push_back(key);
    preds.push_back(Predicate::Equals(0, attrs[0]));
  }
  ASSERT_FALSE(keys.empty());
  std::unique_ptr<bool[]> out(new bool[keys.size()]);
  ASSERT_TRUE(
      ccf->LookupBatch(keys, preds, std::span<bool>(out.get(), keys.size()))
          .ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(out[i]) << "inserted row answered false (false negative)";
  }
}

TEST_P(BatchLookupTest, DerivedKeyFilterBatchMatchesScalar) {
  BuiltFixture f = BuildFixture(GetParam(), 41);
  Predicate pred = Predicate::Equals(0, 11);
  auto derived = f.ccf->PredicateQuery(pred).ValueOrDie();
  size_t n = f.probe_keys.size();
  std::unique_ptr<bool[]> out(new bool[n]);
  derived->ContainsBatch(f.probe_keys, std::span<bool>(out.get(), n));
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], derived->Contains(f.probe_keys[i])) << "i=" << i;
  }
}

TEST_P(BatchLookupTest, RejectsBadShapes) {
  BuiltFixture f = BuildFixture(GetParam(), 43);
  std::vector<uint64_t> keys = {1, 2, 3};
  std::vector<Predicate> two_preds = {Predicate::Equals(0, 1),
                                      Predicate::Equals(0, 2)};
  bool out[3];
  EXPECT_FALSE(
      f.ccf->LookupBatch(keys, two_preds, std::span<bool>(out, 3)).ok());
  std::vector<Predicate> one_pred = {Predicate::Equals(0, 1)};
  EXPECT_FALSE(
      f.ccf->LookupBatch(keys, one_pred, std::span<bool>(out, 2)).ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, BatchLookupTest,
    ::testing::Values(CcfVariant::kPlain, CcfVariant::kChained,
                      CcfVariant::kBloom, CcfVariant::kMixed),
    [](const ::testing::TestParamInfo<CcfVariant>& pinfo) {
      return std::string(CcfVariantName(pinfo.param));
    });

TEST(CuckooFilterBatchTest, ContainsBatchMatchesScalar) {
  CuckooFilterConfig config;
  config.num_buckets = 4096;
  config.fingerprint_bits = 12;
  config.salt = 3;
  auto filter = CuckooFilter::Make(config).ValueOrDie();
  for (uint64_t k = 0; k < 10000; ++k) {
    ASSERT_TRUE(filter.Insert(k * 3).ok());
  }
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 20000; ++k) keys.push_back(k);
  std::unique_ptr<bool[]> out(new bool[keys.size()]);
  filter.ContainsBatch(keys, std::span<bool>(out.get(), keys.size()));
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(out[i], filter.Contains(keys[i])) << "i=" << i;
  }
}

}  // namespace
}  // namespace ccf
