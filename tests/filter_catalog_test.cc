// FilterCatalog serving tier: alias-mode (zero-copy mmap) deserialization
// is bit-identical to copy mode on every variant, mutation after an
// alias load copy-on-writes and never touches the mapping, promote/evict
// churn under concurrent readers never produces a false negative,
// concurrent callers get byte-for-byte the answers of a single-threaded
// pass while the hot budget churns, and ShardedCcf's size/age auto-commit
// folds staged rows in the background.
#include "serve/filter_catalog.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ccf/ccf.h"
#include "ccf/sharded_ccf.h"
#include "util/file_io.h"
#include "util/random.h"
#include "util/serde.h"

namespace ccf {
namespace {

CcfConfig TestConfig(uint64_t salt) {
  CcfConfig config;
  config.num_buckets = 2048;
  config.slots_per_bucket = 6;
  config.key_fp_bits = 12;
  config.attr_fp_bits = 8;
  config.num_attrs = 2;
  config.max_dupes = 3;
  config.salt = salt;
  return config;
}

struct Rows {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> flat_attrs;  // row-major, 2 per key
};

Rows MakeRows(int n, uint64_t seed, uint64_t key_base = 0) {
  Rows rows;
  Rng rng(seed);
  int num_keys = n / 3;
  for (int i = 0; i < n; ++i) {
    rows.keys.push_back(key_base + static_cast<uint64_t>(i % num_keys));
    rows.flat_attrs.push_back(rng.NextBelow(200));
    rows.flat_attrs.push_back(rng.NextBelow(50));
  }
  return rows;
}

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir ? dir : "/tmp") + "/" + name;
}

std::unique_ptr<ConditionalCuckooFilter> BuildFilter(CcfVariant variant,
                                                     const Rows& rows,
                                                     uint64_t salt) {
  auto ccf =
      ConditionalCuckooFilter::Make(variant, TestConfig(salt)).ValueOrDie();
  ccf->InsertBatch(rows.keys, rows.flat_attrs).Abort();
  return ccf;
}

// Loads `path` through the catalog's zero-copy path: mmap + aliasing
// shared_ptr keepalive + alias-mode Deserialize.
std::unique_ptr<ConditionalCuckooFilter> AliasLoad(
    const std::string& path, std::shared_ptr<MappedFile>* mapping_out) {
  auto mapping =
      std::make_shared<MappedFile>(MmapFileBytes(path).ValueOrDie());
  AliasMapping alias{
      std::shared_ptr<const void>(mapping, mapping->view().data())};
  auto filter =
      ConditionalCuckooFilter::Deserialize(mapping->view(), alias)
          .ValueOrDie();
  if (mapping_out != nullptr) *mapping_out = mapping;
  return filter;
}

std::vector<bool> Probe(const ConditionalCuckooFilter& f,
                        const std::vector<uint64_t>& keys,
                        const Predicate& pred) {
  std::vector<bool> out;
  std::unique_ptr<bool[]> flat(new bool[keys.size()]());
  f.LookupBatch(keys, std::span<const Predicate>(&pred, 1),
                std::span<bool>(flat.get(), keys.size()))
      .Abort();
  out.assign(flat.get(), flat.get() + keys.size());
  return out;
}

class FilterCatalogAliasTest : public ::testing::TestWithParam<CcfVariant> {};

// The tentpole invariant: an alias-mode (zero-copy) load answers every
// query bit-identically to a copy-mode load, and re-serializes to the
// exact same bytes, on all four variants.
TEST_P(FilterCatalogAliasTest, AliasLoadBitIdenticalToCopyLoad) {
  Rows rows = MakeRows(6000, 7);
  auto built = BuildFilter(GetParam(), rows, 31);
  std::string blob = built->Serialize();
  std::string path =
      TempPath("ccf_alias_" + std::string(CcfVariantName(GetParam())) +
               ".bin");
  ASSERT_TRUE(WriteFileBytes(path, blob).ok());

  std::shared_ptr<MappedFile> mapping;
  auto aliased = AliasLoad(path, &mapping);
  auto copied = ConditionalCuckooFilter::Deserialize(blob).ValueOrDie();

  EXPECT_EQ(aliased->Serialize(), blob);
  EXPECT_EQ(copied->Serialize(), blob);

  std::vector<uint64_t> probes;
  Rng rng(11);
  for (int i = 0; i < 4000; ++i) probes.push_back(rng.NextBelow(4000));
  for (uint64_t a0 : {uint64_t{5}, uint64_t{100}, uint64_t{199}}) {
    Predicate pred = Predicate::Equals(0, a0);
    EXPECT_EQ(Probe(*aliased, probes, pred), Probe(*copied, probes, pred));
    EXPECT_EQ(Probe(*aliased, probes, pred), Probe(*built, probes, pred));
  }
  // No false negatives through the alias path.
  for (size_t i = 0; i < rows.keys.size(); i += 17) {
    EXPECT_TRUE(aliased->ContainsKey(rows.keys[i]));
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllVariants, FilterCatalogAliasTest,
                         ::testing::Values(CcfVariant::kPlain,
                                           CcfVariant::kChained,
                                           CcfVariant::kBloom,
                                           CcfVariant::kMixed));

TEST(FilterCatalogShardedAliasTest, ShardedAliasBitIdentical) {
  Rows rows = MakeRows(12000, 23);
  ShardedCcfOptions opts;
  opts.num_shards = 4;
  auto sharded =
      ShardedCcf::Make(CcfVariant::kChained, TestConfig(47), opts)
          .ValueOrDie();
  ASSERT_TRUE(sharded->InsertParallel(rows.keys, rows.flat_attrs).ok());
  std::string blob = sharded->Serialize();
  std::string path = TempPath("ccf_alias_sharded.bin");
  ASSERT_TRUE(WriteFileBytes(path, blob).ok());

  std::shared_ptr<MappedFile> mapping;
  auto aliased = AliasLoad(path, &mapping);
  auto copied = ConditionalCuckooFilter::Deserialize(blob).ValueOrDie();

  EXPECT_EQ(aliased->Serialize(), blob);
  std::vector<uint64_t> probes;
  Rng rng(3);
  for (int i = 0; i < 4000; ++i) probes.push_back(rng.NextBelow(8000));
  Predicate pred = Predicate::Equals(0, 42);
  EXPECT_EQ(Probe(*aliased, probes, pred), Probe(*copied, probes, pred));
  std::remove(path.c_str());
}

TEST(FilterCatalogCowTest, MutationAfterAliasLoadNeverTouchesMapping) {
  Rows rows = MakeRows(3000, 13);
  auto built = BuildFilter(CcfVariant::kChained, rows, 59);
  std::string blob = built->Serialize();
  std::string path = TempPath("ccf_alias_cow.bin");
  ASSERT_TRUE(WriteFileBytes(path, blob).ok());

  std::shared_ptr<MappedFile> mapping;
  auto aliased = AliasLoad(path, &mapping);

  // Mutate the alias-loaded filter: the write must copy-on-write into
  // owned memory, leaving every byte of the read-only mapping intact.
  Rows extra = MakeRows(900, 77, /*key_base=*/1 << 20);
  ASSERT_TRUE(aliased->InsertBatch(extra.keys, extra.flat_attrs).ok());

  EXPECT_EQ(mapping->view(), std::string_view(blob));
  // And the mutated filter serves both old and new rows.
  for (size_t i = 0; i < rows.keys.size(); i += 29) {
    EXPECT_TRUE(aliased->ContainsKey(rows.keys[i]));
  }
  for (size_t i = 0; i < extra.keys.size(); i += 29) {
    EXPECT_TRUE(aliased->ContainsKey(extra.keys[i]));
  }
  // The file itself is untouched: a fresh copy-load still matches the
  // original blob.
  EXPECT_EQ(ReadFileBytes(path).ValueOrDie(), blob);
  std::remove(path.c_str());
}

TEST(FilterCatalogChurnTest, PromoteEvictChurnHasNoFalseNegatives) {
  // 12 file-backed filters, hot budget ≈ 3 of them: the clock must churn
  // while 3 reader threads sweep every filter's full key set. Epoch
  // protection means no reader may ever miss a present key.
  constexpr int kFilters = 12;
  constexpr int kReaders = 3;
  std::vector<std::string> paths;
  std::vector<Rows> per_filter_rows;
  uint64_t filter_bytes = 0;
  for (int i = 0; i < kFilters; ++i) {
    Rows rows = MakeRows(3000, 100 + static_cast<uint64_t>(i),
                         static_cast<uint64_t>(i) << 32);
    auto built = BuildFilter(CcfVariant::kChained, rows, 7);
    filter_bytes = built->SizeInBits() / 8;
    std::string path =
        TempPath("ccf_churn_" + std::to_string(i) + ".bin");
    ASSERT_TRUE(WriteFileBytes(path, built->Serialize()).ok());
    paths.push_back(path);
    per_filter_rows.push_back(std::move(rows));
  }

  CatalogOptions options;
  options.hot_budget_bytes = 3 * filter_bytes;
  FilterCatalog catalog(options);
  for (int i = 0; i < kFilters; ++i) {
    ASSERT_TRUE(catalog.AddFile("f" + std::to_string(i), paths[i]).ok());
  }

  std::atomic<int> false_negatives{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      // Each reader sweeps the fleet from a different starting filter so
      // promotions and evictions interleave across threads.
      std::unique_ptr<bool[]> out(new bool[1024]);
      for (int round = 0; round < 6; ++round) {
        for (int i = 0; i < kFilters; ++i) {
          int slot = (i + t * 4) % kFilters;
          const Rows& rows = per_filter_rows[static_cast<size_t>(slot)];
          size_t n = std::min<size_t>(1024, rows.keys.size());
          Status st = catalog.ContainsKeyBatch(
              "f" + std::to_string(slot),
              std::span<const uint64_t>(rows.keys.data(), n),
              std::span<bool>(out.get(), n));
          if (!st.ok()) {
            errors.fetch_add(1);
            continue;
          }
          for (size_t k = 0; k < n; ++k) {
            if (!out[k]) false_negatives.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& r : readers) r.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(false_negatives.load(), 0);
  CatalogStats stats = catalog.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.promotions, static_cast<uint64_t>(kFilters));
  for (const std::string& path : paths) std::remove(path.c_str());
}

TEST(FilterCatalogConcurrentCallersTest, AnswersMatchSingleThreadedPass) {
  // Concurrent callers (mixed-predicate LookupBatch and key-only
  // ContainsKeyBatch) over memory-backed filters, with a hot budget of two
  // filters so promotions and evictions (compress / decompress round
  // trips) run underneath them: every answer must equal, byte for byte,
  // the one a single-threaded pass over the same requests gets.
  constexpr int kFilters = 6;
  constexpr int kCallers = 4;
  constexpr int kRequests = 64;
  constexpr size_t kKeysPerRequest = 256;

  std::vector<Rows> per_filter_rows;
  std::vector<std::unique_ptr<ConditionalCuckooFilter>> filters;
  for (int i = 0; i < kFilters; ++i) {
    Rows rows = MakeRows(3000, 200 + static_cast<uint64_t>(i),
                         static_cast<uint64_t>(i) << 32);
    filters.push_back(BuildFilter(CcfVariant::kChained, rows, 7));
    per_filter_rows.push_back(std::move(rows));
  }
  CatalogOptions options;
  options.hot_budget_bytes = 2 * (filters[0]->SizeInBits() / 8);
  FilterCatalog catalog(options);
  for (int i = 0; i < kFilters; ++i) {
    ASSERT_TRUE(catalog
                    .AddFilter("f" + std::to_string(i),
                               std::move(filters[static_cast<size_t>(i)]))
                    .ok());
  }
  Predicate preds[2] = {Predicate::Equals(0, 42),
                        Predicate::Equals(0, 7).AndEquals(1, 3)};

  struct Request {
    std::string id;
    std::vector<uint64_t> keys;
    const Predicate* pred;  // null = key-only
    std::vector<char> concurrent;
    std::vector<char> single;
  };
  std::vector<std::vector<Request>> per_caller(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    Rng rng(300 + static_cast<uint64_t>(t));
    for (int r = 0; r < kRequests; ++r) {
      Request req;
      int slot = static_cast<int>(rng.NextBelow(kFilters));
      req.id = "f" + std::to_string(slot);
      uint64_t base = static_cast<uint64_t>(slot) << 32;
      for (size_t k = 0; k < kKeysPerRequest; ++k) {
        req.keys.push_back(base + rng.NextBelow(4000));
      }
      uint64_t which = rng.NextBelow(3);
      req.pred = which == 2 ? nullptr : &preds[which];
      per_caller[static_cast<size_t>(t)].push_back(std::move(req));
    }
  }
  // One request through the catalog's public API; the answer as bytes.
  auto issue = [&catalog](const Request& req, std::vector<char>* answer) {
    std::unique_ptr<bool[]> out(new bool[kKeysPerRequest]);
    std::span<bool> out_span(out.get(), kKeysPerRequest);
    Status st = req.pred != nullptr
                    ? catalog.LookupBatch(req.id, req.keys, *req.pred, out_span)
                    : catalog.ContainsKeyBatch(req.id, req.keys, out_span);
    answer->assign(out.get(), out.get() + kKeysPerRequest);
    return st;
  };

  const CatalogStats before = catalog.stats();
  std::atomic<int> errors{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (Request& req : per_caller[static_cast<size_t>(t)]) {
        if (!issue(req, &req.concurrent).ok()) errors.fetch_add(1);
      }
    });
  }
  for (auto& c : callers) c.join();
  ASSERT_EQ(errors.load(), 0);
  const CatalogStats during = catalog.stats();
  EXPECT_GT(during.evictions, before.evictions);
  EXPECT_GT(during.promotions, before.promotions);

  // Single-threaded reference pass over the same requests.
  for (auto& requests : per_caller) {
    for (Request& req : requests) {
      ASSERT_TRUE(issue(req, &req.single).ok());
      EXPECT_EQ(req.concurrent, req.single) << req.id;
    }
  }
  // Present keys read true on every path (no false negatives).
  for (int i = 0; i < kFilters; ++i) {
    const Rows& rows = per_filter_rows[static_cast<size_t>(i)];
    std::unique_ptr<bool[]> out(new bool[rows.keys.size()]);
    ASSERT_TRUE(catalog
                    .ContainsKeyBatch("f" + std::to_string(i), rows.keys,
                                      std::span<bool>(out.get(),
                                                      rows.keys.size()))
                    .ok());
    for (size_t k = 0; k < rows.keys.size(); ++k) EXPECT_TRUE(out[k]);
  }
}

TEST(FilterCatalogInsertTest, MutationSurvivesEvictionOnMemoryBackedEntry) {
  Rows rows = MakeRows(3000, 17);
  FilterCatalog catalog{CatalogOptions{}};
  ASSERT_TRUE(
      catalog.AddFilter("f", BuildFilter(CcfVariant::kChained, rows, 7))
          .ok());

  Rows extra = MakeRows(600, 91, /*key_base=*/1 << 20);
  ASSERT_TRUE(catalog.InsertBatch("f", extra.keys, extra.flat_attrs).ok());

  auto expect_all_present = [&] {
    std::unique_ptr<bool[]> out(new bool[extra.keys.size()]);
    ASSERT_TRUE(catalog
                    .ContainsKeyBatch(
                        "f", extra.keys,
                        std::span<bool>(out.get(), extra.keys.size()))
                    .ok());
    for (size_t i = 0; i < extra.keys.size(); ++i) EXPECT_TRUE(out[i]);
  };
  expect_all_present();

  // Demote to the compressed blob and promote back: the mutation must be
  // part of the cold form.
  ASSERT_TRUE(catalog.Evict("f").ok());
  expect_all_present();
  EXPECT_GT(catalog.stats().promotions, 0u);
}

TEST(FilterCatalogInsertTest, StagedShardedRowsSurviveEviction) {
  // Rows written to a sharded entry sit in the write-buffer overlay until
  // a commit, but ShardedCcf::Serialize captures committed tables only:
  // demotion must commit the staged rows first, or the re-promoted filter
  // silently answers false negatives for them.
  ShardedCcfOptions opts;
  opts.num_shards = 2;
  auto sharded =
      ShardedCcf::Make(CcfVariant::kChained, TestConfig(5), opts)
          .ValueOrDie();
  Rows rows = MakeRows(3000, 19);
  ASSERT_TRUE(sharded->InsertParallel(rows.keys, rows.flat_attrs).ok());

  FilterCatalog catalog{CatalogOptions{}};
  ASSERT_TRUE(catalog.AddFilter("f", std::move(sharded)).ok());

  // No autocommit configured: these rows stay staged until demotion.
  Rows extra = MakeRows(600, 93, /*key_base=*/uint64_t{1} << 21);
  ASSERT_TRUE(catalog.InsertBatch("f", extra.keys, extra.flat_attrs).ok());
  ASSERT_TRUE(catalog.Evict("f").ok());

  auto expect_all_present = [&](const Rows& r) {
    std::unique_ptr<bool[]> out(new bool[r.keys.size()]);
    ASSERT_TRUE(catalog
                    .ContainsKeyBatch("f", r.keys,
                                      std::span<bool>(out.get(),
                                                      r.keys.size()))
                    .ok());
    for (size_t i = 0; i < r.keys.size(); ++i) EXPECT_TRUE(out[i]);
  };
  expect_all_present(extra);  // staged rows made it into the cold form
  expect_all_present(rows);   // committed rows unharmed
  EXPECT_GT(catalog.stats().promotions, 0u);
}

TEST(FilterCatalogInsertTest, WriteSidePromotionEnforcesHotBudget) {
  // InsertBatch on cold entries promotes them; without a write-side budget
  // sweep a write-only workload would pile hot entries past the budget
  // until some lookup happened to run.
  Rows rows_a = MakeRows(3000, 21);
  Rows rows_b = MakeRows(3000, 22, /*key_base=*/uint64_t{1} << 32);
  auto a = BuildFilter(CcfVariant::kChained, rows_a, 7);
  const size_t one_filter = static_cast<size_t>(a->SizeInBits() / 8);

  CatalogOptions options;
  options.hot_budget_bytes = one_filter + one_filter / 2;  // fits ~1 of 2
  FilterCatalog catalog(options);
  ASSERT_TRUE(catalog.AddFilter("a", std::move(a)).ok());
  ASSERT_TRUE(
      catalog.AddFilter("b", BuildFilter(CcfVariant::kChained, rows_b, 7))
          .ok());
  // Registration already swept: one of the two is cold.
  ASSERT_LE(catalog.hot_bytes(), options.hot_budget_bytes);

  // Write to both: whichever is cold gets promoted by the write, and the
  // sweep must run without any lookup in between.
  Rows extra_a = MakeRows(300, 94, /*key_base=*/uint64_t{1} << 22);
  Rows extra_b = MakeRows(300, 95, /*key_base=*/uint64_t{3} << 32);
  ASSERT_TRUE(
      catalog.InsertBatch("a", extra_a.keys, extra_a.flat_attrs).ok());
  EXPECT_LE(catalog.hot_bytes(), options.hot_budget_bytes);
  ASSERT_TRUE(
      catalog.InsertBatch("b", extra_b.keys, extra_b.flat_attrs).ok());
  EXPECT_LE(catalog.hot_bytes(), options.hot_budget_bytes);
  EXPECT_GT(catalog.stats().evictions, 0u);
}

TEST(FilterCatalogAutoCommitTest, SizeTriggerCommitsInBackground) {
  ShardedCcfOptions opts;
  opts.num_shards = 2;
  opts.autocommit_pending_rows = 64;
  auto sharded =
      ShardedCcf::Make(CcfVariant::kChained, TestConfig(5), opts)
          .ValueOrDie();
  Rows rows = MakeRows(3000, 41);
  ASSERT_TRUE(sharded->BufferWriteBatch(rows.keys, rows.flat_attrs).ok());
  sharded->DrainMaintenance();
  EXPECT_GT(sharded->num_autocommits(), 0u);
  // Staged-or-committed, every row answers (the overlay already
  // guaranteed this; the trigger must not lose rows).
  for (size_t i = 0; i < rows.keys.size(); i += 13) {
    EXPECT_TRUE(sharded->ContainsKey(rows.keys[i]));
  }
}

TEST(FilterCatalogAutoCommitTest, AgeTriggerCommitsOldPendingRows) {
  ShardedCcfOptions opts;
  opts.num_shards = 2;
  opts.autocommit_interval = std::chrono::milliseconds(5);
  auto sharded =
      ShardedCcf::Make(CcfVariant::kChained, TestConfig(5), opts)
          .ValueOrDie();
  std::vector<uint64_t> attrs = {1, 2};
  // Seed every shard with a pending row, age it past the interval, then
  // write again: whichever shard the new writes land on holds an old
  // first_staged stamp, so the trigger must fire.
  for (uint64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(sharded->BufferWrite(k, attrs).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (uint64_t k = 100; k < 108; ++k) {
    ASSERT_TRUE(sharded->BufferWrite(k, attrs).ok());
  }
  sharded->DrainMaintenance();
  EXPECT_GT(sharded->num_autocommits(), 0u);
  for (uint64_t k = 0; k < 8; ++k) EXPECT_TRUE(sharded->ContainsKey(k));
  for (uint64_t k = 100; k < 108; ++k) {
    EXPECT_TRUE(sharded->ContainsKey(k));
  }
}

}  // namespace
}  // namespace ccf
