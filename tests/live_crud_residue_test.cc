// Committed erases leave residue, never holes. Inserts collapse rows that
// share a bucket pair, key fingerprint and payload into one table entry, so
// one entry may stand for live rows of several keys; a committed erase only
// marks its rows dead in the shard's row log and keeps the entry until a
// rebuild from the survivors. These tests pin that contract on every
// variant: the minimal whole-entry alias case, a narrow-fingerprint
// differential against a row-log oracle over every read path, the live row
// count, and the compact-first growth rule that keeps residue from
// doubling a table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ccf/ccf_base.h"
#include "ccf/sharded_ccf.h"
#include "cuckoo/cuckoo_filter.h"
#include "util/random.h"

namespace ccf {
namespace {

std::string VariantName(const ::testing::TestParamInfo<CcfVariant>& info) {
  return std::string(CcfVariantName(info.param));
}

const auto kAllVariants =
    ::testing::Values(CcfVariant::kPlain, CcfVariant::kChained,
                      CcfVariant::kBloom, CcfVariant::kMixed);

const CcfBase& ShardBase(const ShardedCcf& f, int s) {
  return static_cast<const CcfBase&>(f.shard(s));
}

// --- The minimal alias case -------------------------------------------------

CcfConfig AliasConfig(uint64_t salt) {
  CcfConfig config;
  config.num_buckets = 64;
  config.slots_per_bucket = 6;
  config.key_fp_bits = 8;
  config.attr_fp_bits = 8;
  config.num_attrs = 2;
  config.max_dupes = 3;
  config.salt = salt;
  return config;
}

// A key's (bucket pair, fingerprint) under the filter's own addressing,
// packed into one word; equal words mean the keys' entries can collapse.
uint64_t EntryAddress(const CcfBase& base, uint64_t key) {
  const Hasher& h = base.hasher();
  const uint64_t mask = base.table().bucket_mask();
  uint64_t b;
  uint32_t fp;
  cuckoo_addressing::IndexAndFingerprint(h, key, mask,
                                         base.config().key_fp_bits, &b, &fp);
  const uint64_t alt = cuckoo_addressing::AltBucket(h, b, fp, mask);
  return (std::min(b, alt) << 40) | (std::max(b, alt) << 20) | fp;
}

// The first key above 1 that aliases key 1.
uint64_t FindAlias(const CcfBase& base) {
  const uint64_t target = EntryAddress(base, 1);
  uint64_t k = 2;
  while (EntryAddress(base, k) != target) ++k;
  return k;
}

class LiveCrudAliasTest : public ::testing::TestWithParam<CcfVariant> {};

// Key 1 and an alias share one entry; erasing key 1 must not take the
// alias with it, on any read path, until and after a compaction.
TEST_P(LiveCrudAliasTest, ErasingOneKeyKeepsItsAliasLive) {
  const std::vector<uint64_t> attrs = {0, 0};
  int cases = 0;
  for (uint64_t salt = 1; cases < 8; ++salt) {
    ASSERT_LT(salt, 200u) << "too few salts give a collapsed alias entry";
    ShardedCcfOptions opts;
    opts.num_shards = 1;
    opts.compact_watermark = 0;
    auto f =
        ShardedCcf::Make(GetParam(), AliasConfig(salt), opts).ValueOrDie();
    const uint64_t alias = FindAlias(ShardBase(*f, 0));
    ASSERT_TRUE(f->BufferWrite(1, attrs).ok());
    ASSERT_TRUE(f->BufferWrite(alias, attrs).ok());
    ASSERT_TRUE(f->CommitWrites().ok());
    if (f->num_entries() != 1) continue;  // not collapsed into one entry
    ++cases;

    ASSERT_TRUE(f->BufferErase(1, attrs).ok());
    EXPECT_TRUE(f->ContainsRow(alias, attrs)) << "staged, salt " << salt;
    ASSERT_TRUE(f->CommitWrites().ok());
    EXPECT_EQ(f->num_rows(), 1u);
    const std::vector<uint64_t> keys = {alias};
    const std::vector<Predicate> preds = {
        Predicate::Equals(0, 0).AndEquals(1, 0)};
    for (const char* when : {"committed", "compacted"}) {
      EXPECT_TRUE(f->ContainsRow(alias, attrs)) << when << ", salt " << salt;
      EXPECT_TRUE(f->ContainsKey(alias)) << when << ", salt " << salt;
      bool out = false;
      ASSERT_TRUE(f->LookupBatch(keys, preds, std::span<bool>(&out, 1)).ok());
      EXPECT_TRUE(out) << when << " batched, salt " << salt;
      out = false;
      f->ContainsKeyBatch(keys, std::span<bool>(&out, 1));
      EXPECT_TRUE(out) << when << " key batch, salt " << salt;
      ASSERT_TRUE(f->Compact().ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, LiveCrudAliasTest, kAllVariants,
                         VariantName);

// --- Narrow-fingerprint differential ---------------------------------------

struct OracleRow {
  uint64_t key;
  std::vector<uint64_t> attrs;
  uint64_t payload;  // the erase class word (MemoizeRow)
  bool live;
};

struct DiffParam {
  CcfVariant variant;
  int key_fp_bits;
};

class LiveCrudNarrowDifferentialTest
    : public ::testing::TestWithParam<DiffParam> {};

// Random insert/update/erase batches at 4-8 bit fingerprints on tiny
// tables, over keys drawn from groups that alias each other at the initial
// geometry and a four-vector attribute domain, so whole-entry aliases are
// common. The oracle is the row log: every live row must read true on
// every read path, staged, committed, compacted and resized.
TEST_P(LiveCrudNarrowDifferentialTest, LiveRowsNeverReadFalse) {
  const DiffParam param = GetParam();
  CcfConfig config;
  config.num_buckets = 32;
  config.slots_per_bucket = 4;
  config.key_fp_bits = param.key_fp_bits;
  config.attr_fp_bits = 4;
  config.bloom_bits = 16;
  config.num_attrs = 2;
  config.max_dupes = 2;
  config.salt = 77;
  ShardedCcfOptions opts;
  opts.num_shards = 2;
  opts.compact_watermark = 0;  // rebuilds only where the test asks
  auto f = ShardedCcf::Make(param.variant, config, opts).ValueOrDie();

  // Key pool: 12 groups of 4 keys sharing a shard, bucket pair and
  // fingerprint.
  std::map<std::pair<size_t, uint64_t>, std::vector<uint64_t>> groups;
  std::vector<uint64_t> pool;
  for (uint64_t k = 0; pool.size() < 48; ++k) {
    const size_t s = f->ShardOf(k);
    std::vector<uint64_t>& group =
        groups[{s, EntryAddress(ShardBase(*f, static_cast<int>(s)), k)}];
    group.push_back(k);
    if (group.size() == 4) pool.insert(pool.end(), group.begin(), group.end());
  }

  std::vector<OracleRow> oracle;
  Rng rng(param.key_fp_bits * 31 + static_cast<int>(param.variant));
  auto payload_of = [&](uint64_t key, const std::vector<uint64_t>& attrs) {
    uint64_t key_hash, payload;
    ShardBase(*f, static_cast<int>(f->ShardOf(key)))
        .MemoizeRow(key, attrs, &key_hash, &payload);
    return payload;
  };
  auto insert = [&](uint64_t key, std::vector<uint64_t> attrs) {
    uint64_t payload = payload_of(key, attrs);
    oracle.push_back({key, std::move(attrs), payload, true});
  };
  // An erase kills the whole (key, payload) class, as the filter does.
  auto erase = [&](const OracleRow& row) {
    const uint64_t key = row.key, payload = row.payload;
    for (OracleRow& r : oracle) {
      if (r.key == key && r.payload == payload) r.live = false;
    }
  };
  auto random_live = [&]() -> const OracleRow* {
    std::vector<const OracleRow*> live;
    for (const OracleRow& r : oracle) {
      if (r.live) live.push_back(&r);
    }
    if (live.empty()) return nullptr;
    return live[rng.NextBelow(live.size())];
  };

  auto check = [&](const std::string& when) {
    std::vector<uint64_t> keys;
    std::vector<Predicate> preds;
    uint64_t live_rows = 0;
    for (const OracleRow& r : oracle) {
      if (!r.live) continue;
      ++live_rows;
      Predicate pred =
          Predicate::Equals(0, r.attrs[0]).AndEquals(1, r.attrs[1]);
      ASSERT_TRUE(f->Contains(r.key, pred))
          << when << ": row of key " << r.key << " reads false";
      ASSERT_TRUE(f->ContainsKey(r.key)) << when << ": key " << r.key;
      keys.push_back(r.key);
      preds.push_back(pred);
    }
    std::unique_ptr<bool[]> out(new bool[keys.size() + 1]);
    std::span<bool> out_span(out.get(), keys.size());
    ASSERT_TRUE(f->LookupBatch(keys, preds, out_span).ok());
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(out[i]) << when << " batched: key " << keys[i];
    }
    f->ContainsKeyBatch(keys, out_span);
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(out[i]) << when << " key batch: key " << keys[i];
    }
    // Broadcast shape: one predicate, the keys with a row matching it.
    for (uint64_t a0 = 0; a0 < 2; ++a0) {
      const Predicate pred = Predicate::Equals(0, a0);
      std::vector<uint64_t> match;
      for (const OracleRow& r : oracle) {
        if (r.live && r.attrs[0] == a0) match.push_back(r.key);
      }
      std::span<bool> match_out(out.get(), match.size());
      ASSERT_TRUE(f->LookupBatch(match, std::span<const Predicate>(&pred, 1),
                                 match_out)
                      .ok());
      for (size_t i = 0; i < match.size(); ++i) {
        ASSERT_TRUE(out[i]) << when << " broadcast: key " << match[i];
      }
    }
    if (when.rfind("staged", 0) != 0) {
      EXPECT_EQ(f->num_rows(), live_rows) << when;
      EXPECT_EQ(f->num_rows(), f->retained_log_rows() - f->dead_log_rows())
          << when;
    }
  };

  constexpr int kRounds = 40;
  for (int round = 0; round < kRounds; ++round) {
    const std::string tag = " round " + std::to_string(round);
    const int ops = 4 + static_cast<int>(rng.NextBelow(12));
    for (int op = 0; op < ops; ++op) {
      const uint64_t kind = rng.NextBelow(10);
      const OracleRow* victim = random_live();
      if (kind < 5 || victim == nullptr) {
        uint64_t key = pool[rng.NextBelow(pool.size())];
        std::vector<uint64_t> attrs = {rng.NextBelow(2), rng.NextBelow(2)};
        ASSERT_TRUE(f->BufferWrite(key, attrs).ok());
        insert(key, std::move(attrs));
      } else if (kind < 8) {
        OracleRow row = *victim;
        ASSERT_TRUE(f->BufferErase(row.key, row.attrs).ok());
        erase(row);
      } else {
        OracleRow row = *victim;
        std::vector<uint64_t> next = {rng.NextBelow(2), rng.NextBelow(2)};
        ASSERT_TRUE(f->BufferUpdate(row.key, row.attrs, next).ok());
        erase(row);
        insert(row.key, std::move(next));
      }
    }
    check("staged" + tag);
    if (HasFatalFailure()) return;
    ASSERT_TRUE(f->CommitWrites().ok()) << tag;
    check("committed" + tag);
    if (HasFatalFailure()) return;
    if (round % 8 == 3) {
      ASSERT_TRUE(f->Compact().ok()) << tag;
      EXPECT_EQ(f->dead_log_rows(), 0u);
      check("compacted" + tag);
      if (HasFatalFailure()) return;
    }
    if (round % 13 == 6) {
      ASSERT_TRUE(f->ResizeShard(round % 2).ok()) << tag;
      check("resized" + tag);
      if (HasFatalFailure()) return;
    }
  }
}

std::vector<DiffParam> DiffParams() {
  std::vector<DiffParam> params;
  for (CcfVariant v : {CcfVariant::kPlain, CcfVariant::kChained,
                       CcfVariant::kBloom, CcfVariant::kMixed}) {
    for (int bits : {4, 6, 8}) params.push_back({v, bits});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    NarrowFingerprints, LiveCrudNarrowDifferentialTest,
    ::testing::ValuesIn(DiffParams()),
    [](const ::testing::TestParamInfo<DiffParam>& info) {
      return std::string(CcfVariantName(info.param.variant)) + "Fp" +
             std::to_string(info.param.key_fp_bits);
    });

// --- Row count and growth --------------------------------------------------

class LiveCrudRowCountTest : public ::testing::TestWithParam<CcfVariant> {};

// num_rows() counts live logged rows on every variant and keeps that
// meaning through insert-only commits, erase commits and compaction.
TEST_P(LiveCrudRowCountTest, NumRowsIsLiveLogRows) {
  ShardedCcfOptions opts;
  opts.num_shards = 1;
  opts.compact_watermark = 0;
  auto f = ShardedCcf::Make(GetParam(), AliasConfig(5), opts).ValueOrDie();
  const std::vector<uint64_t> a = {3, 4};
  ASSERT_TRUE(f->BufferWrite(7, a).ok());
  ASSERT_TRUE(f->BufferWrite(7, a).ok());
  ASSERT_TRUE(f->BufferWrite(9, a).ok());
  ASSERT_TRUE(f->CommitWrites().ok());
  EXPECT_EQ(f->num_rows(), 3u);
  ASSERT_TRUE(f->BufferErase(9, a).ok());
  ASSERT_TRUE(f->CommitWrites().ok());
  EXPECT_EQ(f->num_rows(), 2u);
  EXPECT_EQ(f->num_rows(), f->retained_log_rows() - f->dead_log_rows());
  ASSERT_TRUE(f->Compact().ok());
  EXPECT_EQ(f->num_rows(), 2u);
  EXPECT_EQ(f->retained_log_rows(), 2u);
  EXPECT_TRUE(f->ContainsRow(7, a));
}

INSTANTIATE_TEST_SUITE_P(AllVariants, LiveCrudRowCountTest, kAllVariants,
                         VariantName);

// --- Failed commit rollback --------------------------------------------------

class LiveCrudRollbackTest : public ::testing::TestWithParam<CcfVariant> {};

// A CRUD commit that fails with CapacityError after the key index is built
// must leave no trace: the log and its dead marks are restored exactly
// (the rows it appended are unlinked from the index again), its records
// stay staged and visible, and a later erase still finds the rows that were
// logged before the failure, through chains the failed append had grown.
TEST_P(LiveCrudRollbackTest, FailedCommitRestoresLogAndIndex) {
  CcfConfig config = AliasConfig(13);
  config.key_fp_bits = 12;
  ShardedCcfOptions opts;
  opts.num_shards = 1;
  opts.max_auto_resizes = 0;   // a full table fails instead of doubling
  opts.compact_watermark = 0;  // keep the dead marks in the log
  auto f = ShardedCcf::Make(GetParam(), config, opts).ValueOrDie();
  auto attrs_of = [](uint64_t k) {
    return std::vector<uint64_t>{k % 5, k % 7};
  };
  constexpr uint64_t kCommitted = 100;
  for (uint64_t k = 0; k < kCommitted; ++k) {
    ASSERT_TRUE(f->BufferWrite(k, attrs_of(k)).ok());
  }
  ASSERT_TRUE(f->CommitWrites().ok());
  ASSERT_TRUE(f->BufferErase(0, attrs_of(0)).ok());
  ASSERT_TRUE(f->CommitWrites().ok());  // builds the key index
  ASSERT_EQ(f->dead_log_rows(), 1u);

  // One erase of a logged row, a new row of logged key 2, and far more new
  // keys than the 384-slot table holds, even after compacting.
  const std::vector<uint64_t> new_attrs = {9, 9};
  constexpr uint64_t kFirstNew = 1000, kNew = 2000;
  ASSERT_TRUE(f->BufferErase(1, attrs_of(1)).ok());
  ASSERT_TRUE(f->BufferWrite(2, new_attrs).ok());
  for (uint64_t k = kFirstNew; k < kFirstNew + kNew; ++k) {
    ASSERT_TRUE(f->BufferWrite(k, attrs_of(k)).ok());
  }
  const Status failed = f->CommitWrites();
  ASSERT_EQ(failed.code(), StatusCode::kCapacityError) << failed.ToString();

  EXPECT_EQ(f->retained_log_rows(), kCommitted);
  EXPECT_EQ(f->dead_log_rows(), 1u);
  EXPECT_EQ(f->num_rows(), kCommitted - 1);
  EXPECT_EQ(f->pending_writes(), kNew + 2);
  EXPECT_TRUE(f->ContainsRow(2, new_attrs));
  EXPECT_TRUE(f->ContainsRow(2, attrs_of(2)));
  for (uint64_t k = kFirstNew; k < kFirstNew + kNew; k += 97) {
    EXPECT_TRUE(f->ContainsRow(k, attrs_of(k))) << "staged key " << k;
  }

  // Withdraw the staged inserts and erase key 2's logged row: the commit
  // now fits, and the index must still reach rows 1 and 2.
  ASSERT_TRUE(f->BufferErase(2, new_attrs).ok());
  ASSERT_TRUE(f->BufferErase(2, attrs_of(2)).ok());
  for (uint64_t k = kFirstNew; k < kFirstNew + kNew; ++k) {
    ASSERT_TRUE(f->BufferErase(k, attrs_of(k)).ok());
  }
  ASSERT_TRUE(f->CommitWrites().ok());
  EXPECT_EQ(f->pending_writes(), 0u);
  EXPECT_EQ(f->retained_log_rows(), kCommitted);
  EXPECT_EQ(f->dead_log_rows(), 3u);  // rows of keys 0, 1 and 2
  EXPECT_EQ(f->num_rows(), kCommitted - 3);
  for (uint64_t k = 3; k < kCommitted; ++k) {
    EXPECT_TRUE(f->ContainsRow(k, attrs_of(k))) << "key " << k;
  }
  ASSERT_TRUE(f->Compact().ok());
  EXPECT_EQ(f->retained_log_rows(), kCommitted - 3);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, LiveCrudRollbackTest, kAllVariants,
                         VariantName);

struct GrowthParam {
  CcfVariant variant;
  bool watermark;  // growth trigger: load watermark, else CapacityError
};

class LiveCrudResidueGrowthTest
    : public ::testing::TestWithParam<GrowthParam> {};

// Steady churn: the live set stays small while erased rows' residue
// accumulates far past the table's slots. A shard holding dead rows that
// hits a growth trigger compacts at its current geometry first, so the
// bucket count never changes.
TEST_P(LiveCrudResidueGrowthTest, ChurnKeepsBucketCount) {
  const GrowthParam param = GetParam();
  CcfConfig config = AliasConfig(11);
  config.key_fp_bits = 12;
  ShardedCcfOptions opts;
  opts.num_shards = 1;
  opts.compact_watermark = 0;  // only growth triggers rebuild
  opts.resize_watermark = param.watermark ? 0.5 : 0.0;
  auto f = ShardedCcf::Make(param.variant, config, opts).ValueOrDie();
  const uint64_t buckets = f->shard(0).config().num_buckets;
  const uint64_t slots = ShardBase(*f, 0).table().num_slots();

  constexpr uint64_t kLive = 40;
  constexpr int kRounds = 30;  // 1200 rows written into 384 slots
  auto attrs_of = [](uint64_t k) {
    return std::vector<uint64_t>{k % 5, k % 7};
  };
  for (uint64_t k = 0; k < kLive; ++k) {
    ASSERT_TRUE(f->BufferWrite(k, attrs_of(k)).ok());
  }
  ASSERT_TRUE(f->CommitWrites().ok());
  for (int r = 0; r < kRounds; ++r) {
    for (uint64_t i = 0; i < kLive; ++i) {
      const uint64_t dead = r * kLive + i;
      const uint64_t born = (r + 1) * kLive + i;
      ASSERT_TRUE(f->BufferErase(dead, attrs_of(dead)).ok());
      ASSERT_TRUE(f->BufferWrite(born, attrs_of(born)).ok());
    }
    ASSERT_TRUE(f->CommitWrites().ok()) << "round " << r;
    if (param.watermark) f->DrainMaintenance();
  }
  f->DrainMaintenance();
  ASSERT_GT(kRounds * kLive, slots);
  EXPECT_EQ(f->shard(0).config().num_buckets, buckets);
  EXPECT_EQ(f->num_resizes(), 0u);
  EXPECT_GT(f->num_compactions(), 0u);
  EXPECT_EQ(f->num_rows(), kLive);
  for (uint64_t i = 0; i < kLive; ++i) {
    const uint64_t k = kRounds * kLive + i;
    EXPECT_TRUE(f->ContainsRow(k, attrs_of(k))) << "key " << k;
  }
}

std::vector<GrowthParam> GrowthParams() {
  std::vector<GrowthParam> params;
  for (CcfVariant v : {CcfVariant::kPlain, CcfVariant::kChained,
                       CcfVariant::kBloom, CcfVariant::kMixed}) {
    params.push_back({v, true});
    params.push_back({v, false});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, LiveCrudResidueGrowthTest, ::testing::ValuesIn(GrowthParams()),
    [](const ::testing::TestParamInfo<GrowthParam>& info) {
      return std::string(CcfVariantName(info.param.variant)) +
             (info.param.watermark ? "Watermark" : "CapacityError");
    });

}  // namespace
}  // namespace ccf
