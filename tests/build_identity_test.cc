// Byte-identity regression suite for the insert engine: FNV-64 digests of
// Serialize() blobs, pinned for builds whose placement must never drift —
// the JOB-light tables BuildAllCcfs emits (all four variants, several
// salts), a narrow chained table that exercises every chain-walk corner
// (exact duplicates, many vectors per key, aliasing keys, merging chains,
// overflow), and scalar Insert loops. A refactor of the insert engine that
// changes any slot assignment, counter, or rng draw changes a digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ccf/ccf.h"
#include "ccf/ccf_base.h"
#include "ccf/chained_ccf.h"
#include "cuckoo/cuckoo_filter.h"
#include "data/imdb_synth.h"
#include "join/ccf_builder.h"
#include "util/random.h"

namespace ccf {
namespace {

uint64_t Fnv64(std::string_view bytes, uint64_t h = 0xcbf29ce484222325ull) {
  for (unsigned char c : bytes) {
    h = (h ^ c) * 0x100000001b3ull;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// --- JOB-light tables ---------------------------------------------------------

// One digest per (variant, salt): the six tables' blobs in dataset order. A
// table whose build fails (Plain's CapacityError rows) contributes its
// error message instead, so a change in WHICH tables fail shows too.
struct JoblightDigest {
  CcfVariant variant;
  uint64_t salt;
  uint64_t digest;
};

constexpr JoblightDigest kJoblightDigests[] = {
    {CcfVariant::kPlain, 1, 0x6421060fc934ecb1ull},
    {CcfVariant::kPlain, 2, 0x358c12ad608065cfull},
    {CcfVariant::kPlain, 3, 0xd45a7240e4ceabbcull},
    {CcfVariant::kChained, 1, 0x7a1a90cb86e6e659ull},
    {CcfVariant::kChained, 2, 0xa60165c203dd4352ull},
    {CcfVariant::kChained, 3, 0xc9f6e5fb9a77e4e1ull},
    {CcfVariant::kBloom, 1, 0x0361ff78c714b094ull},
    {CcfVariant::kBloom, 2, 0x88cc42a9abb053e6ull},
    {CcfVariant::kBloom, 3, 0x75af8ce04d8ee78eull},
    {CcfVariant::kMixed, 1, 0x83776e82d9c99228ull},
    {CcfVariant::kMixed, 2, 0xc6897a583a2eca23ull},
    {CcfVariant::kMixed, 3, 0x173e76e23dafc814ull},
};

TEST(BuildIdentityTest, JoblightTablesSerializeToPinnedDigests) {
  ImdbDataset dataset = GenerateImdb(1.0 / 256, 7).ValueOrDie();
  for (const JoblightDigest& pin : kJoblightDigests) {
    CcfBuildParams params = LargeParams(pin.variant);
    params.salt = pin.salt;
    uint64_t digest = Fnv64("");
    std::string per_table;
    for (const TableData& table : dataset.tables) {
      Result<BuiltCcf> built = BuildCcf(table, params);
      std::string blob = built.ok() ? built.ValueOrDie().filter->Serialize()
                                    : built.status().ToString();
      digest = Fnv64(blob, digest);
      per_table += " " + table.spec.name + "=" + Hex(Fnv64(blob));
    }
    EXPECT_EQ(Hex(digest), Hex(pin.digest))
        << CcfVariantName(pin.variant) << " salt " << pin.salt << ":"
        << per_table;
  }
}

// --- Narrow chained tables ---------------------------------------------------

// Tiny tables with 4- and 5-bit key fingerprints, so keys alias (same first
// pair and fingerprint) and distinct chains of one fingerprint run into
// each other's pairs. The first `long_keys` keys have 1..max_vectors distinct
// vectors each (the long ones overflow their chains), the rest 1..4; 20%
// of the rows are exact duplicates, and the whole row set is repeated three
// times in shuffled order so the batch spans several pipeline blocks. The
// second case's chains run well past the pairs a batch walks before it
// keeps a per-chain cursor, and other chains fill a cursor's first pair
// with room between its visits (a cursor that trusted its last copy count
// instead of rescanning changes this case's digest).
struct NarrowCase {
  uint64_t num_buckets;
  int key_fp_bits;
  int max_chain;
  uint64_t num_keys;
  uint64_t long_keys;
  uint64_t max_vectors;
  uint64_t batch_digest;
  uint64_t scalar_digest;
};

constexpr NarrowCase kNarrowCases[] = {
    {64, 5, 4, 36, 36, 20, 0x0241adddc7481d43ull, 0x704268a6cb0aad92ull},
    {128, 4, 12, 96, 24, 30, 0xd837fa3cc6f77d12ull, 0x342a1c317cd6f8d9ull},
};

CcfConfig NarrowConfig(const NarrowCase& c) {
  CcfConfig config;
  config.num_buckets = c.num_buckets;
  config.slots_per_bucket = 6;
  config.key_fp_bits = c.key_fp_bits;
  config.attr_fp_bits = 4;
  config.num_attrs = 2;
  config.max_dupes = 3;
  config.max_chain = c.max_chain;
  config.salt = 5;
  return config;
}

struct NarrowRows {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> flat_attrs;
};

NarrowRows MakeNarrowRows(const NarrowCase& c) {
  Rng rng(77);
  std::vector<std::pair<uint64_t, std::pair<uint64_t, uint64_t>>> base;
  for (uint64_t key = 0; key < c.num_keys; ++key) {
    uint64_t vectors =
        1 + rng.NextBelow(key < c.long_keys ? c.max_vectors : 4);
    for (uint64_t v = 0; v < vectors; ++v) {
      base.push_back({1000 + key * 7919, {v % 16, v / 16 + key % 3}});
    }
  }
  size_t distinct = base.size();
  for (size_t i = 0; i < distinct / 5; ++i) {
    base.push_back(base[rng.NextBelow(distinct)]);
  }
  NarrowRows rows;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<size_t> order(base.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBelow(i)]);
    }
    for (size_t i : order) {
      rows.keys.push_back(base[i].first);
      rows.flat_attrs.push_back(base[i].second.first);
      rows.flat_attrs.push_back(base[i].second.second);
    }
  }
  return rows;
}

TEST(BuildIdentityTest, NarrowChainedTablesExerciseEveryChainCorner) {
  for (const NarrowCase& c : kNarrowCases) {
    SCOPED_TRACE("max_chain " + std::to_string(c.max_chain));
    const CcfConfig config = NarrowConfig(c);
    const NarrowRows rows = MakeNarrowRows(c);
    auto filter = ConditionalCuckooFilter::Make(CcfVariant::kChained, config)
                      .ValueOrDie();
    ASSERT_TRUE(filter->InsertBatch(rows.keys, rows.flat_attrs).ok());
    const auto& chained = static_cast<const ChainedCcf&>(*filter);
    EXPECT_GT(chained.num_overflow_rows(), 0u);
    EXPECT_EQ(chained.max_chain_seen(), config.max_chain - 1);

    // Aliases and merges, from the keys' addresses and chain walks.
    const Hasher hasher(config.salt);
    const uint64_t mask = config.num_buckets - 1;
    const BucketTable& table = chained.table();
    std::map<std::pair<uint64_t, uint32_t>, std::set<uint64_t>>
        keys_by_start;
    for (uint64_t key : rows.keys) {
      uint64_t bucket;
      uint32_t fp;
      cuckoo_addressing::IndexAndFingerprint(hasher, key, mask,
                                             config.key_fp_bits, &bucket, &fp);
      uint64_t alt = cuckoo_addressing::AltBucket(hasher, bucket, fp, mask);
      keys_by_start[{std::min(bucket, alt), fp}].insert(key);
    }
    bool aliased = false;
    // (canonical pair, fp) -> the chain starts whose walk reaches it,
    // counted only where the pair actually holds copies of fp.
    std::map<std::pair<uint64_t, uint32_t>, std::set<uint64_t>>
        starts_by_pair;
    for (const auto& [start, keys] : keys_by_start) {
      if (keys.size() > 1) aliased = true;
      ChainWalk walk(&hasher, mask, start.first, start.second);
      for (int hop = 0; hop < config.max_chain; ++hop) {
        const BucketPair& pair = walk.pair();
        int copies = table.CountFingerprint(pair.primary, start.second);
        if (!pair.degenerate()) {
          copies += table.CountFingerprint(pair.alt, start.second);
        }
        if (copies == 0) break;
        starts_by_pair[{pair.Canonical(config.num_buckets), start.second}]
            .insert(start.first);
        walk.Advance();
      }
    }
    bool merged = false;
    for (const auto& [pair, starts] : starts_by_pair) {
      if (starts.size() > 1) merged = true;
    }
    EXPECT_TRUE(aliased) << "fixture must contain aliasing keys";
    EXPECT_TRUE(merged) << "fixture must contain chains sharing a pair";

    EXPECT_EQ(Hex(Fnv64(filter->Serialize())), Hex(c.batch_digest));

    // The same rows through scalar Insert, row at a time.
    auto scalar = ConditionalCuckooFilter::Make(CcfVariant::kChained, config)
                      .ValueOrDie();
    for (size_t i = 0; i < rows.keys.size(); ++i) {
      ASSERT_TRUE(scalar
                      ->Insert(rows.keys[i],
                               std::span<const uint64_t>(
                                   &rows.flat_attrs[2 * i], 2))
                      .ok());
    }
    EXPECT_EQ(Hex(Fnv64(scalar->Serialize())), Hex(c.scalar_digest));
  }
}

// --- Scalar Insert loops ------------------------------------------------------

// BuildEquivalenceTest.BatchBuildMatchesScalarBuild's rows and geometry:
// every key ~4 times with varying attributes over 4096 buckets.
TEST(BuildIdentityTest, ScalarInsertLoopsSerializeToPinnedDigests) {
  constexpr std::pair<CcfVariant, uint64_t> kPins[] = {
      {CcfVariant::kPlain, 0xc95aa0af795bec0full},
      {CcfVariant::kChained, 0x788dffc9ba2424b1ull},
      {CcfVariant::kBloom, 0xa9d9c1252506ac6aull},
      {CcfVariant::kMixed, 0x56aac830d3487ee7ull},
  };
  CcfConfig config;
  config.num_buckets = 4096;
  config.slots_per_bucket = 6;
  config.key_fp_bits = 12;
  config.attr_fp_bits = 8;
  config.num_attrs = 2;
  config.max_dupes = 3;
  config.salt = 17;
  std::vector<uint64_t> keys, attrs;
  Rng rng(23);
  for (size_t i = 0; i < 12000; ++i) {
    keys.push_back(static_cast<uint64_t>(i % 3000));
    attrs.push_back(rng.NextBelow(200));
    attrs.push_back(rng.NextBelow(50));
  }
  for (const auto& [variant, pin] : kPins) {
    auto filter = ConditionalCuckooFilter::Make(variant, config).ValueOrDie();
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(
          filter->Insert(keys[i], std::span<const uint64_t>(&attrs[2 * i], 2))
              .ok());
    }
    EXPECT_EQ(Hex(Fnv64(filter->Serialize())), Hex(pin))
        << CcfVariantName(variant);
  }
}

}  // namespace
}  // namespace ccf
