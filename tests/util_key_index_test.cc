#include "util/key_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "util/random.h"

namespace ccf {
namespace {

// Rows of `key` through the index, in walk order (newest first).
std::vector<uint32_t> RowsOf(const KeyIndex& index,
                             const std::vector<uint64_t>& keys, uint64_t key) {
  std::vector<uint32_t> rows;
  index.ForEach(keys, key, [&](uint32_t r) { rows.push_back(r); });
  return rows;
}

// Rows of `key` among keys[0, n), newest first: the answer RowsOf must give.
std::vector<uint32_t> ScanRows(const std::vector<uint64_t>& keys, size_t n,
                               uint64_t key) {
  std::vector<uint32_t> rows;
  for (size_t r = n; r-- > 0;) {
    if (keys[r] == key) rows.push_back(static_cast<uint32_t>(r));
  }
  return rows;
}

TEST(KeyIndexTest, EmptyIndexFindsNothing) {
  KeyIndex index;
  EXPECT_FALSE(index.built());
  std::vector<uint64_t> keys;
  EXPECT_TRUE(RowsOf(index, keys, 42).empty());
  index.Build(keys);
  EXPECT_TRUE(index.built());
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(RowsOf(index, keys, 42).empty());
}

TEST(KeyIndexTest, KeyWithManyRowsWalksNewestFirst) {
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 3000; ++i) {
    keys.push_back(i % 3 == 0 ? 7 : 10000 + i);
  }
  KeyIndex index;
  index.Build(keys);
  const std::vector<uint32_t> rows = RowsOf(index, keys, 7);
  ASSERT_EQ(rows.size(), 1000u);
  EXPECT_EQ(rows, ScanRows(keys, keys.size(), 7));
  EXPECT_EQ(RowsOf(index, keys, 10008), std::vector<uint32_t>{8});
  EXPECT_TRUE(RowsOf(index, keys, 10003).empty());  // row 3 holds key 7
}

TEST(KeyIndexTest, KeysSharingOneSlotStayApart) {
  // Keys whose slot equals key 1's in the smallest (16-slot) table.
  constexpr int kShift = 64 - 4;
  std::vector<uint64_t> colliders;
  for (uint64_t k = 1; colliders.size() < 6; ++k) {
    if (KeySlot(k, kShift) == KeySlot(1, kShift)) colliders.push_back(k);
  }
  std::vector<uint64_t> keys;
  for (int round = 0; round < 2; ++round) {
    keys.insert(keys.end(), colliders.begin(), colliders.end());
  }
  KeyIndex index;
  index.Build(keys);  // 12 rows: 16 slots, all of them on one chain
  for (uint64_t k : colliders) {
    EXPECT_EQ(RowsOf(index, keys, k), ScanRows(keys, keys.size(), k));
  }
}

TEST(KeyIndexTest, AppendGrowsAcrossDoublings) {
  std::vector<uint64_t> keys;
  KeyIndex index;
  Rng rng(3);
  for (size_t n = 1; n <= 5000; ++n) {
    keys.push_back(rng.NextBelow(700));
    index.Append(keys);
    ASSERT_EQ(index.size(), n);
    if ((n & (n - 1)) == 0 || n == 5000) {  // around each doubling
      for (uint64_t k = 0; k < 700; ++k) {
        ASSERT_EQ(RowsOf(index, keys, k), ScanRows(keys, n, k))
            << "rows " << n << " key " << k;
      }
    }
  }
}

TEST(KeyIndexTest, TruncateToAnyPrefix) {
  std::vector<uint64_t> keys;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) keys.push_back(rng.NextBelow(20));
  KeyIndex full;
  full.Build(keys);
  for (size_t n = 0; n <= keys.size(); ++n) {
    KeyIndex index = full;
    index.Truncate(keys, n);
    ASSERT_EQ(index.size(), n);
    for (uint64_t k = 0; k < 20; ++k) {
      ASSERT_EQ(RowsOf(index, keys, k), ScanRows(keys, n, k))
          << "prefix " << n << " key " << k;
    }
    // The truncated index takes appends again: relink the dropped tail.
    index.Append(keys);
    for (uint64_t k = 0; k < 20; ++k) {
      ASSERT_EQ(RowsOf(index, keys, k), ScanRows(keys, keys.size(), k));
    }
  }
}

TEST(KeyIndexTest, BuildRelinksOverSurvivors) {
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 1000; ++i) keys.push_back(i % 50);
  KeyIndex index;
  index.Build(keys);
  std::vector<uint64_t> survivors;
  for (size_t r = 0; r < keys.size(); ++r) {
    if (r % 3 != 0 && keys[r] != 9) survivors.push_back(keys[r]);
  }
  index.Build(survivors);
  EXPECT_EQ(index.size(), survivors.size());
  for (uint64_t k = 0; k < 50; ++k) {
    EXPECT_EQ(RowsOf(index, survivors, k),
              ScanRows(survivors, survivors.size(), k));
  }
  EXPECT_TRUE(RowsOf(index, survivors, 9).empty());
}

// A seeded stream of appends, truncations, survivor relinks and finds,
// checked against a std::multimap key → row reference after every op.
TEST(KeyIndexTest, MatchesMultimapReference) {
  Rng rng(11);
  std::vector<uint64_t> keys;
  std::multimap<uint64_t, uint32_t> ref;
  KeyIndex index;
  auto relink_ref = [&] {
    ref.clear();
    for (size_t r = 0; r < keys.size(); ++r) {
      ref.emplace(keys[r], static_cast<uint32_t>(r));
    }
  };
  auto check = [&](uint64_t key) {
    std::vector<uint32_t> want;
    auto [lo, hi] = ref.equal_range(key);
    for (auto it = lo; it != hi; ++it) want.push_back(it->second);
    std::sort(want.begin(), want.end(), std::greater<>());
    ASSERT_EQ(RowsOf(index, keys, key), want) << "key " << key;
  };
  for (int op = 0; op < 3000; ++op) {
    const uint64_t kind = rng.NextBelow(10);
    if (kind < 5) {  // append a batch
      const uint64_t batch = 1 + rng.NextBelow(40);
      for (uint64_t i = 0; i < batch; ++i) {
        const uint64_t key = rng.NextBelow(300) * 0x10001;
        ref.emplace(key, static_cast<uint32_t>(keys.size()));
        keys.push_back(key);
      }
      index.Append(keys);
    } else if (kind < 7) {  // roll back to a prefix
      const size_t n = rng.NextBelow(keys.size() + 1);
      index.Truncate(keys, n);
      keys.resize(n);
      relink_ref();
    } else if (kind < 8) {  // compact: keep a random subset, relink
      std::vector<uint64_t> survivors;
      for (uint64_t k : keys) {
        if (rng.NextBelow(4) != 0) survivors.push_back(k);
      }
      keys.swap(survivors);
      index.Build(keys);
      relink_ref();
    }
    ASSERT_EQ(index.size(), keys.size());
    check(rng.NextBelow(300) * 0x10001);
    if (!keys.empty()) check(keys[rng.NextBelow(keys.size())]);
  }
}

}  // namespace
}  // namespace ccf
