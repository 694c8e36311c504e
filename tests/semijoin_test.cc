// Unit tests of the exact semijoin machinery on tiny hand-built tables
// (the integration test covers the generated-dataset path).
#include "join/semijoin.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <unordered_map>

namespace ccf {
namespace {

TableData MakeMovies() {
  TableData td;
  td.spec.name = "movies";
  td.spec.key_column = "id";
  td.spec.predicate_columns = {"kind", "production_year"};
  td.table = Table("movies", {"id", "kind", "production_year"});
  // id, kind, year
  td.table.AppendRow(std::vector<uint64_t>{1, 1, 1990});
  td.table.AppendRow(std::vector<uint64_t>{2, 1, 2000});
  td.table.AppendRow(std::vector<uint64_t>{3, 2, 2005});
  td.table.AppendRow(std::vector<uint64_t>{4, 2, 2010});
  return td;
}

TableData MakeCast() {
  TableData td;
  td.spec.name = "cast";
  td.spec.key_column = "movie_id";
  td.spec.predicate_columns = {"role"};
  td.table = Table("cast", {"movie_id", "role"});
  td.table.AppendRow(std::vector<uint64_t>{1, 4});
  td.table.AppendRow(std::vector<uint64_t>{1, 5});
  td.table.AppendRow(std::vector<uint64_t>{2, 4});
  td.table.AppendRow(std::vector<uint64_t>{3, 6});
  return td;
}

RangeBinner Binner() {
  return RangeBinner::Make(kYearLo, kYearHi, kYearBins).ValueOrDie();
}

TEST(MatchMaskTest, EqualityPredicate) {
  TableData movies = MakeMovies();
  QueryPredicate pred{"movies", "kind", false, 1, 0, 0};
  RangeBinner binner = Binner();
  auto mask = MatchMask(movies, {&pred}, YearMode::kExact, binner)
                  .ValueOrDie();
  EXPECT_EQ(mask, (std::vector<char>{1, 1, 0, 0}));
}

TEST(MatchMaskTest, RangePredicateExactVsBinned) {
  TableData movies = MakeMovies();
  QueryPredicate pred{"movies", "production_year", true, 0, 1995, 2006};
  RangeBinner binner = Binner();
  auto exact = MatchMask(movies, {&pred}, YearMode::kExact, binner)
                   .ValueOrDie();
  EXPECT_EQ(exact, (std::vector<char>{0, 1, 1, 0}));
  // Binned semantics admit everything whose bin is covered — a superset.
  auto binned = MatchMask(movies, {&pred}, YearMode::kBinned, binner)
                    .ValueOrDie();
  for (size_t i = 0; i < exact.size(); ++i) {
    if (exact[i]) {
      EXPECT_TRUE(binned[i]) << i;  // never loses a true match
    }
  }
}

TEST(MatchMaskTest, ConjunctionAndUnknownColumn) {
  TableData movies = MakeMovies();
  QueryPredicate p1{"movies", "kind", false, 2, 0, 0};
  QueryPredicate p2{"movies", "production_year", true, 0, 2008, 2011};
  RangeBinner binner = Binner();
  auto mask =
      MatchMask(movies, {&p1, &p2}, YearMode::kExact, binner).ValueOrDie();
  EXPECT_EQ(mask, (std::vector<char>{0, 0, 0, 1}));

  QueryPredicate bad{"movies", "nonexistent", false, 1, 0, 0};
  EXPECT_FALSE(MatchMask(movies, {&bad}, YearMode::kExact, binner).ok());
}

TEST(SurvivingKeysTest, CollectsDistinctMatchingKeys) {
  TableData cast = MakeCast();
  std::vector<char> mask = {1, 1, 0, 1};
  auto keys = SurvivingKeys(cast, mask);
  EXPECT_EQ(keys.size(), 2u);  // rows 0,1 share key 1; row 3 is key 3
  EXPECT_TRUE(keys.contains(1));
  EXPECT_TRUE(keys.contains(3));
  EXPECT_FALSE(keys.contains(2));
}

TEST(SurvivingKeysTest, CheckedFormMatchesAndRejectsBadInput) {
  TableData cast = MakeCast();
  auto keys = CollectSurvivingKeys(cast, {1, 1, 0, 1});
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(*keys, SurvivingKeys(cast, {1, 1, 0, 1}));

  // A mask shorter than the table is rejected, not read past its end.
  auto short_mask = CollectSurvivingKeys(cast, {1, 1});
  ASSERT_FALSE(short_mask.ok());
  EXPECT_EQ(short_mask.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(SurvivingKeys(cast, {1, 1}).empty());

  // A missing key column is an error, not an empty key set.
  TableData no_key = MakeCast();
  no_key.spec.key_column = "nonexistent";
  EXPECT_FALSE(CollectSurvivingKeys(no_key, {1, 1, 0, 1}).ok());
}

TableData MakeKeyOnly(const std::vector<uint64_t>& keys) {
  TableData td;
  td.spec.name = "keys";
  td.spec.key_column = "k";
  td.table = Table("keys", {"k"});
  td.table.Reserve(keys.size());
  for (uint64_t k : keys) td.table.AppendRow(std::vector<uint64_t>{k});
  return td;
}

// Checks `d` against a map built row by row: first-appearance order, the
// per-key row counts, and Find for every present key.
void ExpectMatchesReference(const DistinctKeys& d,
                            const std::vector<uint64_t>& keys,
                            const std::vector<char>& mask) {
  std::vector<uint64_t> order;
  std::unordered_map<uint64_t, uint32_t> rows;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!mask[i]) continue;
    if (rows[keys[i]]++ == 0) order.push_back(keys[i]);
  }
  ASSERT_EQ(d.keys, order);
  ASSERT_EQ(d.rows.size(), order.size());
  for (size_t id = 0; id < order.size(); ++id) {
    EXPECT_EQ(d.rows[id], rows[order[id]]) << order[id];
    EXPECT_EQ(d.Find(order[id]), static_cast<int64_t>(id)) << order[id];
  }
}

TEST(CollectDistinctKeysTest, FirstAppearanceOrderAndRowCounts) {
  std::vector<uint64_t> keys = {7, 3, 7, 9, 3, 3, 12, 9, 5};
  std::vector<char> mask = {1, 1, 1, 0, 1, 1, 1, 1, 0};
  auto d = CollectDistinctKeys(MakeKeyOnly(keys), mask).ValueOrDie();
  EXPECT_EQ(d.keys, (std::vector<uint64_t>{7, 3, 12, 9}));
  EXPECT_EQ(d.rows, (std::vector<uint32_t>{2, 3, 1, 1}));
  uint64_t sum = 0;
  for (uint32_t r : d.rows) sum += r;
  uint64_t popcount = 0;
  for (char m : mask) popcount += m != 0;
  EXPECT_EQ(sum, popcount);
  ExpectMatchesReference(d, keys, mask);
  EXPECT_EQ(d.Find(5), -1);  // present only in an unmasked row
  EXPECT_EQ(d.Find(4), -1);  // absent from the table
}

TEST(CollectDistinctKeysTest, ExtremeKeyValuesAreOrdinaryKeys) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  std::vector<uint64_t> keys = {0, kMax, 0, 1, kMax, kMax};
  std::vector<char> mask(keys.size(), 1);
  auto d = CollectDistinctKeys(MakeKeyOnly(keys), mask).ValueOrDie();
  EXPECT_EQ(d.keys, (std::vector<uint64_t>{0, kMax, 1}));
  EXPECT_EQ(d.rows, (std::vector<uint32_t>{2, 3, 1}));
  EXPECT_EQ(d.Find(0), 0);
  EXPECT_EQ(d.Find(kMax), 1);
  EXPECT_EQ(d.Find(kMax - 1), -1);

  // Without key 0 among the masked rows, an empty slot must not read as 0.
  std::vector<char> skip_zero = {0, 1, 0, 1, 1, 1};
  auto e = CollectDistinctKeys(MakeKeyOnly(keys), skip_zero).ValueOrDie();
  EXPECT_EQ(e.Find(0), -1);
  ExpectMatchesReference(e, keys, skip_zero);
}

TEST(CollectDistinctKeysTest, ManyDistinctKeysForceSeveralDoublings) {
  // 150k distinct keys (plus repeats and masked-out rows), spread over the
  // whole key space and also packed densely, so the index doubles from its
  // small start well past 2^18 slots.
  std::vector<uint64_t> keys;
  std::vector<char> mask;
  for (uint64_t i = 0; i < 150000; ++i) {
    keys.push_back(i % 2 == 0 ? i * 0x9E3779B97F4A7C15ULL : i);
    mask.push_back(1);
    if (i % 3 == 0) {
      keys.push_back(keys[i / 2]);
      mask.push_back(i % 9 != 0);
    }
  }
  auto d = CollectDistinctKeys(MakeKeyOnly(keys), mask).ValueOrDie();
  EXPECT_EQ(d.keys.size(), 150000u);
  EXPECT_GE(d.slots.size(), 2 * d.keys.size());
  ExpectMatchesReference(d, keys, mask);
  EXPECT_EQ(d.Find(1ULL << 40), -1);
}

TEST(CollectDistinctKeysTest, EmptyTableAndEmptyMask) {
  auto empty = CollectDistinctKeys(MakeKeyOnly({}), {}).ValueOrDie();
  EXPECT_TRUE(empty.keys.empty());
  EXPECT_TRUE(empty.rows.empty());
  EXPECT_EQ(empty.Find(0), -1);

  std::vector<char> none(4, 0);
  auto d = CollectDistinctKeys(MakeKeyOnly({1, 2, 2, 3}), none).ValueOrDie();
  EXPECT_TRUE(d.keys.empty());
  EXPECT_TRUE(d.rows.empty());
  EXPECT_EQ(d.Find(2), -1);
}

TEST(CollectDistinctKeysTest, RejectsMaskOfWrongLength) {
  TableData td = MakeKeyOnly({1, 2, 3, 4});
  auto short_mask = CollectDistinctKeys(td, std::vector<char>(2, 1));
  ASSERT_FALSE(short_mask.ok());
  EXPECT_EQ(short_mask.status().code(), StatusCode::kInvalidArgument);
  auto long_mask = CollectDistinctKeys(td, std::vector<char>(5, 1));
  ASSERT_FALSE(long_mask.ok());
  EXPECT_EQ(long_mask.status().code(), StatusCode::kInvalidArgument);
}

TEST(ComputeExactCountsTest, TinyJoinByHand) {
  ImdbDataset dataset;
  dataset.num_titles = 4;
  dataset.tables.push_back(MakeMovies());
  dataset.tables.push_back(MakeCast());

  JoinQuery query;
  query.id = 1;
  query.tables = {"movies", "cast"};
  query.predicates = {
      {"movies", "kind", false, 1, 0, 0},   // movies 1, 2
      {"cast", "role", false, 4, 0, 0},     // cast rows of movies 1, 2
  };
  std::vector<JoinQuery> queries = {query};
  RangeBinner binner = Binner();
  auto counts = ComputeExactCounts(dataset, queries, binner).ValueOrDie();
  ASSERT_EQ(counts.size(), 2u);

  // Base = movies: kind=1 keeps ids {1, 2}; both have role-4 cast rows.
  EXPECT_EQ(counts[0].base_table, "movies");
  EXPECT_EQ(counts[0].m_predicate, 2u);
  EXPECT_EQ(counts[0].m_semijoin, 2u);
  // Base = cast: role=4 keeps rows {0, 2} (movies 1 and 2, both kind=1).
  EXPECT_EQ(counts[1].base_table, "cast");
  EXPECT_EQ(counts[1].m_predicate, 2u);
  EXPECT_EQ(counts[1].m_semijoin, 2u);
  EXPECT_EQ(counts[1].num_joins, 1);
}

TEST(ComputeExactCountsTest, SemijoinActuallyReduces) {
  ImdbDataset dataset;
  dataset.num_titles = 4;
  dataset.tables.push_back(MakeMovies());
  dataset.tables.push_back(MakeCast());

  JoinQuery query;
  query.id = 2;
  query.tables = {"movies", "cast"};
  query.predicates = {{"cast", "role", false, 6, 0, 0}};  // only movie 3
  std::vector<JoinQuery> queries = {query};
  RangeBinner binner = Binner();
  auto counts = ComputeExactCounts(dataset, queries, binner).ValueOrDie();
  // Base movies: no local predicate keeps all 4; semijoin vs cast(role=6)
  // keeps only id 3.
  EXPECT_EQ(counts[0].m_predicate, 4u);
  EXPECT_EQ(counts[0].m_semijoin, 1u);
  EXPECT_DOUBLE_EQ(counts[0].RfSemijoin(), 0.25);
}

}  // namespace
}  // namespace ccf
