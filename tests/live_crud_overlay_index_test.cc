// The staged overlay's per-key chain index, against an oracle and against
// concurrent writers. Every read path — scalar, per-key batch, broadcast
// and key batch — resolves staged records through
// one snapshot walk of the queried key's chain. These tests pin that walk:
// a differential over overlays that grow mid-stage, recycle retired blocks
// and chain keys that share a head slot (every path must agree with a
// row-log oracle and with every other path), and a race where an update is
// published while readers probe the key it moves (a live key must never
// read false, not even for an instant).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ccf/ccf_base.h"
#include "ccf/sharded_ccf.h"
#include "util/random.h"
#include "util/topology.h"

namespace ccf {
namespace {

std::string VariantName(const ::testing::TestParamInfo<CcfVariant>& info) {
  return std::string(CcfVariantName(info.param));
}

const auto kAllVariants =
    ::testing::Values(CcfVariant::kPlain, CcfVariant::kChained,
                      CcfVariant::kBloom, CcfVariant::kMixed);

CcfConfig IndexConfig() {
  CcfConfig config;
  config.num_buckets = 512;
  config.slots_per_bucket = 6;
  config.key_fp_bits = 12;
  config.attr_fp_bits = 8;
  config.bloom_bits = 16;
  config.num_attrs = 2;
  config.max_dupes = 3;
  config.salt = 41;
  return config;
}

// --- Differential against a row-log oracle ---------------------------------

// A mock two-node topology over the real cpus (the numa_placement_test
// shape): filters built under it bind shard pages and pin commit workers
// per node.
std::shared_ptr<const NumaTopology> MockTwoNodes() {
  auto topo = std::make_shared<NumaTopology>();
  topo->num_nodes = 2;
  topo->node_cpus.assign(2, {});
  int cpus = std::max(1u, std::thread::hardware_concurrency());
  for (int c = 0; c < cpus; ++c) {
    topo->node_cpus[static_cast<size_t>(c % 2)].push_back(c);
  }
  topo->from_sysfs = true;
  return topo;
}

class LiveCrudOverlayIndexTest : public ::testing::TestWithParam<CcfVariant> {
 protected:
  void TearDown() override { SetTopologyForTesting(nullptr); }
};

struct OracleRow {
  uint64_t key;
  std::vector<uint64_t> attrs;
  bool live;
};

// Two filters take the same staged CRUD stream: one unplaced, one placed
// on an injected two-node topology. Each round
// stages well over 64 records per shard (blocks grow mid-stage through
// Adopt, and commits hand retired blocks back through Reset), over a pool
// of ~100 keys per shard, so dozens of keys share a head slot. Ops include
// erase then re-insert of the same row and chained updates (a→b→c in one
// round). Live rows must read true on every path; every path must give
// the scalar answer; the filter placed on an injected two-node topology
// must give the unplaced one.
TEST_P(LiveCrudOverlayIndexTest, EveryReadPathAgreesWithTheOracle) {
  ShardedCcfOptions opts;
  opts.num_shards = 2;
  opts.compact_watermark = 0;
  // Built before the injection: each filter snapshots the topology at
  // construction, so only the second one is placed.
  auto f = ShardedCcf::Make(GetParam(), IndexConfig(), opts).ValueOrDie();
  SetTopologyForTesting(MockTwoNodes());
  auto placed = ShardedCcf::Make(GetParam(), IndexConfig(), opts).ValueOrDie();
  ShardedCcf* filters[] = {f.get(), placed.get()};

  constexpr uint64_t kPool = 200;
  std::vector<OracleRow> oracle;
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  auto random_attrs = [&] {
    return std::vector<uint64_t>{rng.NextBelow(3), rng.NextBelow(3)};
  };
  auto kill = [&](uint64_t key, const std::vector<uint64_t>& attrs) {
    for (OracleRow& r : oracle) {
      if (r.key == key && r.attrs == attrs) r.live = false;
    }
  };
  auto random_live = [&]() -> const OracleRow* {
    std::vector<const OracleRow*> live;
    for (const OracleRow& r : oracle) {
      if (r.live) live.push_back(&r);
    }
    return live.empty() ? nullptr : live[rng.NextBelow(live.size())];
  };
  auto write = [&](uint64_t key, std::vector<uint64_t> attrs) {
    for (ShardedCcf* x : filters) ASSERT_TRUE(x->BufferWrite(key, attrs).ok());
    oracle.push_back({key, std::move(attrs), true});
  };
  auto erase = [&](uint64_t key, const std::vector<uint64_t>& attrs) {
    for (ShardedCcf* x : filters) ASSERT_TRUE(x->BufferErase(key, attrs).ok());
    kill(key, attrs);
  };
  auto update = [&](uint64_t key, const std::vector<uint64_t>& from,
                    std::vector<uint64_t> to) {
    for (ShardedCcf* x : filters) {
      ASSERT_TRUE(x->BufferUpdate(key, from, to).ok());
    }
    kill(key, from);
    oracle.push_back({key, std::move(to), true});
  };

  auto check = [&](const std::string& when) {
    // Probes: every distinct row ever written (live or not), by its exact
    // vector.
    std::map<uint64_t, std::vector<std::vector<uint64_t>>> live;
    std::set<std::pair<uint64_t, std::vector<uint64_t>>> written;
    for (const OracleRow& r : oracle) {
      written.insert({r.key, r.attrs});
      if (r.live) live[r.key].push_back(r.attrs);
    }
    auto live_match = [&](uint64_t key, auto&& match) {
      auto it = live.find(key);
      return it != live.end() &&
             std::any_of(it->second.begin(), it->second.end(), match);
    };
    std::vector<uint64_t> keys;
    std::vector<Predicate> preds;
    for (const auto& [key, attrs] : written) {
      keys.push_back(key);
      preds.push_back(Predicate::Equals(0, attrs[0]).AndEquals(1, attrs[1]));
    }
    const size_t n = keys.size();
    std::vector<bool> scalar(n), scalar_key(n);
    size_t row = 0;
    for (const auto& [key, attrs] : written) {
      scalar[row] = f->Contains(key, preds[row]);
      scalar_key[row] = f->ContainsKey(key);
      if (live_match(key, [&](const auto& a) { return a == attrs; })) {
        ASSERT_TRUE(scalar[row]) << when << ": live row of key " << key;
      }
      if (live.count(key) != 0) {
        ASSERT_TRUE(scalar_key[row]) << when << ": live key " << key;
      }
      ++row;
    }
    std::unique_ptr<bool[]> out(new bool[n + 1]);
    std::span<bool> out_span(out.get(), n);
    for (ShardedCcf* x : filters) {
      const std::string who = when + (x == f.get() ? " unplaced" : " placed");
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(x->Contains(keys[i], preds[i]), scalar[i]) << who;
        ASSERT_EQ(x->ContainsKey(keys[i]), scalar_key[i]) << who;
      }
      ASSERT_TRUE(x->LookupBatch(keys, preds, out_span).ok());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], scalar[i]) << who << " per-key batch " << keys[i];
      }
      x->ContainsKeyBatch(keys, out_span);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], scalar_key[i]) << who << " key batch " << keys[i];
      }
      // Broadcast: one predicate over every probe key.
      for (uint64_t a0 = 0; a0 < 3; ++a0) {
        const Predicate pred = Predicate::Equals(0, a0);
        ASSERT_TRUE(
            x->LookupBatch(keys, std::span<const Predicate>(&pred, 1), out_span)
                .ok());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(out[i], f->Contains(keys[i], pred))
              << who << " broadcast a0=" << a0 << ", key " << keys[i];
          if (live_match(keys[i], [&](const auto& a) { return a[0] == a0; })) {
            ASSERT_TRUE(out[i]) << who << " broadcast, key " << keys[i];
          }
        }
      }
    }
  };

  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    const std::string tag = " round " + std::to_string(round);
    for (int op = 0; op < 240; ++op) {
      const uint64_t kind = rng.NextBelow(10);
      const OracleRow* victim = random_live();
      if (kind < 4 || victim == nullptr) {
        write(rng.NextBelow(kPool), random_attrs());
      } else if (kind < 6) {
        OracleRow row = *victim;
        erase(row.key, row.attrs);
      } else if (kind < 7) {
        // Erase, then re-insert the same row: the newer insert wins.
        OracleRow row = *victim;
        erase(row.key, row.attrs);
        write(row.key, row.attrs);
      } else if (kind < 9) {
        OracleRow row = *victim;
        update(row.key, row.attrs, random_attrs());
      } else {
        // Chained updates within one staged batch: a → b → c.
        OracleRow row = *victim;
        std::vector<uint64_t> mid = random_attrs();
        update(row.key, row.attrs, mid);
        update(row.key, mid, random_attrs());
      }
      if (HasFatalFailure()) return;
      if (op == 40) {
        check("staged (small overlay)" + tag);
        if (HasFatalFailure()) return;
      }
    }
    check("staged" + tag);
    if (HasFatalFailure()) return;
    for (ShardedCcf* x : filters) ASSERT_TRUE(x->CommitWrites().ok()) << tag;
    check("committed" + tag);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, LiveCrudOverlayIndexTest, kAllVariants,
                         VariantName);

// --- An update published mid-read ------------------------------------------

class LiveCrudUpdateRaceTest : public ::testing::TestWithParam<CcfVariant> {};

// One shard whose overlay holds 2000 erases of absent keys, so a read of
// any key meets staged tombstones. The writer updates each of 64 committed
// keys in turn (erase of the current version + insert of the next, one
// release store), and before each update waits until both readers are
// probing that very key. Every key is live throughout, so any false read
// is a false negative. A reader that took the staged and the tombstone
// halves of its answer from two different overlay snapshots could see the
// erase without the insert that replaces it.
TEST_P(LiveCrudUpdateRaceTest, UpdatedKeyNeverReadsAbsent) {
  ShardedCcfOptions opts;
  opts.num_shards = 1;
  opts.compact_watermark = 0;
  auto f = ShardedCcf::Make(GetParam(), IndexConfig(), opts).ValueOrDie();

  constexpr uint64_t kKeys = 64;
  auto attrs_of = [](uint64_t key, uint64_t version) {
    return std::vector<uint64_t>{version % 200, key};
  };
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(f->BufferWrite(k, attrs_of(k, 0)).ok());
  }
  ASSERT_TRUE(f->CommitWrites().ok());

  std::atomic<int64_t> target{-1};
  std::atomic<uint64_t> probes{0};
  std::atomic<int> false_negatives{0};
  std::atomic<bool> stop{false};
  constexpr int kReaders = 2;
  std::vector<std::thread> readers;
  // Joins the readers on every exit from the test body, failed asserts
  // included.
  struct Joiner {
    std::atomic<bool>* stop;
    std::vector<std::thread>* threads;
    ~Joiner() {
      stop->store(true, std::memory_order_release);
      for (auto& t : *threads) t.join();
    }
  } joiner{&stop, &readers};
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      bool out[1];
      uint64_t iter = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const int64_t k = target.load(std::memory_order_acquire);
        if (k < 0) continue;
        const uint64_t key = static_cast<uint64_t>(k);
        probes.fetch_add(1, std::memory_order_relaxed);
        bool hit;
        if ((iter++ + static_cast<uint64_t>(t)) % 2 == 0) {
          hit = f->ContainsKey(key);
        } else {
          f->ContainsKeyBatch(std::span<const uint64_t>(&key, 1),
                              std::span<bool>(out, 1));
          hit = out[0];
        }
        if (!hit) false_negatives.fetch_add(1);
      }
    });
  }

  // Bounded by wall time as well as rounds, so slow (sanitized) builds
  // stay short.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(800);
  constexpr uint64_t kMaxRounds = 40;
  uint64_t rounds = 0;
  while (rounds < kMaxRounds && std::chrono::steady_clock::now() < deadline) {
    for (uint64_t i = 0; i < 2000; ++i) {
      ASSERT_TRUE(f->BufferErase(1000000 + i, attrs_of(i, 0)).ok());
    }
    for (uint64_t k = 0; k < kKeys; ++k) {
      target.store(static_cast<int64_t>(k), std::memory_order_release);
      // Let both readers pick the key up (bounded: a descheduled reader
      // only weakens the check, never fails it).
      const uint64_t seen = probes.load(std::memory_order_relaxed);
      for (int spin = 0; spin < 20000; ++spin) {
        if (probes.load(std::memory_order_relaxed) >= seen + 4) break;
        std::this_thread::yield();
      }
      ASSERT_TRUE(
          f->BufferUpdate(k, attrs_of(k, rounds), attrs_of(k, rounds + 1))
              .ok());
    }
    ASSERT_TRUE(f->CommitWrites().ok());
    // Clear the replaced versions' residue: a residue entry would answer
    // the key-only probe and mask a missed insert.
    ASSERT_TRUE(f->Compact().ok());
    ++rounds;
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  readers.clear();

  EXPECT_EQ(false_negatives.load(), 0) << "over " << rounds << " rounds, "
                                       << probes.load() << " probes";
  EXPECT_GT(rounds, 0);
  for (uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_TRUE(f->Contains(
        k, Predicate::Equals(0, rounds % 200)))
        << "key " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, LiveCrudUpdateRaceTest, kAllVariants,
                         VariantName);

}  // namespace
}  // namespace ccf
