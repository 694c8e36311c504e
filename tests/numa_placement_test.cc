// NUMA placement differential suite: a ShardedCcf placed on a multi-node
// topology (shards round-robin over nodes, node-bound table pages,
// node-pinned build/commit/resize workers) must be bit-identical to an
// unplaced one — same serialized bytes for builds and commits, same
// answers on every read path, staged writes and erases included. Runs on
// single-node machines by injecting mock topologies with
// SetTopologyForTesting. A filter snapshots the topology at construction,
// so each reference filter is built first, under an injected one-node
// topology (unplaced whatever the environment says), and the placed one
// after the multi-node injection. All placement syscalls are best-effort,
// so cpu-less mock nodes degrade to unpinned execution without changing
// any answer. The suites keep their NumaRouting names so their test ids
// stay stable.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ccf/sharded_ccf.h"
#include "util/random.h"
#include "util/topology.h"

namespace ccf {
namespace {

CcfConfig TestConfig(uint64_t salt) {
  CcfConfig config;
  config.num_buckets = 8192;
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

Rows MakeRows(int n, uint64_t seed) {
  Rows rows;
  Rng rng(seed);
  int num_keys = n / 3;
  for (int i = 0; i < n; ++i) {
    rows.keys.push_back(static_cast<uint64_t>(i % num_keys));
    rows.flat_attrs.push_back(rng.NextBelow(200));
    rows.flat_attrs.push_back(rng.NextBelow(50));
  }
  return rows;
}

// A mock topology with `n` nodes splitting the REAL cpus round-robin, so
// kernel-accepted pinning still happens wherever the machine allows it
// (nodes that end up cpu-less just take the graceful no-op path).
std::shared_ptr<const NumaTopology> MockNodes(int n) {
  auto topo = std::make_shared<NumaTopology>();
  topo->num_nodes = n;
  topo->node_cpus.assign(static_cast<size_t>(n), {});
  int cpus = std::max(1u, std::thread::hardware_concurrency());
  for (int c = 0; c < cpus; ++c) {
    topo->node_cpus[static_cast<size_t>(c % n)].push_back(c);
  }
  topo->from_sysfs = true;
  return topo;
}

// Tests inject a mock multi-node topology for the body; TearDown always
// restores the real one, even on assertion failure.
class NumaRoutingTest : public ::testing::TestWithParam<CcfVariant> {
 protected:
  void TearDown() override { SetTopologyForTesting(nullptr); }
};

ShardedCcfOptions Options() {
  ShardedCcfOptions opts;
  opts.num_shards = 8;
  return opts;
}

TEST_P(NumaRoutingTest, RoutedLookupsMatchSyncIncludingStagedCrud) {
  Rows rows = MakeRows(9000, 17);

  SetTopologyForTesting(MockNodes(1));
  auto ref =
      ShardedCcf::Make(GetParam(), TestConfig(77), Options()).ValueOrDie();
  SetTopologyForTesting(MockNodes(2));
  auto numa =
      ShardedCcf::Make(GetParam(), TestConfig(77), Options()).ValueOrDie();
  ASSERT_TRUE(ref->InsertParallel(rows.keys, rows.flat_attrs).ok());
  ASSERT_TRUE(numa->InsertParallel(rows.keys, rows.flat_attrs).ok());

  // Stage (but do not commit) extra writes AND erases of committed rows,
  // so placed lookups must agree through the overlay fast path and the
  // erase-aware exact slow path alike.
  std::vector<uint64_t> staged_keys;
  std::vector<uint64_t> staged_attrs;
  for (uint64_t k = 500000; k < 500200; ++k) {
    staged_keys.push_back(k);
    staged_attrs.push_back(k % 97);
    staged_attrs.push_back(k % 13);
  }
  ASSERT_TRUE(ref->BufferWriteBatch(staged_keys, staged_attrs).ok());
  ASSERT_TRUE(numa->BufferWriteBatch(staged_keys, staged_attrs).ok());
  for (size_t i = 0; i < 300; i += 3) {
    std::span<const uint64_t> attrs(&rows.flat_attrs[2 * i], 2);
    ASSERT_TRUE(ref->BufferErase(rows.keys[i], attrs).ok());
    ASSERT_TRUE(numa->BufferErase(rows.keys[i], attrs).ok());
  }

  // Probe set: committed hits, staged hits, erased rows, and misses.
  std::vector<uint64_t> probes;
  for (size_t i = 0; i < rows.keys.size(); i += 7) {
    probes.push_back(rows.keys[i]);
  }
  probes.insert(probes.end(), staged_keys.begin(), staged_keys.end());
  for (uint64_t k = 900000; k < 900500; ++k) probes.push_back(k);

  // A value most committed rows can carry, so both hit and miss branches
  // fire.
  Predicate pred = Predicate::Equals(1, 7);
  std::vector<bool> scalar_ref, scalar_numa;
  for (uint64_t k : probes) {
    scalar_ref.push_back(ref->ContainsKey(k));
    scalar_numa.push_back(numa->ContainsKey(k));
    EXPECT_EQ(ref->Contains(k, pred), numa->Contains(k, pred)) << k;
  }
  EXPECT_EQ(scalar_ref, scalar_numa);

  std::vector<uint8_t> batch_ref(probes.size()), batch_numa(probes.size());
  {
    std::unique_ptr<bool[]> ra(new bool[probes.size()]);
    std::unique_ptr<bool[]> rb(new bool[probes.size()]);
    ref->ContainsKeyBatch(probes, std::span<bool>(ra.get(), probes.size()));
    numa->ContainsKeyBatch(probes, std::span<bool>(rb.get(), probes.size()));
    for (size_t i = 0; i < probes.size(); ++i) {
      batch_ref[i] = ra[i];
      batch_numa[i] = rb[i];
      // Batch and scalar routes agree with each other too.
      EXPECT_EQ(static_cast<bool>(ra[i]), scalar_ref[i]) << "probe " << i;
    }
  }
  EXPECT_EQ(batch_ref, batch_numa);

  // Broadcast predicate lookups.
  std::unique_ptr<bool[]> pa(new bool[probes.size()]);
  std::unique_ptr<bool[]> pb(new bool[probes.size()]);
  ASSERT_TRUE(ref->LookupBatch(probes, std::span<const Predicate>(&pred, 1),
                               std::span<bool>(pa.get(), probes.size()))
                  .ok());
  ASSERT_TRUE(numa->LookupBatch(probes, std::span<const Predicate>(&pred, 1),
                                std::span<bool>(pb.get(), probes.size()))
                  .ok());
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(pa[i], pb[i]) << "probe " << i;
  }

  // Per-key predicates (the two-pass addressed path).
  std::vector<Predicate> per_key;
  for (size_t i = 0; i < probes.size(); ++i) {
    per_key.push_back(Predicate::Equals(static_cast<int>(i % 2), i % 11));
  }
  ASSERT_TRUE(ref->LookupBatch(probes, per_key,
                               std::span<bool>(pa.get(), probes.size()))
                  .ok());
  ASSERT_TRUE(numa->LookupBatch(probes, per_key,
                                std::span<bool>(pb.get(), probes.size()))
                  .ok());
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(pa[i], pb[i]) << "per-key probe " << i;
  }

  // After committing everything the serialized bytes must match exactly.
  ASSERT_TRUE(ref->CommitWrites().ok());
  ASSERT_TRUE(numa->CommitWrites(/*num_threads=*/4).ok());
  EXPECT_EQ(ref->Serialize(), numa->Serialize());
  EXPECT_EQ(ref->num_rows(), numa->num_rows());
}

TEST_P(NumaRoutingTest, ForcedNumaBuildIsBitIdenticalAcrossThreadCounts) {
  Rows rows = MakeRows(12000, 23);

  SetTopologyForTesting(MockNodes(1));
  auto off =
      ShardedCcf::Make(GetParam(), TestConfig(31), Options()).ValueOrDie();
  ASSERT_TRUE(off->InsertParallel(rows.keys, rows.flat_attrs, 1).ok());
  std::string want = off->Serialize();

  SetTopologyForTesting(MockNodes(4));
  for (int threads : {1, 2, 8}) {
    auto numa =
        ShardedCcf::Make(GetParam(), TestConfig(31), Options()).ValueOrDie();
    ASSERT_TRUE(
        numa->InsertParallel(rows.keys, rows.flat_attrs, threads).ok());
    EXPECT_EQ(numa->Serialize(), want) << "threads=" << threads;
  }
}

TEST_P(NumaRoutingTest, StripedCommitMatchesSequentialCommit) {
  Rows rows = MakeRows(6000, 41);

  SetTopologyForTesting(MockNodes(1));
  auto seq =
      ShardedCcf::Make(GetParam(), TestConfig(59), Options()).ValueOrDie();
  SetTopologyForTesting(MockNodes(2));
  auto striped =
      ShardedCcf::Make(GetParam(), TestConfig(59), Options()).ValueOrDie();
  ASSERT_TRUE(seq->BufferWriteBatch(rows.keys, rows.flat_attrs).ok());
  ASSERT_TRUE(striped->BufferWriteBatch(rows.keys, rows.flat_attrs).ok());
  ASSERT_TRUE(seq->CommitWrites(/*num_threads=*/1).ok());
  ASSERT_TRUE(striped->CommitWrites(/*num_threads=*/8).ok());
  EXPECT_EQ(seq->Serialize(), striped->Serialize());
  EXPECT_EQ(seq->pending_writes(), 0u);
  EXPECT_EQ(striped->pending_writes(), 0u);
}

TEST_P(NumaRoutingTest, DestructionReapsInFlightMaintenance) {
  // Regression for the teardown order: watermark resizes capture `this`
  // (and pin themselves to their shard's node) and the epoch domain holds
  // retire hooks that touch the shards — a placed filter destroyed with
  // maintenance in flight (no DrainMaintenance call) must join and
  // synchronize everything itself. Sanitizer runs catch any use-after-free
  // here.
  SetTopologyForTesting(MockNodes(2));
  Rows rows = MakeRows(9000, 67);
  for (int round = 0; round < 3; ++round) {
    ShardedCcfOptions opts = Options();
    opts.resize_watermark = 0.10;  // absurdly low: every commit schedules
    auto filter =
        ShardedCcf::Make(GetParam(), TestConfig(83), opts).ValueOrDie();
    ASSERT_TRUE(filter->BufferWriteBatch(rows.keys, rows.flat_attrs).ok());
    ASSERT_TRUE(filter->CommitWrites(/*num_threads=*/4).ok());
    // Fire lookups while the background rebuilds publish and retire.
    std::unique_ptr<bool[]> out(new bool[rows.keys.size()]);
    filter->ContainsKeyBatch(rows.keys,
                             std::span<bool>(out.get(), rows.keys.size()));
    for (size_t i = 0; i < rows.keys.size(); ++i) {
      ASSERT_TRUE(out[i]) << "false negative on key " << rows.keys[i];
    }
    // Destroy immediately: maintenance futures join, then the domain
    // synchronizes — in that order.
  }
}

TEST_P(NumaRoutingTest, DeserializedFilterServesUnderForcedNuma) {
  Rows rows = MakeRows(6000, 91);
  SetTopologyForTesting(MockNodes(1));
  auto built =
      ShardedCcf::Make(GetParam(), TestConfig(13), Options()).ValueOrDie();
  ASSERT_TRUE(built->InsertParallel(rows.keys, rows.flat_attrs).ok());
  const std::string blob = built->Serialize();
  auto off = ShardedCcf::Deserialize(blob).ValueOrDie();
  // Deserialize snapshots the injected 2-node topology, so this restored
  // filter is placed.
  SetTopologyForTesting(MockNodes(2));
  auto numa = ShardedCcf::Deserialize(blob).ValueOrDie();
  std::vector<uint64_t> probes;
  for (size_t i = 0; i < rows.keys.size(); i += 5) {
    probes.push_back(rows.keys[i]);
  }
  for (uint64_t k = 700000; k < 700300; ++k) probes.push_back(k);
  std::unique_ptr<bool[]> a(new bool[probes.size()]);
  std::unique_ptr<bool[]> b(new bool[probes.size()]);
  off->ContainsKeyBatch(probes, std::span<bool>(a.get(), probes.size()));
  numa->ContainsKeyBatch(probes, std::span<bool>(b.get(), probes.size()));
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "probe " << i;
  }
  // Both restored filters stay writable: committed writes land identically.
  Rows extra = MakeRows(900, 93);
  for (auto* f : {off.get(), numa.get()}) {
    auto* sharded = static_cast<ShardedCcf*>(f);
    ASSERT_TRUE(sharded->BufferWriteBatch(extra.keys, extra.flat_attrs).ok());
    ASSERT_TRUE(sharded->CommitWrites(/*num_threads=*/4).ok());
  }
  EXPECT_EQ(off->Serialize(), numa->Serialize());
}

TEST(NumaRoutingPolicyTest, AutoPolicyIsInertOnSingleNode) {
  // A one-node topology (the CCF_NUMA=off shape) leaves placement off:
  // the filter builds and serves exactly like one built under the
  // environment's topology.
  ShardedCcfOptions opts;
  opts.num_shards = 4;
  Rows rows = MakeRows(3000, 3);
  auto ref =
      ShardedCcf::Make(CcfVariant::kMixed, TestConfig(7), opts).ValueOrDie();
  ASSERT_TRUE(ref->InsertParallel(rows.keys, rows.flat_attrs).ok());
  SetTopologyForTesting(MockNodes(1));
  auto filter =
      ShardedCcf::Make(CcfVariant::kMixed, TestConfig(7), opts).ValueOrDie();
  ASSERT_TRUE(filter->InsertParallel(rows.keys, rows.flat_attrs).ok());
  EXPECT_EQ(filter->Serialize(), ref->Serialize());
  std::unique_ptr<bool[]> out(new bool[rows.keys.size()]);
  filter->ContainsKeyBatch(rows.keys,
                           std::span<bool>(out.get(), rows.keys.size()));
  for (size_t i = 0; i < rows.keys.size(); ++i) {
    EXPECT_TRUE(out[i]);  // no false negatives
  }
  SetTopologyForTesting(nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, NumaRoutingTest,
    ::testing::Values(CcfVariant::kPlain, CcfVariant::kChained,
                      CcfVariant::kBloom, CcfVariant::kMixed),
    [](const ::testing::TestParamInfo<CcfVariant>& pinfo) {
      return std::string(CcfVariantName(pinfo.param));
    });

}  // namespace
}  // namespace ccf
