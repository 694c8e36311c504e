// util/topology.h: sysfs parsing (real-shaped and malformed fixtures),
// the CCF_NUMA/CCF_NUMA_SYSFS resolution order, graceful single-node
// fallback, and the best-effort placement primitives. Fixtures are built
// as real temp directories so DetectTopologyFrom runs the same dirent +
// cpulist code the production path does.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <utility>
#include <vector>

#include "util/topology.h"

namespace ccf {
namespace {

// A throwaway sysfs-style node directory; nodes are (kernel id, cpulist)
// pairs written as node<k>/cpulist files.
class MockSysfs {
 public:
  explicit MockSysfs(
      const std::vector<std::pair<int, std::string>>& nodes) {
    char templ[] = "/tmp/ccf_topology_test_XXXXXX";
    char* made = mkdtemp(templ);
    EXPECT_NE(made, nullptr);
    dir_ = made;
    for (const auto& [id, cpulist] : nodes) {
      std::string node_dir = dir_ + "/node" + std::to_string(id);
      EXPECT_EQ(mkdir(node_dir.c_str(), 0755), 0);
      std::ofstream out(node_dir + "/cpulist");
      out << cpulist;
    }
  }
  ~MockSysfs() {
    // Best-effort cleanup; leaked temp dirs are harmless in CI.
    std::string cmd = "rm -rf " + dir_;
    (void)system(cmd.c_str());
  }

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

// Restores the process topology cache and the two env knobs on scope exit,
// so env-twiddling tests cannot leak state into each other.
class TopologyEnvGuard {
 public:
  TopologyEnvGuard() {
    save("CCF_NUMA", &numa_);
    save("CCF_NUMA_SYSFS", &sysfs_);
  }
  ~TopologyEnvGuard() {
    restore("CCF_NUMA", numa_);
    restore("CCF_NUMA_SYSFS", sysfs_);
    SetTopologyForTesting(nullptr);
  }

 private:
  void save(const char* name, std::pair<bool, std::string>* slot) {
    const char* v = std::getenv(name);
    *slot = {v != nullptr, v != nullptr ? std::string(v) : std::string()};
  }
  void restore(const char* name, const std::pair<bool, std::string>& slot) {
    if (slot.first) {
      setenv(name, slot.second.c_str(), 1);
    } else {
      unsetenv(name);
    }
  }
  std::pair<bool, std::string> numa_, sysfs_;
};

TEST(TopologyParseTest, ParsesMultiNodeWithRangesAndGaps) {
  // Kernel-shaped cpulists: ranges, commas, and a node-id gap (node0,
  // node2) that must densify to indices 0 and 1.
  MockSysfs fs({{0, "0-3,8-11"}, {2, "4-7,12-15"}});
  NumaTopology topo = DetectTopologyFrom(fs.dir());
  ASSERT_TRUE(topo.from_sysfs);
  ASSERT_EQ(topo.num_nodes, 2);
  EXPECT_EQ(topo.node_cpus[0],
            (std::vector<int>{0, 1, 2, 3, 8, 9, 10, 11}));
  EXPECT_EQ(topo.node_cpus[1],
            (std::vector<int>{4, 5, 6, 7, 12, 13, 14, 15}));
}

TEST(TopologyParseTest, MissingDirectoryFallsBackToSingleNode) {
  NumaTopology topo =
      DetectTopologyFrom("/nonexistent/ccf/topology/path");
  EXPECT_FALSE(topo.from_sysfs);
  EXPECT_EQ(topo.num_nodes, 1);
  ASSERT_EQ(topo.node_cpus.size(), 1u);
  EXPECT_FALSE(topo.node_cpus[0].empty());  // every hardware cpu on node 0
}

TEST(TopologyParseTest, MalformedCpulistFallsBackToSingleNode) {
  MockSysfs fs({{0, "0-1"}, {1, "banana"}});
  NumaTopology topo = DetectTopologyFrom(fs.dir());
  EXPECT_FALSE(topo.from_sysfs);
  EXPECT_EQ(topo.num_nodes, 1);
}

TEST(TopologyParseTest, ReversedRangeFallsBackToSingleNode) {
  MockSysfs fs({{0, "3-1"}});
  EXPECT_EQ(DetectTopologyFrom(fs.dir()).num_nodes, 1);
}

TEST(TopologyParseTest, CpuLessMemoryOnlyNodeIsKept) {
  // CXL-style memory-only node: it owns no cpus but still counts as a
  // node (shards can round-robin onto it; pinning there is the no-op
  // path).
  MockSysfs fs({{0, "0"}, {1, ""}});
  NumaTopology topo = DetectTopologyFrom(fs.dir());
  ASSERT_EQ(topo.num_nodes, 2);
  EXPECT_TRUE(topo.node_cpus[1].empty());
}

TEST(TopologyResolutionTest, EnvOffForcesSingleNode) {
  TopologyEnvGuard guard;
  MockSysfs fs({{0, "0"}, {1, "0"}});
  // CCF_NUMA=off outranks a mock sysfs pointing at a 2-node fixture.
  setenv("CCF_NUMA", "off", 1);
  setenv("CCF_NUMA_SYSFS", fs.dir().c_str(), 1);
  SetTopologyForTesting(nullptr);  // drop the cache; re-resolve from env
  EXPECT_EQ(SystemTopology()->num_nodes, 1);
  EXPECT_FALSE(NumaAvailable());
}

TEST(TopologyResolutionTest, EnvSysfsOverridesRealMachine) {
  TopologyEnvGuard guard;
  MockSysfs fs({{0, "0"}, {1, "0"}});
  unsetenv("CCF_NUMA");
  setenv("CCF_NUMA_SYSFS", fs.dir().c_str(), 1);
  SetTopologyForTesting(nullptr);
  std::shared_ptr<const NumaTopology> topo = SystemTopology();
  EXPECT_EQ(topo->num_nodes, 2);
  EXPECT_TRUE(topo->from_sysfs);
  EXPECT_TRUE(NumaAvailable());
}

TEST(TopologyResolutionTest, TestOverrideOutranksEnv) {
  TopologyEnvGuard guard;
  setenv("CCF_NUMA", "off", 1);
  auto fake = std::make_shared<NumaTopology>();
  fake->num_nodes = 3;
  fake->node_cpus.resize(3);
  SetTopologyForTesting(fake);
  EXPECT_EQ(SystemTopology()->num_nodes, 3);
  SetTopologyForTesting(nullptr);
  EXPECT_EQ(SystemTopology()->num_nodes, 1);  // env kicks back in
}

TEST(TopologyPlacementTest, PinToFallbackNodeSucceedsOnLinux) {
  // The single-node fallback names every real cpu, so the kernel accepts
  // the mask; run in a scratch thread so the test runner's own affinity
  // is untouched.
  NumaTopology topo = DetectTopologyFrom("/nonexistent");
  std::thread([&] {
    EXPECT_TRUE(PinThreadToNode(topo, 0).ok());
  }).join();
}

TEST(TopologyPlacementTest, PinRejectsBadNodesGracefully) {
  NumaTopology topo = DetectTopologyFrom("/nonexistent");
  EXPECT_FALSE(PinThreadToNode(topo, -1).ok());
  EXPECT_FALSE(PinThreadToNode(topo, 7).ok());
  // A node whose cpus the kernel lacks: rejected, not fatal.
  NumaTopology mock;
  mock.num_nodes = 2;
  mock.node_cpus = {{0}, {4000}};
  EXPECT_FALSE(PinThreadToNode(mock, 1).ok());
}

TEST(TopologyPlacementTest, BindMemoryRejectsBadNode) {
  uint64_t word = 0;
  EXPECT_FALSE(BindMemoryToNode(&word, sizeof(word), -1).ok());
  EXPECT_FALSE(BindMemoryToNode(&word, sizeof(word), 100000).ok());
}

TEST(TopologyPlacementTest, ScopedAllocNodeNests) {
  EXPECT_EQ(ScopedNumaAllocNode::current(), -1);
  {
    ScopedNumaAllocNode outer(1);
    EXPECT_EQ(ScopedNumaAllocNode::current(), 1);
    {
      ScopedNumaAllocNode inner(0);
      EXPECT_EQ(ScopedNumaAllocNode::current(), 0);
    }
    EXPECT_EQ(ScopedNumaAllocNode::current(), 1);
  }
  EXPECT_EQ(ScopedNumaAllocNode::current(), -1);
}

TEST(TopologyPlacementTest, ScopedAllocNodeIsThreadLocal) {
  ScopedNumaAllocNode scope(2);
  std::thread([] {
    EXPECT_EQ(ScopedNumaAllocNode::current(), -1);
  }).join();
  EXPECT_EQ(ScopedNumaAllocNode::current(), 2);
}

}  // namespace
}  // namespace ccf
