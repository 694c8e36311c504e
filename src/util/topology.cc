#include "util/topology.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>

#if defined(__linux__)
#include <dirent.h>
#include <pthread.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace ccf {

namespace {

// Largest cpu id we accept from a cpulist; guards against garbage fixtures
// allocating absurd maps.
constexpr int kMaxCpuId = 4095;

int HardwareCpuCount() {
#if defined(__linux__)
  long n = sysconf(_SC_NPROCESSORS_CONF);
  if (n >= 1) return static_cast<int>(n);
#endif
  return 1;
}

NumaTopology SingleNodeFallback() {
  NumaTopology topo;
  topo.num_nodes = 1;
  int cpus = HardwareCpuCount();
  topo.node_cpus.resize(1);
  for (int c = 0; c < cpus; ++c) topo.node_cpus[0].push_back(c);
  topo.from_sysfs = false;
  return topo;
}

// Parses a kernel cpulist string ("0-3,8,10-11") into cpu ids. Returns
// false on malformed input (the caller then discards the whole parse).
bool ParseCpuList(const std::string& text, std::vector<int>* out) {
  size_t i = 0;
  auto read_int = [&](int* value) {
    if (i >= text.size() || !std::isdigit(static_cast<unsigned char>(text[i])))
      return false;
    long v = 0;
    while (i < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[i]))) {
      v = v * 10 + (text[i] - '0');
      if (v > kMaxCpuId) return false;
      ++i;
    }
    *value = static_cast<int>(v);
    return true;
  };
  while (i < text.size()) {
    if (std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
      continue;
    }
    int lo;
    if (!read_int(&lo)) return false;
    int hi = lo;
    if (i < text.size() && text[i] == '-') {
      ++i;
      if (!read_int(&hi) || hi < lo) return false;
    }
    for (int c = lo; c <= hi; ++c) out->push_back(c);
    if (i < text.size() && text[i] == ',') ++i;
  }
  return true;
}

}  // namespace

NumaTopology DetectTopologyFrom(const std::string& node_dir) {
#if defined(__linux__)
  DIR* dir = opendir(node_dir.c_str());
  if (dir == nullptr) return SingleNodeFallback();
  std::vector<int> node_ids;
  while (dirent* entry = readdir(dir)) {
    const char* name = entry->d_name;
    if (std::strncmp(name, "node", 4) != 0) continue;
    char* end = nullptr;
    long id = std::strtol(name + 4, &end, 10);
    if (end == name + 4 || *end != '\0' || id < 0 || id > kMaxCpuId) continue;
    node_ids.push_back(static_cast<int>(id));
  }
  closedir(dir);
  if (node_ids.empty()) return SingleNodeFallback();
  // Node ids are made dense in sorted order: ShardedCcf assigns shards to
  // nodes by the dense index, not the kernel id.
  std::sort(node_ids.begin(), node_ids.end());

  NumaTopology topo;
  topo.node_cpus.resize(node_ids.size());
  for (size_t n = 0; n < node_ids.size(); ++n) {
    std::ifstream in(node_dir + "/node" + std::to_string(node_ids[n]) +
                     "/cpulist");
    if (!in) continue;  // cpu-less (memory-only) node: keep it, no cpus
    std::stringstream ss;
    ss << in.rdbuf();
    std::vector<int> cpus;
    if (!ParseCpuList(ss.str(), &cpus)) return SingleNodeFallback();
    topo.node_cpus[n] = std::move(cpus);
  }
  topo.num_nodes = static_cast<int>(node_ids.size());
  topo.from_sysfs = true;
  return topo;
#else
  (void)node_dir;
  return SingleNodeFallback();
#endif
}

namespace {

std::mutex g_topology_mu;
std::shared_ptr<const NumaTopology> g_topology;  // guarded by g_topology_mu

std::shared_ptr<const NumaTopology> ResolveTopology() {
  const char* numa_env = std::getenv("CCF_NUMA");
  if (numa_env != nullptr && (std::strcmp(numa_env, "off") == 0 ||
                              std::strcmp(numa_env, "0") == 0)) {
    return std::make_shared<const NumaTopology>(SingleNodeFallback());
  }
  const char* sysfs = std::getenv("CCF_NUMA_SYSFS");
  std::string dir =
      sysfs != nullptr ? std::string(sysfs) : "/sys/devices/system/node";
  return std::make_shared<const NumaTopology>(DetectTopologyFrom(dir));
}

}  // namespace

std::shared_ptr<const NumaTopology> SystemTopology() {
  std::lock_guard<std::mutex> lock(g_topology_mu);
  if (g_topology == nullptr) g_topology = ResolveTopology();
  return g_topology;
}

bool NumaAvailable() { return SystemTopology()->num_nodes > 1; }

void SetTopologyForTesting(std::shared_ptr<const NumaTopology> topology) {
  std::lock_guard<std::mutex> lock(g_topology_mu);
  g_topology = std::move(topology);
}

Status PinThreadToNode(const NumaTopology& topo, int node) {
#if defined(__linux__)
  if (node < 0 || static_cast<size_t>(node) >= topo.node_cpus.size()) {
    return Status::Invalid("PinThreadToNode: node index out of range");
  }
  const std::vector<int>& cpus = topo.node_cpus[static_cast<size_t>(node)];
  if (cpus.empty()) {
    return Status::Invalid("PinThreadToNode: node has no cpus");
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) {
    if (c >= 0 && c < CPU_SETSIZE) CPU_SET(c, &set);
  }
  // The kernel rejects masks with no online cpu (mock topologies on small
  // machines); that rejection is the graceful no-op path.
  if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
    return Status::Invalid("PinThreadToNode: setaffinity rejected the mask");
  }
  return Status::OK();
#else
  (void)topo;
  (void)node;
  return Status::Invalid("PinThreadToNode: unsupported platform");
#endif
}

Status BindMemoryToNode(void* addr, size_t bytes, int node) {
#if defined(__linux__) && defined(SYS_mbind)
  if (node < 0) return Status::Invalid("BindMemoryToNode: negative node");
  constexpr int kMpolPreferred = 1;  // MPOL_PREFERRED: fall back when full
  constexpr unsigned long kMaxNode = 512;
  unsigned long nodemask[kMaxNode / (8 * sizeof(unsigned long))] = {0};
  if (static_cast<unsigned long>(node) >= kMaxNode - 1) {
    return Status::Invalid("BindMemoryToNode: node id too large");
  }
  nodemask[static_cast<size_t>(node) / (8 * sizeof(unsigned long))] |=
      1ul << (static_cast<size_t>(node) % (8 * sizeof(unsigned long)));
  long rc = syscall(SYS_mbind, addr, bytes, kMpolPreferred, nodemask,
                    kMaxNode, 0u);
  if (rc != 0) {
    return Status::Invalid("BindMemoryToNode: mbind rejected the request");
  }
  return Status::OK();
#else
  (void)addr;
  (void)bytes;
  (void)node;
  return Status::Invalid("BindMemoryToNode: unsupported platform");
#endif
}

namespace {
thread_local int t_alloc_node = -1;
}  // namespace

ScopedNumaAllocNode::ScopedNumaAllocNode(int node) : prev_(t_alloc_node) {
  t_alloc_node = node;
}

ScopedNumaAllocNode::~ScopedNumaAllocNode() { t_alloc_node = prev_; }

int ScopedNumaAllocNode::current() { return t_alloc_node; }

}  // namespace ccf
