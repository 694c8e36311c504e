// NUMA topology discovery and thread/memory placement primitives.
//
// On a multi-socket (or multi-CCD) box, shard tables allocated wherever the
// build thread happened to run are probed remotely forever afterwards. This
// layer gives the sharded stack what it needs to place them: a parsed
// node→cpu map, best-effort thread pinning to a node's cpu set, and
// best-effort page binding (mbind) so first touch lands pages on the owning
// node. Placement is all it does: readers resolve on their own thread under
// one epoch domain per filter, whatever the topology.
//
// Resolution order for the process-wide topology (first hit wins):
//   1. SetTopologyForTesting(t)   — test fixture override;
//   2. CCF_NUMA=off (or =0)       — forced single-node fallback, today's
//                                   exact behavior on any machine;
//   3. CCF_NUMA_SYSFS=<dir>       — parse a mock sysfs node directory (the
//                                   CI fallback leg points this at a
//                                   fixture to exercise multi-node code on
//                                   single-node runners);
//   4. /sys/devices/system/node   — the real machine;
//   5. graceful fallback          — one node holding every cpu (num_nodes
//                                   == 1 ⇒ all placement calls no-op).
//
// Everything here is best-effort by design: a failed mbind or setaffinity
// (mock topologies name cpus the kernel lacks; sandboxes deny the
// syscalls) degrades to exactly the unplaced behavior, never to an error
// on the serving path.
#ifndef CCF_UTIL_TOPOLOGY_H_
#define CCF_UTIL_TOPOLOGY_H_

#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace ccf {

/// \brief The machine's NUMA shape: nodes and their cpus.
struct NumaTopology {
  /// Number of NUMA nodes (>= 1; 1 means placement is a no-op).
  int num_nodes = 1;
  /// node id -> cpu ids owned by that node (parse order).
  std::vector<std::vector<int>> node_cpus;
  /// True when parsed from a (real or mock) sysfs node directory; false
  /// for the single-node fallback.
  bool from_sysfs = false;
};

/// Parses a sysfs-style node directory (`node<k>/cpulist` files). Returns
/// the single-node fallback when the directory is missing, empty, or
/// malformed — never fails.
NumaTopology DetectTopologyFrom(const std::string& node_dir);

/// The process-wide topology, resolved once (see the header comment for
/// the override order) and cached. Shared-ptr so a test override cannot
/// invalidate a topology another thread is still reading.
std::shared_ptr<const NumaTopology> SystemTopology();

/// True when the resolved topology has more than one node (i.e. placement
/// can matter). CCF_NUMA=off forces false.
bool NumaAvailable();

/// Replaces the cached topology (tests). Pass nullptr to drop a previous
/// override and re-resolve from the environment on next use.
void SetTopologyForTesting(std::shared_ptr<const NumaTopology> topology);

/// Pins the CALLING thread to `node`'s cpu set. Best-effort: returns a
/// non-OK status (and changes nothing) when the node has no cpus the
/// kernel accepts; callers on the serving path ignore the status.
Status PinThreadToNode(const NumaTopology& topo, int node);

/// Binds [addr, addr+bytes) to `node` with MPOL_PREFERRED via the raw
/// mbind syscall (no libnuma dependency), so pages fault in on that node
/// regardless of which thread first touches them. Call before first touch.
/// Best-effort: non-OK on unsupported platforms or kernel rejection.
Status BindMemoryToNode(void* addr, size_t bytes, int node);

/// \brief Scoped thread-local allocation hint: while alive, BitVector's
/// multi-megabyte mmap allocations on this thread are bound to `node`
/// before first touch. Nestable; -1 means "no binding" (the default when
/// no scope is alive). This is how ShardedCcf lands each shard's table
/// pages on the shard's node without threading a node id through every
/// filter constructor.
class ScopedNumaAllocNode {
 public:
  explicit ScopedNumaAllocNode(int node);
  ~ScopedNumaAllocNode();

  ScopedNumaAllocNode(const ScopedNumaAllocNode&) = delete;
  ScopedNumaAllocNode& operator=(const ScopedNumaAllocNode&) = delete;

  /// The innermost live scope's node on this thread, or -1.
  static int current();

 private:
  int prev_;
};

}  // namespace ccf

#endif  // CCF_UTIL_TOPOLOGY_H_
