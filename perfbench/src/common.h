// Shared pieces of the benchmark program: the run report every workload
// fills, order statistics, the machine's cache sizes, peak RSS, and thread
// pinning. Nothing here calls into the library.
#ifndef CCF_PERFBENCH_COMMON_H_
#define CCF_PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines).
  std::string trace_out;
  /// Directory for files a workload writes (the fleet's filter files).
  std::string scratch = ".bench_build/scratch";
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `metrics` holds the metrics BENCHMARK.json
/// lists (end-to-end untraced, per-layer traced); `detail` holds everything
/// else the run prints for a reader but does not gate on.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failures, for the log
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> detail;
  /// Spans the traced run's per-layer metrics are derived from: the filter
  /// build, the workload's batched probe call, and one whole request.
  const char* build_span = "";
  const char* probe_span = "";
  const char* request_span = "";

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Detail(const std::string& name, double value, const std::string& unit) {
    detail[name] = Metric{value, unit};
  }
  /// Counts one failed operation; keeps the first few messages.
  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

/// Value at quantile q in [0, 1] by linear interpolation; sorts in place.
double Quantile(std::vector<double>& v, double q);
inline double Median(std::vector<double> v) { return Quantile(v, 0.5); }

/// The kKeep fastest timed passes of a run, each with the p50 and p90 of
/// its request latencies; the timed end-to-end metrics are their medians.
/// Other machines' use of the shared LLC and memory bus slows the same pass
/// by up to 2x, in bursts from under a second to minutes, so the median
/// pass of a run moves with the host's load. The fastest passes are the
/// program's cost with the least of that interference, and the median of
/// several of them is not thrown by one pass that was unusually lucky.
class QuietPasses {
 public:
  static constexpr size_t kKeep = 5;

  /// Keeps the pass that took `s` and whose requests took `*latencies` if
  /// it is among the kKeep fastest so far; leaves `*latencies` empty.
  void Offer(double s, std::vector<double>* latencies);
  /// Merges another caller's fastest passes into these.
  void Offer(const QuietPasses& other);

  double pass_s() const;
  double p50_us() const;
  double p90_us() const;
  /// Request latencies behind the figures above.
  size_t requests() const;

 private:
  struct Pass {
    double s;
    double p50_us;
    double p90_us;
    size_t requests;
  };
  void Keep(const Pass& pass);
  double MedianOf(double Pass::*field) const;

  std::vector<Pass> fastest_;  // ascending by s, at most kKeep
};

/// Cache sizes of cpu0 in bytes from sysfs (0 when unreadable).
struct CacheSizes {
  uint64_t l2 = 0;
  uint64_t llc = 0;
};
CacheSizes ReadCacheSizes();

/// Peak resident set of this process so far, in MB (10^6 bytes).
double PeakRssMb();

/// Pins the calling thread to `cpu` modulo the CPUs this process may use.
/// Best effort: a failure leaves the thread unpinned.
void PinToCpu(int cpu);

/// Number of CPUs this process may run on.
int UsableCpus();
/// The timed window of a workload with several closed-loop callers. Each
/// caller runs one untimed warm-up pass, calls Warmed() (which returns once
/// every caller has warmed up), then runs timed passes, calling PassDone()
/// after each, until stopped(). The main thread calls Run(), which sets the
/// stop flag once `seconds` have passed since the warm-up and every caller
/// has finished `min_passes` timed passes. Callers never wait for each
/// other between passes, so one slow caller does not stall the rest.
class Window {
 public:
  Window(int callers, int min_passes);
  void Warmed();
  void PassDone(int caller);
  bool stopped() const { return stop_.load(std::memory_order_relaxed); }
  void Run(double seconds);

 private:
  const int callers_;
  const int min_passes_;
  std::atomic<int> warmed_{0};
  std::atomic<bool> stop_{false};
  std::unique_ptr<std::atomic<int>[]> passes_;
};

/// SplitMix64 finaliser: a cheap, well-mixed function of a 64-bit value.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Workload entry points (one file each).
void RunJoblight(const Args& args, Report* report);
void RunLiveDram(const Args& args, Report* report);
void RunFleet(const Args& args, Report* report);

}  // namespace perfbench

#endif  // CCF_PERFBENCH_COMMON_H_
