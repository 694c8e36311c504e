// In-memory span recorder for the traced run. A span is one timed call from
// the benchmark into a library layer: name, start, end, the enclosing span
// (parent) and the request it belongs to, plus an optional item count
// (keys or rows) so per-item costs can be derived. Spans are appended to a
// per-thread buffer with no locking and written out as JSON lines when the
// run ends. With tracing off a Span costs one predictable branch.
#ifndef CCF_PERFBENCH_TRACE_H_
#define CCF_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = nullptr;  // string literal
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // 0 = not part of a request
  uint64_t items = 0;
  uint32_t thread = 0;
};

/// Per-name aggregate over a set of spans.
struct SpanTotals {
  uint64_t count = 0;
  uint64_t items = 0;
  double total_s = 0;  // sum of durations
};

class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Append(const SpanRecord& span);

  /// Every span recorded so far, from all threads. Call only while no
  /// thread is recording.
  std::vector<SpanRecord> Collect() const;
  /// Drops every recorded span (between phases of a run).
  void Clear();

  /// Count, items and total time per span name (self time and the span
  /// table are left to spans.py, which reads the written spans).
  static std::map<std::string, SpanTotals> Totals(
      const std::vector<SpanRecord>& spans);

  /// Writes one JSON object per line: a header line with `meta`, then one
  /// line per span. Returns false on an I/O error.
  static bool WriteJsonl(const std::string& path,
                         const std::map<std::string, std::string>& meta,
                         const std::vector<SpanRecord>& spans);

 private:
  struct ThreadBuffer {
    uint32_t thread = 0;
    std::vector<SpanRecord> spans;
  };
  ThreadBuffer* Local();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // guarded by mu_
};

/// Traced multi-caller windows record every kTraceEvery-th request, which
/// keeps a 15 s window's spans to a few hundred thousand; per-key and
/// per-request figures taken from a sample are unbiased.
inline constexpr uint64_t kTraceEvery = 8;

/// RAII span. `request` 0 inherits the enclosing span's request id; a span
/// with `record` false records nothing.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0, bool record = true);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_items(uint64_t n) { record_.items = n; }

 private:
  bool on_;
  SpanRecord record_;
  uint64_t saved_parent_ = 0;
  uint64_t saved_request_ = 0;
};

}  // namespace perfbench

#endif  // CCF_PERFBENCH_TRACE_H_
