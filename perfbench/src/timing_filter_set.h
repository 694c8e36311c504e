// A FilterSet decorator that times every ProbeBatch the real
// WorkloadEvaluator::Evaluate makes, so the join layer's probe time is
// measured from inside an unmodified Evaluate. It records one "join.probe"
// span per call (keys as the item count) and can keep a copy of the probe
// stream, answers included, so the same keys can be audited and replayed
// against lower layers.
#ifndef CCF_PERFBENCH_TIMING_FILTER_SET_H_
#define CCF_PERFBENCH_TIMING_FILTER_SET_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "join/evaluator.h"
#include "trace.h"

namespace perfbench {

/// One captured ProbeBatch call.
struct ProbeCall {
  size_t query = 0;  // the caller's query index when the call was made
  std::string table;
  std::vector<uint64_t> keys;
  std::vector<const ccf::QueryPredicate*> preds;
  std::vector<char> answers;
};

class TimingFilterSet : public ccf::FilterSet {
 public:
  explicit TimingFilterSet(const ccf::FilterSet* inner) : inner_(inner) {}

  ccf::Result<bool> Probe(
      const std::string& table, uint64_t key,
      const std::vector<const ccf::QueryPredicate*>& preds) const override {
    return inner_->Probe(table, key, preds);
  }

  ccf::Status ProbeBatch(const std::string& table,
                         std::span<const uint64_t> keys,
                         const std::vector<const ccf::QueryPredicate*>& preds,
                         std::span<bool> out) const override {
    ccf::Status st;
    {
      Span span("join.probe");
      span.set_items(keys.size());
      st = inner_->ProbeBatch(table, keys, preds, out);
    }
    if (capture_) {
      stream_.push_back(
          ProbeCall{query_, table,
                    std::vector<uint64_t>(keys.begin(), keys.end()), preds,
                    std::vector<char>(out.begin(), out.end())});
    }
    return st;
  }

  uint64_t TotalSizeInBits() const override {
    return inner_->TotalSizeInBits();
  }

  /// Keep a copy of every following ProbeBatch call's keys and answers,
  /// tagged with the query index last set by set_query. Evaluate calls
  /// ProbeBatch from the caller's thread only.
  void set_capture(bool on) { capture_ = on; }
  void set_query(size_t q) { query_ = q; }
  const std::vector<ProbeCall>& stream() const { return stream_; }

 private:
  const ccf::FilterSet* inner_;
  bool capture_ = false;
  size_t query_ = 0;
  mutable std::vector<ProbeCall> stream_;
};

}  // namespace perfbench

#endif  // CCF_PERFBENCH_TIMING_FILTER_SET_H_
