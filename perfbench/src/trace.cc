#include "trace.h"

#include <cstdio>

#include "common.h"

namespace perfbench {
namespace {

thread_local uint64_t tls_parent = 0;
thread_local uint64_t tls_request = 0;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer* Tracer::Local() {
  // Buffers are owned by the tracer and never freed before exit, so the
  // cached pointer stays valid for the thread's lifetime.
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    local = buffers_.back().get();
    local->thread = static_cast<uint32_t>(buffers_.size());
    local->spans.reserve(1 << 16);
  }
  return local;
}

void Tracer::Append(const SpanRecord& span) {
  ThreadBuffer* buf = Local();
  buf->spans.push_back(span);
  buf->spans.back().thread = buf->thread;
}

std::vector<SpanRecord> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> all;
  for (const auto& buf : buffers_) {
    all.insert(all.end(), buf->spans.begin(), buf->spans.end());
  }
  return all;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buf : buffers_) buf->spans.clear();
}

std::map<std::string, SpanTotals> Tracer::Totals(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, SpanTotals> totals;
  for (const SpanRecord& s : spans) {
    SpanTotals& t = totals[s.name];
    ++t.count;
    t.items += s.items;
    t.total_s += (s.end_ns - s.start_ns) * 1e-9;
  }
  return totals;
}

bool Tracer::WriteJsonl(const std::string& path,
                        const std::map<std::string, std::string>& meta,
                        const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"meta\": {");
  bool first = true;
  for (const auto& [k, v] : meta) {
    std::fprintf(f, "%s\"%s\": \"%s\"", first ? "" : ", ", k.c_str(),
                 v.c_str());
    first = false;
  }
  std::fprintf(f, "}}\n");
  for (const SpanRecord& s : spans) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu, "
                 "\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"items\": %llu, \"thread\": %u}\n",
                 s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.items), s.thread);
  }
  return std::fclose(f) == 0;
}

Span::Span(const char* name, uint64_t request, bool record)
    : on_(record && Tracer::Get().enabled()) {
  if (!on_) return;
  record_.name = name;
  record_.id = Tracer::Get().NextId();
  record_.parent = tls_parent;
  record_.request = request != 0 ? request : tls_request;
  saved_parent_ = tls_parent;
  saved_request_ = tls_request;
  tls_parent = record_.id;
  tls_request = record_.request;
  record_.start_ns = NowNs();
}

Span::~Span() {
  if (!on_) return;
  record_.end_ns = NowNs();
  tls_parent = saved_parent_;
  tls_request = saved_request_;
  Tracer::Get().Append(record_);
}

}  // namespace perfbench
