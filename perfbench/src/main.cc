// ccf_perfbench: runs one benchmark workload and prints its metrics.
//
//   ccf_perfbench --workload joblight|live-dram|fleet|all --seed N
//                 --seconds S --trace 0|1 [--trace-out FILE] [--scratch DIR]
//
// With --trace 0 the last line is a JSON object holding the end-to-end
// metrics; with --trace 1 spans are recorded around every call into a
// library layer, written to --trace-out, and the last line holds the
// per-layer metrics derived from them. The exit code is 1 when any
// operation failed or any answer was wrong (a false negative), 2 on a
// usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "trace.h"

namespace perfbench {
namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every traced run reports all of these. The first group is derived from
// spans every workload records; the rest are counters of one layer and
// read 0 on workloads that do not use that layer.
constexpr LayerMetric kLayerMetrics[] = {
    {"data.generate_s", "s"},
    {"ccf.build_ns_per_row", "ns/row"},
    {"hash.ns_per_key", "ns/key"},
    {"ccf.key_only_ns_per_key", "ns/key"},
    {"ccf.flat_lookup_ns_per_key", "ns/key"},
    {"probe.ns_per_key", "ns/key"},
    {"request.probe_frac", "ratio"},
    {"probe.pass_frac", "ratio"},
    {"ccf.load_factor", "ratio"},
    {"ccf.rebuilds", "count"},
    {"sharded.compactions", "count"},
    {"sharded.watermark_resizes", "count"},
    {"sharded.retained_log_rows", "rows"},
    {"sharded.pending_rows_mean", "rows"},
    {"serve.promotions", "count"},
    {"serve.evictions", "count"},
    {"serve.alias_loads", "count"},
    {"serve.hot_bytes", "bytes"},
    {"serve.hit_frac", "ratio"},
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload joblight|live-dram|fleet|all --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--scratch DIR]\n",
               argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (a == "--workload") {
      args->workload = v;
    } else if (a == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args->seconds = std::atof(v);
    } else if (a == "--trace") {
      args->trace = std::strcmp(v, "0") != 0;
    } else if (a == "--trace-out") {
      args->trace_out = v;
    } else if (a == "--scratch") {
      args->scratch = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

double SpanNsPerItem(const std::map<std::string, SpanTotals>& totals,
                     const char* name) {
  auto it = totals.find(name);
  if (it == totals.end() || it->second.items == 0) return 0;
  return it->second.total_s * 1e9 / static_cast<double>(it->second.items);
}

double SpanTotal(const std::map<std::string, SpanTotals>& totals,
                 const char* name) {
  auto it = totals.find(name);
  return it == totals.end() ? 0 : it->second.total_s;
}

// Turns the traced run's spans and layer counters into the per-layer
// metrics. The span table itself is printed by spans.py.
void FinishTraced(const std::vector<SpanRecord>& spans, Report* r) {
  const auto totals = Tracer::Totals(spans);
  r->Set("data.generate_s", SpanTotal(totals, "data.generate"), "s");
  r->Set("ccf.build_ns_per_row", SpanNsPerItem(totals, r->build_span),
         "ns/row");
  r->Set("hash.ns_per_key", SpanNsPerItem(totals, "hash.hash"), "ns/key");
  r->Set("ccf.key_only_ns_per_key", SpanNsPerItem(totals, "ccf.key_only"),
         "ns/key");
  r->Set("ccf.flat_lookup_ns_per_key",
         SpanNsPerItem(totals, "ccf.flat_lookup"), "ns/key");
  r->Set("probe.ns_per_key", SpanNsPerItem(totals, r->probe_span), "ns/key");
  const double request_s = SpanTotal(totals, r->request_span);
  r->Set("request.probe_frac",
         request_s > 0 ? SpanTotal(totals, r->probe_span) / request_s : 0,
         "ratio");
  for (const LayerMetric& m : kLayerMetrics) {
    if (r->metrics.count(m.name)) continue;
    auto it = r->detail.find(m.name);
    r->Set(m.name, it == r->detail.end() ? 0.0 : it->second.value, m.unit);
  }
}

void PrintMetrics(const char* title, const std::map<std::string, Metric>& m) {
  std::printf("\n%s:\n", title);
  for (const auto& [name, metric] : m) {
    std::printf("  %-30s %16.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

std::string ResultJson(bool correct, const Report& r,
                       const std::map<std::string, Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, metric] : metrics) {
    std::snprintf(buf, sizeof(buf), "%.10g", metric.value);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metric.unit + "\"}";
    first = false;
  }
  return out + "}}";
}

// Runs one workload; returns its report.
Report RunOne(const std::string& workload, const Args& args) {
  Report r;
  Tracer::Get().Clear();
  const Clock::time_point t0 = Clock::now();
  if (workload == "joblight") {
    r.build_span = "join.build";
    r.probe_span = "join.probe";
    r.request_span = "join.evaluate";
    RunJoblight(args, &r);
  } else if (workload == "live-dram") {
    r.build_span = "sharded.build";
    r.probe_span = "sharded.lookup";
    r.request_span = "live.read";
    RunLiveDram(args, &r);
  } else {
    r.build_span = "ccf.build";
    r.probe_span = "serve.lookup";
    r.request_span = "serve.request";
    RunFleet(args, &r);
  }
  if (r.attempted == 0) r.attempted = 1 + r.failed;
  std::printf("\n== %s (seed %llu, %.1f s wall, trace %d)\n", workload.c_str(),
              static_cast<unsigned long long>(args.seed), SecondsSince(t0),
              args.trace ? 1 : 0);
  if (args.trace) {
    const std::vector<SpanRecord> spans = Tracer::Get().Collect();
    FinishTraced(spans, &r);
    std::string path = args.trace_out;
    if (path.empty()) path = workload + ".trace.jsonl";
    if (args.workload == "all") path += "." + workload;
    std::map<std::string, std::string> meta = {
        {"workload", workload},
        {"seed", std::to_string(args.seed)},
        {"traced_query_s", std::to_string(r.detail["query_s"].value)}};
    if (!Tracer::WriteJsonl(path, meta, spans)) {
      r.Fail("cannot write trace to " + path);
    } else {
      std::printf("trace: %zu spans written to %s\n", spans.size(),
                  path.c_str());
    }
  }
  PrintMetrics("detail", r.detail);
  PrintMetrics(args.trace ? "per-layer metrics" : "end-to-end metrics",
               r.metrics);
  std::printf("operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const std::string& e : r.errors) std::printf("  failure: %s\n", e.c_str());
  return r;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage(argv[0]);
  std::vector<std::string> workloads;
  if (args.workload == "all") {
    workloads = {"joblight", "live-dram", "fleet"};
  } else if (args.workload == "joblight" || args.workload == "live-dram" ||
             args.workload == "fleet") {
    workloads = {args.workload};
  } else {
    return Usage(argv[0]);
  }
  std::error_code ec;
  std::filesystem::create_directories(args.scratch, ec);
  Tracer::Get().set_enabled(args.trace);

  bool correct = true;
  Report total;
  std::map<std::string, Metric> metrics;
  for (const std::string& w : workloads) {
    Report r = RunOne(w, args);
    correct = correct && r.failed == 0;
    total.attempted += r.attempted;
    total.failed += r.failed;
    for (const auto& [name, m] : r.metrics) {
      metrics[workloads.size() > 1 ? w + "/" + name : name] = m;
    }
  }
  std::fflush(stdout);
  std::printf("%s\n", ResultJson(correct, total, metrics).c_str());
  return correct ? 0 : 1;
}
