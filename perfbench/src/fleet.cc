// fleet: a FilterCatalog of many small filters under a hot budget a
// quarter of the fleet's size, probed by three closed-loop callers with
// Zipf (s = 1.1) filter popularity. Half the fleet is file-backed (promoted
// by mmap alias opens), the rest memory-backed (demoted by compression);
// one memory-backed entry in four is a RangeCcf. Requests carry 512 keys
// (half present, half never inserted) to LookupBatch or, on range entries,
// LookupRangeBatch; about 5% are 64-row InsertBatch calls into writable
// entries. Each writable entry inserts from a fixed pool of rows, so
// repeated passes re-insert the same rows (collapsed as duplicates) and no
// entry can outgrow its table.
//
// A pass replays each caller's fixed request list once; the slice of the
// pool an insert writes advances with the pass.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ccf/ccf.h"
#include "ccf/range_ccf.h"
#include "common.h"
#include "data/zipf.h"
#include "hash/hasher.h"
#include "serve/filter_catalog.h"
#include "trace.h"
#include "util/file_io.h"
#include "util/random.h"

namespace perfbench {
namespace {

constexpr uint32_t kFilters = 1024;
constexpr uint64_t kPlainRows = 2048;     // file-backed and writable entries
constexpr uint64_t kPoolRows = 2048;      // insertable rows per writable entry
constexpr uint64_t kRangeRows = 384;
constexpr int kRangeMaxLevel = 8;         // range column values in [0, 256)
constexpr uint64_t kRangeWidth = 32;
constexpr size_t kRequestKeys = 512;
constexpr size_t kInsertRows = 64;
constexpr double kInsertShare = 0.05;
constexpr int kCallers = 3;
constexpr int kRequestsPerPass = 1024;    // per caller
constexpr uint64_t kAbsentBase = uint64_t{1} << 31;
constexpr uint64_t kFprBase = uint64_t{3} << 30;
constexpr size_t kFprKeysPerEntry = 16384;
// The timed window is split into kSegments segments, each on a freshly
// built fleet, so a run samples several allocations and several stretches
// of the host's load; setup_s is the median of the builds.
constexpr int kSegments = 9;
constexpr int kMinPasses = 3;  // per caller and segment

enum class Kind : uint8_t { kFile, kWritable, kRange };

Kind KindOf(uint32_t slot) {
  const uint32_t m = slot % 8;
  if (m < 4) return Kind::kFile;
  if (m < 7) return Kind::kWritable;
  return Kind::kRange;
}

std::string IdOf(uint32_t slot) {
  std::string id(1, 'f');
  id += std::to_string(slot);
  return id;
}

ccf::CcfConfig FilterConfig(Kind kind, uint64_t salt) {
  ccf::CcfConfig c;
  c.num_buckets = kind == Kind::kFile ? 512 : 1024;  // ≤ 67% / 75% full
  c.slots_per_bucket = 6;
  c.key_fp_bits = 12;
  c.attr_fp_bits = kind == Kind::kRange ? 12 : 8;  // dyadic labels hash
  c.num_attrs = 2;
  c.max_dupes = 3;
  c.salt = salt;
  return c;
}

// Row i of a plain entry; the range column of a range entry is i % 256.
uint64_t A0(uint64_t i) { return i % 4; }
uint64_t A1(uint64_t i, Kind kind) {
  return kind == Kind::kRange ? i % 256 : (i >> 2) % 16;
}

class Keys {
 public:
  explicit Keys(uint64_t seed) : salt_(Mix64(seed ^ 0xf1ee7)) {}
  uint64_t Of(uint32_t slot, uint64_t i) const {
    return Mix64(((uint64_t{slot} + 1) << 32 | i) ^ salt_);
  }

 private:
  uint64_t salt_;
};

struct Fleet {
  std::string dir;
  std::unique_ptr<ccf::FilterCatalog> catalog;
  uint64_t total_bytes = 0;
  uint64_t base_rows = 0;
  // Traced runs keep an uncatalogued copy of every plain filter.
  std::vector<std::unique_ptr<ccf::ConditionalCuckooFilter>> raw;

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() {
    catalog.reset();  // drops the mappings before the files go
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
};

ccf::Status BuildFleet(const std::string& dir, uint64_t seed, const Keys& keys,
                       bool keep_raw, Fleet* fleet) {
  fleet->dir = dir;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return ccf::Status::Internal("cannot create " + dir);
  // The hot budget is a quarter of the fleet; both are known only after
  // the build, so filters are built first and registered after.
  std::vector<std::unique_ptr<ccf::ConditionalCuckooFilter>> built(kFilters);
  std::vector<uint64_t> k;
  std::vector<uint64_t> a;
  for (uint32_t s = 0; s < kFilters; ++s) {
    const Kind kind = KindOf(s);
    const uint64_t rows = kind == Kind::kRange ? kRangeRows : kPlainRows;
    {
      Span span("data.generate");
      span.set_items(rows);
      k.resize(rows);
      a.resize(2 * rows);
      for (uint64_t i = 0; i < rows; ++i) {
        k[i] = keys.Of(s, i);
        a[2 * i] = A0(i);
        a[2 * i + 1] = A1(i, kind);
      }
    }
    Span span("ccf.build");
    span.set_items(rows);
    if (kind == Kind::kRange) {
      CCF_ASSIGN_OR_RETURN(auto f, ccf::RangeCcf::Make(
                                       ccf::CcfVariant::kChained,
                                       FilterConfig(kind, seed), 1,
                                       kRangeMaxLevel));
      built[s] = std::move(f);
    } else {
      CCF_ASSIGN_OR_RETURN(built[s], ccf::ConditionalCuckooFilter::Make(
                                         ccf::CcfVariant::kChained,
                                         FilterConfig(kind, seed)));
    }
    CCF_RETURN_NOT_OK(built[s]->InsertBatch(k, a));
    fleet->total_bytes += built[s]->SizeInBits() / 8;
    fleet->base_rows += rows;
  }
  ccf::CatalogOptions options;
  options.hot_budget_bytes = fleet->total_bytes / 4;
  options.enable_batcher = false;  // requests resolve on their caller
  fleet->catalog = std::make_unique<ccf::FilterCatalog>(options);
  fleet->raw.resize(kFilters);
  for (uint32_t s = 0; s < kFilters; ++s) {
    const Kind kind = KindOf(s);
    if (keep_raw && kind != Kind::kRange) {
      CCF_ASSIGN_OR_RETURN(fleet->raw[s], ccf::ConditionalCuckooFilter::Deserialize(
                                              built[s]->Serialize()));
    }
    if (kind == Kind::kFile) {
      const std::string path = dir + "/" + IdOf(s) + ".ccf";
      CCF_RETURN_NOT_OK(ccf::WriteFileBytes(path, built[s]->Serialize()));
      built[s].reset();
      CCF_RETURN_NOT_OK(fleet->catalog->AddFile(IdOf(s), path));
    } else {
      CCF_RETURN_NOT_OK(fleet->catalog->AddFilter(IdOf(s), std::move(built[s])));
    }
  }
  return ccf::Status::OK();
}

struct Request {
  uint32_t slot = 0;
  Kind kind = Kind::kFile;
  bool insert = false;
  uint64_t v = 0;      // attr0 value (lookups) or range low end (range)
  uint32_t slice = 0;  // inserts: pool slice for pass 0
  std::vector<uint64_t> keys;  // lookups: even positions present
};

// The caller's fixed request list. Slot s has Zipf rank s + 1, and kinds
// repeat every 8 slots, so each kind has hot and cold entries and the kind
// mix along the popularity curve is the same for every seed.
std::vector<Request> MakeRequests(const Keys& keys, uint64_t seed, int caller,
                                  const std::vector<uint32_t>& writable) {
  auto zipf = ccf::ZipfMandelbrot::Make(1.1, 0.0, kFilters).ValueOrDie();
  auto zipf_w = ccf::ZipfMandelbrot::Make(1.1, 0.0, writable.size()).ValueOrDie();
  ccf::Rng rng(Mix64(seed * 7919 + static_cast<uint64_t>(caller)));
  std::vector<Request> reqs(kRequestsPerPass);
  for (Request& r : reqs) {
    if (rng.NextDouble() < kInsertShare) {
      r.slot = writable[zipf_w.Sample(rng) - 1];
      r.kind = Kind::kWritable;
      r.insert = true;
      r.slice = static_cast<uint32_t>(rng.NextBelow(kPoolRows / kInsertRows));
      continue;
    }
    r.slot = static_cast<uint32_t>(zipf.Sample(rng) - 1);
    r.kind = KindOf(r.slot);
    r.keys.resize(kRequestKeys);
    if (r.kind == Kind::kRange) {
      r.v = rng.NextBelow(256 - kRangeWidth);
      // Present keys: rows whose range column falls in [v, v + width).
      for (size_t j = 0; j < kRequestKeys; j += 2) {
        const uint64_t value = r.v + rng.NextBelow(kRangeWidth);
        const uint64_t copies = (kRangeRows - value + 255) / 256;
        r.keys[j] = keys.Of(r.slot, value + 256 * rng.NextBelow(copies));
      }
    } else {
      r.v = rng.NextBelow(4);
      for (size_t j = 0; j < kRequestKeys; j += 2) {
        r.keys[j] = keys.Of(r.slot, 4 * rng.NextBelow(kPlainRows / 4) + r.v);
      }
    }
    for (size_t j = 1; j < kRequestKeys; j += 2) {
      r.keys[j] = keys.Of(r.slot, kAbsentBase + rng.NextBelow(kAbsentBase));
    }
  }
  return reqs;
}

struct CallerStats {
  std::vector<char> out = std::vector<char>(kRequestKeys);  // answer buffer
  std::vector<double> pass_s;
  std::vector<double> latency_us;
  QuietPasses quiet;
  std::vector<double> hit_us, promote_us, insert_us;
  uint64_t keys = 0, present = 0, missing = 0, trues = 0;
  uint64_t failures = 0;
  std::string first_error;
};

}  // namespace

void RunFleet(const Args& args, Report* report) {
  const bool traced = Tracer::Get().enabled();
  const CacheSizes caches = ReadCacheSizes();
  const Keys keys(args.seed);
  const std::string dir_base = args.scratch + "/fleet-" + std::to_string(args.seed);

  std::vector<uint32_t> writable;
  for (uint32_t s = 0; s < kFilters; ++s) {
    if (KindOf(s) == Kind::kWritable) writable.push_back(s);
  }
  std::vector<std::vector<Request>> requests;
  for (int c = 0; c < kCallers; ++c) {
    requests.push_back(MakeRequests(keys, args.seed, c, writable));
  }
  const ccf::Predicate preds[4] = {
      ccf::Predicate::Equals(0, 0), ccf::Predicate::Equals(0, 1),
      ccf::Predicate::Equals(0, 2), ccf::Predicate::Equals(0, 3)};
  // The current fleet; inserted[slot][slice] is set once the slice has been
  // inserted into it.
  std::unique_ptr<Fleet> fleet;
  std::vector<std::vector<std::atomic<uint8_t>>> inserted(kFilters);
  for (uint32_t s : writable) {
    inserted[s] = std::vector<std::atomic<uint8_t>>(kPoolRows / kInsertRows);
  }

  // One request; returns its latency in microseconds.
  auto serve = [&](const Request& r, uint64_t pass, uint64_t request_id,
                   CallerStats* st, bool* promoted) -> double {
    ccf::FilterCatalog& catalog = *fleet->catalog;
    const bool record = request_id % kTraceEvery == 0;
    const uint64_t before = promoted ? catalog.stats().promotions : 0;
    ccf::Status s;
    const Clock::time_point t0 = Clock::now();
    if (r.insert) {
      const uint32_t slices = kPoolRows / kInsertRows;
      const uint32_t slice = static_cast<uint32_t>((r.slice + pass) % slices);
      uint64_t k[kInsertRows];
      uint64_t a[2 * kInsertRows];
      for (size_t j = 0; j < kInsertRows; ++j) {
        const uint64_t i = kPlainRows + slice * kInsertRows + j;
        k[j] = keys.Of(r.slot, i);
        a[2 * j] = A0(i);
        a[2 * j + 1] = A1(i, Kind::kWritable);
      }
      {
        Span span("serve.request", request_id, record);
        Span insert("serve.insert", 0, record);
        insert.set_items(kInsertRows);
        s = catalog.InsertBatch(IdOf(r.slot), k, a);
      }
      const double us = SecondsSince(t0) * 1e6;
      if (s.ok()) inserted[r.slot][slice].store(1, std::memory_order_relaxed);
      st->insert_us.push_back(us);
      if (!s.ok()) {
        ++st->failures;
        if (st->first_error.empty()) st->first_error = s.ToString();
      }
      if (promoted) *promoted = catalog.stats().promotions != before;
      return us;
    }
    std::span<bool> o(reinterpret_cast<bool*>(st->out.data()), kRequestKeys);
    {
      Span span("serve.request", request_id, record);
      if (r.kind == Kind::kRange) {
        Span lookup("range.lookup", 0, record);
        lookup.set_items(kRequestKeys);
        s = catalog.LookupRangeBatch(IdOf(r.slot), r.keys, r.v,
                                     r.v + kRangeWidth - 1, ccf::Predicate(), o);
      } else {
        Span lookup("serve.lookup", 0, record);
        lookup.set_items(kRequestKeys);
        s = catalog.LookupBatch(IdOf(r.slot), r.keys, preds[r.v], o);
      }
    }
    const double us = SecondsSince(t0) * 1e6;
    if (promoted) *promoted = catalog.stats().promotions != before;
    st->keys += kRequestKeys;
    st->present += kRequestKeys / 2;
    if (!s.ok()) {
      st->missing += kRequestKeys / 2;
      if (st->first_error.empty()) st->first_error = s.ToString();
    } else {
      for (size_t j = 0; j < kRequestKeys; j += 2) st->missing += o[j] ? 0 : 1;
      for (bool b : o) st->trues += b ? 1 : 0;
    }
    return us;
  };

  // --- set-up and window, in segments -----------------------------------
  std::vector<double> setup_s;
  std::vector<CallerStats> callers(kCallers);
  ccf::CatalogStats window_stats;  // promotions etc. summed over segments
  const int segments = traced ? 1 : kSegments;
  for (int seg = 0; seg < segments; ++seg) {
    fleet = std::make_unique<Fleet>();  // previous files and catalog dropped
    const Clock::time_point t0 = Clock::now();
    ccf::Status st;
    {
      Span span("serve.add");
      st = BuildFleet(dir_base + "-" + std::to_string(seg), args.seed, keys,
                      traced, fleet.get());
    }
    if (!st.ok()) {
      report->Fail("fleet build: " + st.ToString());
      return;
    }
    setup_s.push_back(SecondsSince(t0));
    for (uint32_t s : writable) {
      for (std::atomic<uint8_t>& flag : inserted[s]) flag.store(0);
    }

    const ccf::CatalogStats at_start = fleet->catalog->stats();
    Window window(kCallers, kMinPasses);
    std::vector<std::thread> threads;
    for (int c = 0; c < kCallers; ++c) {
      threads.emplace_back([&, c] {
        PinToCpu(c);
        CallerStats& st = callers[c];
        uint64_t request_id = static_cast<uint64_t>(seg * kCallers + c + 1)
                              << 40;
        std::vector<double> pass_us;
        for (uint64_t p = 0; !window.stopped(); ++p) {
          const Clock::time_point p0 = Clock::now();
          size_t done = 0;
          for (const Request& r : requests[c]) {
            if (window.stopped()) break;
            const double us = serve(r, p, ++request_id, &st, nullptr);
            if (p > 0) {
              st.latency_us.push_back(us);
              pass_us.push_back(us);
            }
            ++done;
          }
          if (p == 0) {
            window.Warmed();
          } else if (done == requests[c].size()) {
            st.pass_s.push_back(SecondsSince(p0));
            st.quiet.Offer(st.pass_s.back(), &pass_us);
            window.PassDone(c);
          }
          pass_us.clear();
        }
      });
    }
    window.Run(args.seconds / segments);
    for (std::thread& t : threads) t.join();
    const ccf::CatalogStats at_end = fleet->catalog->stats();
    window_stats.promotions += at_end.promotions - at_start.promotions;
    window_stats.evictions += at_end.evictions - at_start.evictions;
    window_stats.alias_loads += at_end.alias_loads - at_start.alias_loads;
    window_stats.hot_bytes = at_end.hot_bytes;
  }
  ccf::FilterCatalog& catalog = *fleet->catalog;

  std::vector<double> pass_s, latency_us;
  QuietPasses quiet;
  uint64_t window_keys = 0, window_trues = 0;
  for (CallerStats& st : callers) {
    window_trues += st.trues;
    quiet.Offer(st.quiet);
    pass_s.insert(pass_s.end(), st.pass_s.begin(), st.pass_s.end());
    latency_us.insert(latency_us.end(), st.latency_us.begin(),
                      st.latency_us.end());
    window_keys += st.keys;
    report->attempted += st.present + st.insert_us.size();
    for (uint64_t i = 0; i < st.missing; ++i) {
      report->Fail("false negative in a lookup");
    }
    for (uint64_t i = 0; i < st.failures; ++i) {
      report->Fail("InsertBatch: " + st.first_error);
    }
  }

  // --- traced run: hit/promote split and the probe ladder -------------
  CallerStats single;
  if (traced) {
    std::thread t([&] {
      PinToCpu(0);
      uint64_t request_id = uint64_t{9} << 40;
      for (const Request& r : requests[0]) {
        bool promoted = false;
        const double us = serve(r, 0, ++request_id, &single, &promoted);
        if (r.insert) continue;
        (promoted ? single.promote_us : single.hit_us).push_back(us);
      }
      uint64_t sink = 0;
      std::vector<char> out_buf(kRequestKeys);
      std::span<bool> o(reinterpret_cast<bool*>(out_buf.data()), kRequestKeys);
      for (const Request& r : requests[0]) {
        if (r.insert || r.kind == Kind::kRange) continue;
        const ccf::ConditionalCuckooFilter& f = *fleet->raw[r.slot];
        {
          const ccf::Hasher hasher(f.config().salt);
          Span span("hash.hash");
          span.set_items(kRequestKeys);
          for (uint64_t k : r.keys) sink += hasher.Hash(k);
        }
        {
          Span span("ccf.key_only");
          span.set_items(kRequestKeys);
          f.ContainsKeyBatch(r.keys, o);
        }
        Span span("ccf.flat_lookup");
        span.set_items(kRequestKeys);
        if (!f.LookupBatch(r.keys, std::span<const ccf::Predicate>(&preds[r.v], 1), o)
                 .ok()) {
          report->Fail("flat LookupBatch");
        }
      }
      if (sink == 42) std::printf("#\n");  // keeps the hash loop alive
    });
    t.join();
    report->attempted += single.present + single.insert_us.size();
    for (uint64_t i = 0; i < single.missing; ++i) {
      report->Fail("false negative in a lookup");
    }
    for (uint64_t i = 0; i < single.failures; ++i) {
      report->Fail("InsertBatch: " + single.first_error);
    }
  }

  // --- audits -------------------------------------------------------------
  uint64_t live_rows = fleet->base_rows;
  {
    std::vector<uint64_t> k;
    std::unique_ptr<bool[]> out(new bool[kPoolRows]);
    for (uint32_t s : writable) {
      for (uint64_t v = 0; v < 4; ++v) {
        k.clear();
        for (uint32_t slice = 0; slice < kPoolRows / kInsertRows; ++slice) {
          if (!inserted[s][slice].load(std::memory_order_relaxed)) continue;
          for (uint64_t j = 0; j < kInsertRows; ++j) {
            const uint64_t i = kPlainRows + slice * kInsertRows + j;
            if (A0(i) == v) k.push_back(keys.Of(s, i));
          }
        }
        if (k.empty()) continue;
        live_rows += k.size();
        std::span<bool> o(out.get(), k.size());
        report->attempted += k.size();
        if (!catalog.LookupBatch(IdOf(s), k, preds[v], o).ok()) {
          report->Fail("LookupBatch in the insert audit");
          continue;
        }
        for (bool b : o) {
          if (!b) report->Fail("inserted row answers false");
        }
      }
    }
  }
  uint64_t fp = 0, fp_probes = 0;
  {
    std::vector<uint64_t> k(kFprKeysPerEntry);
    std::unique_ptr<bool[]> out(new bool[kFprKeysPerEntry]);
    for (uint32_t s = 0; s < kFilters; ++s) {
      if (KindOf(s) == Kind::kRange) continue;
      for (size_t j = 0; j < kFprKeysPerEntry; ++j) {
        k[j] = keys.Of(s, kFprBase + j);
      }
      std::span<bool> o(out.get(), kFprKeysPerEntry);
      if (!catalog.LookupBatch(IdOf(s), k, preds[s % 4], o).ok()) {
        report->Fail("LookupBatch in the fpr audit");
        continue;
      }
      fp_probes += kFprKeysPerEntry;
      for (bool b : o) fp += b ? 1 : 0;
    }
  }

  const double query_s = quiet.pass_s();
  report->Detail("l2_bytes", static_cast<double>(caches.l2), "bytes");
  report->Detail("llc_bytes", static_cast<double>(caches.llc), "bytes");
  report->Detail("fleet_bytes", static_cast<double>(fleet->total_bytes), "bytes");
  const double budget = static_cast<double>(fleet->total_bytes / 4);
  report->Detail("hot_budget_bytes", budget, "bytes");
  report->Detail("fleet_to_hot_budget",
                 static_cast<double>(fleet->total_bytes) / budget, "ratio");
  report->Detail("fleet_to_llc",
                 caches.llc ? static_cast<double>(fleet->total_bytes) / caches.llc : 0,
                 "ratio");
  // One pass of every caller's list, spread over the callers.
  double pass_keys = 0, pass_rows = 0;
  for (const std::vector<Request>& list : requests) {
    for (const Request& r : list) {
      (r.insert ? pass_rows : pass_keys) +=
          r.insert ? kInsertRows : kRequestKeys;
    }
  }
  report->Detail("passes", static_cast<double>(pass_s.size()), "count");
  report->Detail("request_samples", static_cast<double>(latency_us.size()),
                 "count");
  report->Detail("quiet_pass_requests",
                 static_cast<double>(quiet.requests()), "count");
  report->Detail("pass_s_median", Median(pass_s), "s");
  report->Detail("request_p50_us_all", Quantile(latency_us, 0.5), "us");
  report->Detail("request_p99_us_all", Quantile(latency_us, 0.99), "us");
  report->Detail("keys_per_s", pass_keys / query_s, "keys/s");
  report->Detail("write_rows_per_s", pass_rows / query_s, "rows/s");
  report->Detail("query_s", query_s, "s");

  if (!traced) {
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("query_s", query_s, "s");
    report->Set("request_p50_us", quiet.p50_us(), "us");
    report->Set("request_p90_us", quiet.p90_us(), "us");
    report->Set("fpr", static_cast<double>(fp) / static_cast<double>(fp_probes),
                "ratio");
    report->Set("bits_per_row",
                static_cast<double>(fleet->total_bytes) * 8 /
                    static_cast<double>(live_rows),
                "bits");
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }
  const double lookups = static_cast<double>(single.hit_us.size() +
                                             single.promote_us.size());
  report->Detail("serve.hit_request_us_p50", Quantile(single.hit_us, 0.5), "us");
  report->Detail("serve.promote_request_us_p50",
                 Quantile(single.promote_us, 0.5), "us");
  report->Detail("serve.hit_frac",
                 lookups > 0 ? single.hit_us.size() / lookups : 0, "ratio");
  std::vector<double> insert_us;
  for (CallerStats& st : callers) {
    insert_us.insert(insert_us.end(), st.insert_us.begin(), st.insert_us.end());
  }
  report->Detail("serve.insert_us_p50", Quantile(insert_us, 0.5), "us");
  report->Detail("serve.promotions",
                 static_cast<double>(window_stats.promotions), "count");
  report->Detail("serve.evictions",
                 static_cast<double>(window_stats.evictions), "count");
  report->Detail("serve.alias_loads",
                 static_cast<double>(window_stats.alias_loads), "count");
  report->Detail("serve.hot_bytes",
                 static_cast<double>(window_stats.hot_bytes), "bytes");
  report->Detail("probe.pass_frac",
                 static_cast<double>(window_trues) /
                     static_cast<double>(std::max<uint64_t>(1, window_keys)),
                 "ratio");
  double load = 0, plain = 0;
  for (const auto& f : fleet->raw) {
    if (f == nullptr) continue;
    load += f->LoadFactor();
    plain += 1;
  }
  report->Detail("ccf.load_factor", plain > 0 ? load / plain : 0, "ratio");
}

}  // namespace perfbench
