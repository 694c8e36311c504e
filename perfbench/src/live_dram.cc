// live-dram: one chained ShardedCcf larger than the last-level cache, built
// with InsertParallel, serving two closed-loop readers while one writer
// stages and commits write batches. A reader's pass is kRequestsPerPass
// batched predicate lookups of 1024 keys (half present, half never
// inserted). The writer applies one batch of 3 * kCrudRows staged records
// per kSlot reader requests: it stages batch j once the readers have made
// j * kSlot requests in all and commits it half a slot later, and readers
// wait while they are a full slot ahead of the last commit. Writes are
// paced by read progress, never by the clock, so the ratio of written rows
// to lookups is fixed and slower commits show up as slower reads. A pass
// spans two write batches, so every pass overlaps the same number of
// commits and the fastest passes are not merely ones that missed a commit.
//
// Each write batch holds a third each of inserts (BufferWriteBatch),
// updates (BufferUpdate) and erases (BufferErase), so the table size stays
// flat. The present-row audit after the window checks every live row,
// committed or still staged, and counts each that reads false as a failed
// operation (perfbench/README.md describes the library defect it finds).
//
// Key i is Mix64(i ^ key_salt), a bijection, so distinct indices are
// distinct keys. Base rows are indices [0, rows). The writer erases and
// updates only "churn" rows: the first kChurnRows base rows that route to
// shard 0. The first erase in a shard builds that shard's key index over
// its retained row log (about 100 bytes per row), so confining erases to
// one shard keeps that index to an eighth of the table; set-up pays for it
// with one erase. Fresh rows (indices from `rows` up) are inserted into
// shard 0 as well, as a writer that groups its rows by shard would: a commit
// copies the table of every shard it touches, and a batch spread over all
// shards would copy the whole table each time.
// Readers draw present keys from indices past the last churn row;
// never-inserted keys come from indices at 2^40 and above.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ccf/sharded_ccf.h"
#include "common.h"
#include "hash/hasher.h"
#include "trace.h"
#include "util/random.h"

namespace perfbench {
namespace {

constexpr int kShards = 8;
constexpr int kBuildThreads = 4;
// The table is at least kLlcMultiple times the LLC: at the smallest power of
// two above it (1.16x here) most of the table could still sit in the LLC,
// which is not the DRAM regime. The low load keeps the row count, hence the
// build time and the retained row log, small at that size.
constexpr int kLlcMultiple = 2;
constexpr double kLoad = 0.15;            // rows / slots
constexpr size_t kRequestKeys = 1024;
constexpr int kReaders = 2;
constexpr int kRequestsPerPass = 1024;    // per reader: two write batches
constexpr uint64_t kSlot = 1024;          // reader requests per write batch
constexpr size_t kCrudRows = 256;         // each of insert, update, erase
constexpr uint64_t kChurnRows = 1 << 19;
constexpr uint64_t kAbsentBase = uint64_t{1} << 40;
constexpr uint64_t kFprBase = uint64_t{1} << 41;
constexpr size_t kFprProbes = 16u << 20;
constexpr size_t kLadderRequests = 1024;
constexpr size_t kBuildChunk = 4u << 20;
// The timed window is split into kSegments segments, each on a freshly
// built table, so a run samples several allocations and several stretches
// of the host's load; setup_s is the median of the builds.
constexpr int kSegments = 2;
constexpr int kMinPasses = 3;  // per reader and segment

ccf::CcfConfig TableConfig(uint64_t buckets, uint64_t salt) {
  ccf::CcfConfig c;
  c.num_buckets = buckets;
  c.slots_per_bucket = 6;
  c.key_fp_bits = 12;
  c.attr_fp_bits = 8;
  c.num_attrs = 2;
  c.max_dupes = 3;
  c.salt = salt;
  return c;
}

ccf::ShardedCcfOptions TableOptions() {
  ccf::ShardedCcfOptions o;
  o.num_shards = kShards;
  o.build_threads = kBuildThreads;
  o.resize_watermark = 0;  // no background resizes
  return o;
}

uint64_t A0(uint64_t i) { return i % 4; }
uint64_t A1(uint64_t i) { return (i >> 2) % 16; }

// Smallest power-of-two bucket count whose table is at least `llc` bytes,
// measured from a small table of the same shape.
ccf::Result<uint64_t> BucketsFor(uint64_t llc) {
  constexpr uint64_t kProbeBuckets = 1 << 16;
  CCF_ASSIGN_OR_RETURN(auto probe,
                       ccf::ShardedCcf::Make(ccf::CcfVariant::kChained,
                                             TableConfig(kProbeBuckets, 1),
                                             TableOptions()));
  const double bytes_per_bucket =
      static_cast<double>(probe->SizeInBits()) / 8.0 / kProbeBuckets;
  uint64_t buckets = kProbeBuckets;
  while (static_cast<double>(buckets) * bytes_per_bucket <
         static_cast<double>(llc)) {
    buckets *= 2;
  }
  return buckets;
}

class Keys {
 public:
  explicit Keys(uint64_t seed) : salt_(Mix64(seed ^ 0x5eed)) {}
  uint64_t Of(uint64_t index) const { return Mix64(index ^ salt_); }

 private:
  uint64_t salt_;
};

// Generates and inserts the base rows, then makes the first erase in
// shard 0 (an erase and re-insert of one row, which leaves the row
// set unchanged) so the writer never pays the shard's index build.
ccf::Result<std::unique_ptr<ccf::ShardedCcf>> Build(uint64_t buckets,
                                                    uint64_t rows,
                                                    uint64_t seed,
                                                    const Keys& keys) {
  CCF_ASSIGN_OR_RETURN(auto f, ccf::ShardedCcf::Make(ccf::CcfVariant::kChained,
                                                     TableConfig(buckets, seed),
                                                     TableOptions()));
  std::vector<uint64_t> k;
  std::vector<uint64_t> a;
  for (uint64_t begin = 0; begin < rows; begin += kBuildChunk) {
    const uint64_t n = std::min<uint64_t>(kBuildChunk, rows - begin);
    {
      Span span("data.generate");
      span.set_items(n);
      k.resize(n);
      a.resize(2 * n);
      for (uint64_t j = 0; j < n; ++j) {
        k[j] = keys.Of(begin + j);
        a[2 * j] = A0(begin + j);
        a[2 * j + 1] = A1(begin + j);
      }
    }
    Span span("sharded.build");
    span.set_items(n);
    CCF_RETURN_NOT_OK(f->InsertParallel(k, a, kBuildThreads));
  }
  uint64_t i = 0;
  while (f->ShardOf(keys.Of(i)) != 0) ++i;
  const uint64_t attrs[2] = {A0(i), A1(i)};
  Span span("sharded.first_erase");
  CCF_RETURN_NOT_OK(f->BufferErase(keys.Of(i), attrs));
  CCF_RETURN_NOT_OK(f->BufferWrite(keys.Of(i), attrs));
  CCF_RETURN_NOT_OK(f->CommitWrites(1));
  return f;
}

// A row the writer has touched or may touch: churn rows, then its inserts.
struct ChurnRow {
  uint64_t index;
  uint64_t a1;
};

struct ReaderStats {
  std::vector<double> pass_s;
  std::vector<double> latency_us;
  QuietPasses quiet;
  uint64_t requests = 0;
  uint64_t present = 0;
  uint64_t present_true = 0;
  uint64_t absent = 0;
  uint64_t absent_true = 0;
  double pending_sum = 0;
  std::string error;
};

// Request q of pass p for reader r: deterministic in (seed, p, r, q).
// Present keys are base rows from index `first` (a multiple of 4) on, so
// first + 4m + v has attr0 == v.
void MakeRequest(const Keys& keys, uint64_t seed, uint64_t first,
                 uint64_t rows, uint64_t p, int r, int q,
                 std::vector<uint64_t>* out, uint64_t* v) {
  ccf::Rng rng(Mix64(seed * 1000003 + p * 4099 + r * 131 + q));
  *v = static_cast<uint64_t>(q) % 4;
  const uint64_t slots = (rows - first) / 4 - 1;
  out->resize(kRequestKeys);
  for (size_t j = 0; j < kRequestKeys; ++j) {
    (*out)[j] = j % 2 == 0
                    ? keys.Of(first + 4 * rng.NextBelow(slots) + *v)
                    : keys.Of(kAbsentBase + rng.NextBelow(kAbsentBase));
  }
}

}  // namespace

void RunLiveDram(const Args& args, Report* report) {
  const bool traced = Tracer::Get().enabled();
  const CacheSizes caches = ReadCacheSizes();
  // Fall back to a 32 MiB LLC when sysfs has no cache information.
  const uint64_t llc = caches.llc != 0 ? caches.llc : (uint64_t{32} << 20);
  auto buckets = BucketsFor(kLlcMultiple * llc);
  if (!buckets.ok()) {
    report->Fail("ShardedCcf::Make: " + buckets.status().ToString());
    return;
  }
  const uint64_t rows =
      static_cast<uint64_t>(static_cast<double>(*buckets) * 6 * kLoad);
  const Keys keys(args.seed);
  const ccf::Predicate preds[4] = {
      ccf::Predicate::Equals(0, 0), ccf::Predicate::Equals(0, 1),
      ccf::Predicate::Equals(0, 2), ccf::Predicate::Equals(0, 3)};

  // Writer state of the current table. `churn` holds the churn rows
  // (the first kChurnRows base rows in shard 0) and every row the writer
  // inserted, with current attributes, for the audit.
  std::unique_ptr<ccf::ShardedCcf> table;
  std::deque<ChurnRow> churn;
  uint64_t churn_end = 0;
  uint64_t next_fresh = 0;
  auto is_churn = [&](uint64_t i) {
    return i < churn_end && table->ShardOf(keys.Of(i)) == 0;
  };

  // Stages one write batch of 3 * kCrudRows records: erases and updates
  // from the churn front, inserts of fresh shard-0 rows at its back.
  std::vector<double> stage_ns_per_row;
  auto stage_batch = [&]() -> ccf::Status {
    ccf::ShardedCcf& f = *table;
    const Clock::time_point t0 = Clock::now();
    Span span("sharded.stage");
    span.set_items(3 * kCrudRows);
    for (size_t j = 0; j < kCrudRows; ++j) {
      const ChurnRow row = churn.front();
      churn.pop_front();
      const uint64_t attrs[2] = {A0(row.index), row.a1};
      CCF_RETURN_NOT_OK(f.BufferErase(keys.Of(row.index), attrs));
    }
    for (size_t j = 0; j < kCrudRows; ++j) {
      ChurnRow row = churn.front();
      churn.pop_front();
      const uint64_t old_attrs[2] = {A0(row.index), row.a1};
      row.a1 = (row.a1 + 1) % 16;
      const uint64_t new_attrs[2] = {A0(row.index), row.a1};
      CCF_RETURN_NOT_OK(
          f.BufferUpdate(keys.Of(row.index), old_attrs, new_attrs));
      churn.push_back(row);
    }
    std::vector<uint64_t> k(kCrudRows);
    std::vector<uint64_t> a(2 * kCrudRows);
    for (size_t j = 0; j < kCrudRows; ++j) {
      uint64_t i = next_fresh++;
      while (f.ShardOf(keys.Of(i)) != 0) i = next_fresh++;
      k[j] = keys.Of(i);
      a[2 * j] = A0(i);
      a[2 * j + 1] = A1(i);
      churn.push_back({i, A1(i)});
    }
    CCF_RETURN_NOT_OK(f.BufferWriteBatch(k, a));
    stage_ns_per_row.push_back(SecondsSince(t0) * 1e9 / (3 * kCrudRows));
    return ccf::Status::OK();
  };

  std::vector<double> setup_s, pass_s, latency_us, commit_ms;
  QuietPasses quiet;
  uint64_t requests = 0, present = 0, present_true = 0;
  uint64_t absent = 0, absent_true = 0, commits_attempted = 0;
  double pending_sum = 0;
  std::string read_error, write_error;
  const int segments = traced ? 1 : kSegments;
  for (int seg = 0; seg < segments; ++seg) {
    table.reset();  // frees the previous table first
    const Clock::time_point t0 = Clock::now();
    auto built = Build(*buckets, rows, args.seed, keys);
    if (!built.ok()) {
      report->Fail("build: " + built.status().ToString());
      return;
    }
    table = std::move(built).ValueOrDie();
    setup_s.push_back(SecondsSince(t0));
    ccf::ShardedCcf& f = *table;
    churn.clear();
    churn_end = 0;
    while (churn.size() < kChurnRows) {
      if (f.ShardOf(keys.Of(churn_end)) == 0) {
        churn.push_back({churn_end, A1(churn_end)});
      }
      ++churn_end;
    }
    churn_end = (churn_end + 3) / 4 * 4;
    next_fresh = rows;

    // The segment: readers and the writer run free, paced by progress.
    Window window(kReaders, kMinPasses);
    std::atomic<uint64_t> progress{0};   // reader requests so far
    std::atomic<uint64_t> committed{0};  // write batches committed
    auto wait_until = [&](auto ready) {
      while (!ready() && !window.stopped()) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    };
    std::vector<ReaderStats> readers(kReaders);
    std::vector<std::thread> threads;
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        PinToCpu(r);
        ReaderStats& st = readers[r];
        std::vector<uint64_t> req;
        std::unique_ptr<bool[]> out(new bool[kRequestKeys]);
        uint64_t request_id = static_cast<uint64_t>(seg * kReaders + r + 1)
                              << 40;
        std::vector<double> pass_us;
        for (uint64_t p = 0; !window.stopped(); ++p) {
          const Clock::time_point p0 = Clock::now();
          int q = 0;
          for (; q < kRequestsPerPass && !window.stopped(); ++q) {
            wait_until([&] {
              return progress.load() < (committed.load() + 1) * kSlot;
            });
            uint64_t v = 0;
            MakeRequest(keys, args.seed, churn_end, rows, p, r, q, &req, &v);
            const Clock::time_point q0 = Clock::now();
            ccf::Status s;
            {
              const bool record = ++request_id % kTraceEvery == 0;
              Span span("live.read", request_id, record);
              Span lookup("sharded.lookup", 0, record);
              lookup.set_items(kRequestKeys);
              s = f.LookupBatch(req,
                                std::span<const ccf::Predicate>(&preds[v], 1),
                                std::span<bool>(out.get(), kRequestKeys));
            }
            const double us = SecondsSince(q0) * 1e6;
            progress.fetch_add(1);
            if (traced) {
              st.pending_sum += static_cast<double>(f.pending_writes());
            }
            ++st.requests;
            if (p > 0) {
              st.latency_us.push_back(us);
              pass_us.push_back(us);
            }
            st.present += kRequestKeys / 2;
            st.absent += kRequestKeys / 2;
            if (!s.ok()) {
              if (st.error.empty()) st.error = s.ToString();
              continue;
            }
            for (size_t j = 0; j < kRequestKeys; j += 2) {
              st.present_true += out[j] ? 1 : 0;
              st.absent_true += out[j + 1] ? 1 : 0;
            }
          }
          if (p == 0) {
            window.Warmed();
          } else if (q == kRequestsPerPass) {
            st.pass_s.push_back(SecondsSince(p0));
            st.quiet.Offer(st.pass_s.back(), &pass_us);
            window.PassDone(r);
          }
          pass_us.clear();
        }
      });
    }
    threads.emplace_back([&] {
      PinToCpu(kReaders);
      for (uint64_t j = 0; !window.stopped() && write_error.empty(); ++j) {
        wait_until([&] { return progress.load() >= j * kSlot; });
        if (window.stopped()) break;
        ccf::Status s = stage_batch();
        wait_until([&] { return progress.load() >= j * kSlot + kSlot / 2; });
        ++commits_attempted;
        if (s.ok()) {
          const Clock::time_point c0 = Clock::now();
          Span span("sharded.commit");
          s = f.CommitWrites(1);
          commit_ms.push_back(SecondsSince(c0) * 1e3);
        }
        if (!s.ok()) write_error = s.ToString();
        committed.fetch_add(1);
      }
    });
    window.Run(args.seconds / segments);
    for (std::thread& t : threads) t.join();
    for (ReaderStats& st : readers) {
      pass_s.insert(pass_s.end(), st.pass_s.begin(), st.pass_s.end());
      quiet.Offer(st.quiet);
      latency_us.insert(latency_us.end(), st.latency_us.begin(),
                        st.latency_us.end());
      requests += st.requests;
      present += st.present;
      present_true += st.present_true;
      absent += st.absent;
      absent_true += st.absent_true;
      pending_sum += st.pending_sum;
      if (read_error.empty()) read_error = st.error;
    }
  }
  ccf::ShardedCcf& f = *table;
  report->attempted += present + commits_attempted;
  if (!read_error.empty()) report->Fail("LookupBatch: " + read_error);
  for (uint64_t i = present_true; i < present; ++i) {
    report->Fail("false negative in a read");
  }
  if (!write_error.empty()) report->Fail("write: " + write_error);

  // --- traced run: the same kind of probe stream one layer down ----------
  // Each rung gets fresh keys from the readers' distribution, so no rung
  // finds lines a previous one pulled into the cache. The shards are flat
  // CCFs holding the table's rows; the writer has stopped, so reading them
  // directly is safe.
  if (traced) {
    std::thread ladder([&] {
      PinToCpu(0);
      std::vector<std::vector<uint64_t>> per_shard(kShards);
      std::vector<uint64_t> req;
      uint64_t sink = 0;
      const ccf::Hasher hasher(f.config().salt);
      std::vector<char> out_buf;
      for (int rung = 0; rung < 3; ++rung) {
        for (size_t q = 0; q < kLadderRequests; ++q) {
          uint64_t v = 0;
          MakeRequest(keys, args.seed, churn_end, rows, (1u << 30) + rung, 0,
                      static_cast<int>(q), &req, &v);
          if (rung == 0) {
            Span span("hash.hash");
            span.set_items(req.size());
            for (uint64_t k : req) sink += hasher.Hash(k);
            continue;
          }
          for (auto& s : per_shard) s.clear();
          for (uint64_t k : req) per_shard[f.ShardOf(k)].push_back(k);
          for (int s = 0; s < kShards; ++s) {
            const std::vector<uint64_t>& ks = per_shard[s];
            out_buf.assign(ks.size(), 0);
            std::span<bool> out(reinterpret_cast<bool*>(out_buf.data()),
                                ks.size());
            if (rung == 1) {
              Span span("ccf.key_only");
              span.set_items(ks.size());
              f.shard(s).ContainsKeyBatch(ks, out);
              continue;
            }
            Span span("ccf.flat_lookup");
            span.set_items(ks.size());
            if (!f.shard(s)
                     .LookupBatch(ks,
                                  std::span<const ccf::Predicate>(&preds[v], 1),
                                  out)
                     .ok()) {
              report->Fail("flat LookupBatch");
            }
          }
        }
      }
      if (sink == 42) std::printf("#\n");  // keeps the hash loop alive
    });
    ladder.join();
  }

  // --- audits: one more batch left staged, then every present row ---------
  if (ccf::Status s = stage_batch(); !s.ok()) {
    report->Fail("stage: " + s.ToString());
  }
  const uint64_t staged = f.pending_writes();
  std::mutex audit_mu;
  std::vector<std::thread> auditors;
  const int audit_threads = std::min(4, UsableCpus());
  for (int t = 0; t < audit_threads; ++t) {
    auditors.emplace_back([&, t] {
      std::vector<uint64_t> k;
      std::unique_ptr<bool[]> out(new bool[kRequestKeys]);
      uint64_t checked = 0, missing = 0;
      // Untouched base rows, grouped by attr0 so one predicate serves a batch.
      for (uint64_t v = 0; v < 4; ++v) {
        for (uint64_t m = t * kRequestKeys; 4 * m + v < rows;
             m += audit_threads * kRequestKeys) {
          k.clear();
          for (uint64_t i = 4 * m + v;
               i < std::min(rows, 4 * (m + kRequestKeys)); i += 4) {
            if (!is_churn(i)) k.push_back(keys.Of(i));
          }
          std::span<bool> o(out.get(), k.size());
          if (!f.LookupBatch(k, std::span<const ccf::Predicate>(&preds[v], 1),
                             o)
                   .ok()) {
            missing += k.size();
          } else {
            for (bool b : o) missing += b ? 0 : 1;
          }
          checked += k.size();
        }
      }
      // Rows the writer touched, with their current attributes.
      for (size_t j = t; j < churn.size(); j += audit_threads) {
        const ChurnRow& row = churn[j];
        const uint64_t attrs[2] = {A0(row.index), row.a1};
        if (!f.ContainsRow(keys.Of(row.index), attrs)) ++missing;
        ++checked;
      }
      std::lock_guard<std::mutex> lock(audit_mu);
      report->attempted += checked;
      for (uint64_t i = 0; i < missing; ++i) {
        report->Fail("false negative in the present-row audit");
      }
    });
  }
  for (std::thread& t : auditors) t.join();

  // False-positive rate on never-inserted keys. The count does not depend
  // on how the probes are split, so the audit threads share them.
  std::atomic<uint64_t> fp{0};
  auditors.clear();
  for (int t = 0; t < audit_threads; ++t) {
    auditors.emplace_back([&, t] {
      std::vector<uint64_t> k(kRequestKeys);
      std::unique_ptr<bool[]> out(new bool[kRequestKeys]);
      uint64_t local = 0;
      for (size_t base = t * kRequestKeys; base < kFprProbes;
           base += audit_threads * kRequestKeys) {
        const uint64_t v = (base / kRequestKeys) % 4;
        for (size_t j = 0; j < kRequestKeys; ++j) {
          k[j] = keys.Of(kFprBase + base + j);
        }
        std::span<bool> o(out.get(), kRequestKeys);
        if (!f.LookupBatch(k, std::span<const ccf::Predicate>(&preds[v], 1), o)
                 .ok()) {
          std::lock_guard<std::mutex> lock(audit_mu);
          report->Fail("LookupBatch in the fpr audit");
          continue;
        }
        for (bool b : o) local += b ? 1 : 0;
      }
      fp.fetch_add(local);
    });
  }
  for (std::thread& t : auditors) t.join();

  const double query_s = quiet.pass_s();
  const double table_bytes = static_cast<double>(f.SizeInBits()) / 8;
  const uint64_t live_rows = f.num_rows();
  report->Detail("llc_bytes", static_cast<double>(llc), "bytes");
  report->Detail("table_bytes", table_bytes, "bytes");
  report->Detail("table_to_llc", table_bytes / static_cast<double>(llc),
                 "ratio");
  report->Detail("rows", static_cast<double>(live_rows), "rows");
  report->Detail("passes", static_cast<double>(pass_s.size()), "count");
  report->Detail("request_samples", static_cast<double>(latency_us.size()),
                 "count");
  report->Detail("quiet_pass_requests",
                 static_cast<double>(quiet.requests()), "count");
  report->Detail("pass_s_median", Median(pass_s), "s");
  report->Detail("request_p50_us_all", Quantile(latency_us, 0.5), "us");
  report->Detail("request_p99_us_all", Quantile(latency_us, 0.99), "us");
  report->Detail("keys_per_s", kReaders * kRequestsPerPass * kRequestKeys /
                                   query_s,
                 "keys/s");
  report->Detail("write_rows_per_s",
                 static_cast<double>(kReaders) * kRequestsPerPass / kSlot * 3 *
                     kCrudRows / query_s,
                 "rows/s");
  report->Detail("commits", static_cast<double>(commit_ms.size()), "count");
  report->Detail("staged_at_audit", static_cast<double>(staged), "count");
  report->Detail("query_s", query_s, "s");

  if (!traced) {
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("query_s", query_s, "s");
    report->Set("request_p50_us", quiet.p50_us(), "us");
    report->Set("request_p90_us", quiet.p90_us(), "us");
    report->Set("fpr", static_cast<double>(fp.load()) / kFprProbes, "ratio");
    report->Set("bits_per_row",
                static_cast<double>(f.SizeInBits()) /
                    static_cast<double>(live_rows),
                "bits");
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }
  report->Detail("sharded.stage_ns_per_row", Median(stage_ns_per_row),
                 "ns/row");
  report->Detail("sharded.commit_ms_p50", Quantile(commit_ms, 0.5), "ms");
  report->Detail("sharded.commit_ms_p99", Quantile(commit_ms, 0.99), "ms");
  report->Detail(
      "sharded.pending_rows_mean",
      pending_sum / static_cast<double>(std::max<uint64_t>(1, requests)),
      "rows");
  report->Detail("sharded.compactions",
                 static_cast<double>(f.num_compactions()), "count");
  report->Detail("sharded.watermark_resizes",
                 static_cast<double>(f.num_watermark_resizes()), "count");
  report->Detail("sharded.retained_log_rows",
                 static_cast<double>(f.retained_log_rows()), "rows");
  report->Detail("ccf.load_factor", f.LoadFactor(), "ratio");
  report->Detail("ccf.rebuilds", static_cast<double>(f.num_resizes()),
                 "count");
  report->Detail("probe.pass_frac",
                 static_cast<double>(present_true + absent_true) /
                     static_cast<double>(std::max<uint64_t>(1, present + absent)),
                 "ratio");
}

}  // namespace perfbench
