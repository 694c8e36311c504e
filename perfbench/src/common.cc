#include "common.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>
#include <thread>

namespace perfbench {

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

bool ReadLine(const std::string& path, std::string* out) {
  std::ifstream in(path);
  return static_cast<bool>(std::getline(in, *out));
}

// "48K", "2048K", "32M" → bytes; 0 on anything else.
uint64_t ParseCacheSize(const std::string& s) {
  size_t used = 0;
  unsigned long long n = 0;
  try {
    n = std::stoull(s, &used);
  } catch (...) {
    return 0;
  }
  const std::string suffix = s.substr(used);
  if (suffix == "K") return n << 10;
  if (suffix == "M") return n << 20;
  if (suffix == "G") return n << 30;
  return suffix.empty() ? n : 0;
}

// The CPUs the process may use, captured before any thread pins itself
// (threads inherit their creator's mask).
const cpu_set_t kAllowedCpus = [] {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_SET(0, &set);
  return set;
}();

}  // namespace

void QuietPasses::Keep(const Pass& pass) {
  if (fastest_.size() == kKeep && pass.s >= fastest_.back().s) return;
  auto at = std::upper_bound(
      fastest_.begin(), fastest_.end(), pass.s,
      [](double s, const Pass& p) { return s < p.s; });
  fastest_.insert(at, pass);
  if (fastest_.size() > kKeep) fastest_.pop_back();
}

void QuietPasses::Offer(double s, std::vector<double>* latencies) {
  if (fastest_.size() < kKeep || s < fastest_.back().s) {
    const double p50 = Quantile(*latencies, 0.5);
    Keep({s, p50, Quantile(*latencies, 0.9), latencies->size()});
  }
  latencies->clear();
}

void QuietPasses::Offer(const QuietPasses& other) {
  for (const Pass& pass : other.fastest_) Keep(pass);
}

double QuietPasses::MedianOf(double Pass::*field) const {
  std::vector<double> v;
  for (const Pass& pass : fastest_) v.push_back(pass.*field);
  return v.empty() ? std::numeric_limits<double>::quiet_NaN() : Median(v);
}

double QuietPasses::pass_s() const { return MedianOf(&Pass::s); }
double QuietPasses::p50_us() const { return MedianOf(&Pass::p50_us); }
double QuietPasses::p90_us() const { return MedianOf(&Pass::p90_us); }

size_t QuietPasses::requests() const {
  size_t n = 0;
  for (const Pass& pass : fastest_) n += pass.requests;
  return n;
}

CacheSizes ReadCacheSizes() {
  CacheSizes sizes;
  int llc_level = 0;
  for (int i = 0; i < 16; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::string level, type, size;
    if (!ReadLine(dir + "level", &level) || !ReadLine(dir + "type", &type) ||
        !ReadLine(dir + "size", &size)) {
      continue;
    }
    if (type == "Instruction") continue;
    const int lv = std::atoi(level.c_str());
    const uint64_t bytes = ParseCacheSize(size);
    if (lv == 2) sizes.l2 = bytes;
    if (lv >= llc_level) {
      llc_level = lv;
      sizes.llc = bytes;
    }
  }
  return sizes;
}

Window::Window(int callers, int min_passes)
    : callers_(callers),
      min_passes_(min_passes),
      passes_(new std::atomic<int>[callers]) {
  for (int c = 0; c < callers; ++c) passes_[c].store(0);
}

void Window::Warmed() {
  warmed_.fetch_add(1);
  while (warmed_.load() < callers_) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

void Window::PassDone(int caller) { passes_[caller].fetch_add(1); }

void Window::Run(double seconds) {
  while (warmed_.load() < callers_) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const Clock::time_point t0 = Clock::now();
  auto done = [&] {
    if (SecondsSince(t0) < seconds) return false;
    for (int c = 0; c < callers_; ++c) {
      if (passes_[c].load() < min_passes_) return false;
    }
    return true;
  };
  while (!done()) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  stop_.store(true);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss in KiB
}

int UsableCpus() { return std::max(1, CPU_COUNT(&kAllowedCpus)); }

void PinToCpu(int cpu) {
  int want = cpu % UsableCpus();
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &kAllowedCpus)) continue;
    if (want-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      return;
    }
  }
}

}  // namespace perfbench
