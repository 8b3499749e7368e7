#include "steal.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "trace.h"

namespace firzen {
namespace perfbench {
namespace {

constexpr double kUserHz = 100.0;      // /proc/stat tick rate (USER_HZ)
constexpr double kCalmStealShare = 0.02;

/// The machine-wide steal counter; -1 when unavailable.
int64_t ReadStealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return -1;
  // cpu  user nice system idle iowait irq softirq steal ...
  long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int n = std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : -1;
}

}  // namespace

StealMonitor::StealMonitor(int64_t period_ns) {
  cpus_ = std::max(1u, std::thread::hardware_concurrency());
  if (ReadStealTicks() < 0) return;
  thread_ = std::thread([this, period_ns] { Loop(period_ns); });
}

StealMonitor::~StealMonitor() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void StealMonitor::Loop(int64_t period_ns) {
  while (!stop_.load()) {
    const int64_t ticks = ReadStealTicks();
    const int64_t now = NowNs();
    {
      MutexLock lock(mu_);
      samples_.emplace_back(now, ticks);
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(period_ns));
  }
}

int64_t StealMonitor::TicksBetween(int64_t t0_ns, int64_t t1_ns) const {
  MutexLock lock(mu_);
  if (samples_.empty()) return 0;
  // Last sample at or before t0, first at or after t1 (clamped to the ends).
  auto after = std::lower_bound(
      samples_.begin(), samples_.end(), t1_ns,
      [](const std::pair<int64_t, int64_t>& s, int64_t t) { return s.first < t; });
  if (after == samples_.end()) --after;
  auto before = std::upper_bound(
      samples_.begin(), samples_.end(), t0_ns,
      [](int64_t t, const std::pair<int64_t, int64_t>& s) { return t < s.first; });
  if (before != samples_.begin()) --before;
  return std::max<int64_t>(0, after->second - before->second);
}

bool StealMonitor::Disturbed(int64_t t0_ns, int64_t t1_ns) const {
  const double cpu_ticks =
      static_cast<double>(t1_ns - t0_ns) * 1e-9 * kUserHz * cpus_;
  return static_cast<double>(TicksBetween(t0_ns, t1_ns)) >
         kCalmStealShare * cpu_ticks;
}

int64_t Samples::calm() const {
  return static_cast<int64_t>(
      std::count(disturbed.begin(), disturbed.end(), false));
}

std::vector<double> Samples::Calm(int64_t min_keep, int64_t* dropped) const {
  std::vector<double> out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (!disturbed[i]) out.push_back(values[i]);
  }
  if (static_cast<int64_t>(out.size()) < std::max<int64_t>(1, min_keep)) {
    return values;
  }
  *dropped += size() - static_cast<int64_t>(out.size());
  return out;
}

}  // namespace perfbench
}  // namespace firzen
