// Host-interference monitor. On a virtual machine the kernel counts "steal"
// time: CPU time this guest wanted but the hypervisor gave to other guests.
// A background thread samples that counter (/proc/stat) so each timed sample
// can be checked afterwards: a sample taken while the host took CPU away
// measures the neighbours, not the program, and the workloads report
// medians over the calm samples (counting the others).
#ifndef PERFBENCH_STEAL_H_
#define PERFBENCH_STEAL_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/thread_annotations.h"

namespace firzen {
namespace perfbench {

class StealMonitor {
 public:
  /// Starts sampling every `period_ns` (when /proc/stat is readable).
  explicit StealMonitor(int64_t period_ns = 10'000'000);
  ~StealMonitor();
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  /// True when the host took more than 2% of the machine's CPU time during
  /// [t0_ns, t1_ns) (NowNs() instants). Always false where there is no
  /// steal counter.
  bool Disturbed(int64_t t0_ns, int64_t t1_ns) const;

 private:
  void Loop(int64_t period_ns);
  /// Steal ticks (USER_HZ units) in a window covering [t0_ns, t1_ns].
  int64_t TicksBetween(int64_t t0_ns, int64_t t1_ns) const FIRZEN_EXCLUDES(mu_);

  int cpus_ = 1;
  mutable Mutex mu_;
  std::vector<std::pair<int64_t, int64_t>> samples_ FIRZEN_GUARDED_BY(mu_);
  std::atomic<bool> stop_{false};
  std::thread thread_;  // declared last: it reads the members above
};

/// Timed samples, each flagged when the host took CPU away during it.
struct Samples {
  std::vector<double> values;
  std::vector<bool> disturbed;

  void Add(double value, bool was_disturbed) {
    values.push_back(value);
    disturbed.push_back(was_disturbed);
  }
  int64_t size() const { return static_cast<int64_t>(values.size()); }
  int64_t calm() const;
  /// The calm samples when there are at least `min_keep` (and at least
  /// one), else all of them; `dropped` accumulates how many were left out.
  std::vector<double> Calm(int64_t min_keep, int64_t* dropped) const;
};

}  // namespace perfbench
}  // namespace firzen

#endif  // PERFBENCH_STEAL_H_
