// In-memory span recorder for the traced pass. Spans are recorded by the
// benchmark's own code around each call it makes into a layer's public
// functions (the library itself is not instrumented), kept in memory while
// the workload runs, and written out as JSON lines when it ends.
//
// Calls into a layer may run on pool or server threads, so a span's parent
// is attributed afterwards by containment in time (AttachChildren) rather
// than by a per-thread stack. A layer's self time is its span's duration
// minus the union of its children's intervals (SelfTimeNs).
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/util/thread_annotations.h"

namespace firzen {
namespace perfbench {

/// Monotonic clock reading in nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;      // assigned by Tracer::Record; never 0 once recorded
  uint64_t parent = 0;  // 0 = root (set by AttachChildren)
  int64_t request_id = -1;
  /// Request ids a fused pass carried.
  std::vector<int64_t> carried;
  /// Users a pass or a scoring call covered.
  std::vector<int64_t> users;
  /// Work count of the call (users x items for scoring calls).
  int64_t work = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Stores a finished span (thread-safe) and returns its id.
  uint64_t Record(Span span) FIRZEN_EXCLUDES(mu_);

  /// Removes and returns every span recorded so far.
  std::vector<Span> TakeSpans() FIRZEN_EXCLUDES(mu_);

 private:
  std::atomic<bool> enabled_{false};
  Mutex mu_;
  uint64_t next_id_ FIRZEN_GUARDED_BY(mu_) = 1;
  std::vector<Span> spans_ FIRZEN_GUARDED_BY(mu_);
};

/// The process-wide recorder the workloads write to.
Tracer& GlobalTracer();

/// Length of the union of `intervals` ([begin, end) in ns) after clipping
/// each to [clip_begin, clip_end).
int64_t UnionLengthNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                      int64_t clip_begin, int64_t clip_end);

/// `parent`'s duration minus the part of it its children cover.
int64_t SelfTimeNs(const Span& parent, const std::vector<const Span*>& children);

/// Sets the parent of every span named `child_name` to the span named
/// `parent_name` that contains it in time, preferring the latest start.
/// With `match_users`, the parent must also cover every user the child
/// scored — this separates concurrent fused passes.
void AttachChildren(std::vector<Span>* spans, const std::string& parent_name,
                    const std::string& child_name, bool match_users);

/// Children of span `id` among `spans` (by the parent field).
std::vector<const Span*> ChildrenOf(const std::vector<Span>& spans,
                                    uint64_t id);

/// Writes one JSON object per span. Returns false on an I/O error.
bool WriteSpansJsonl(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
}  // namespace firzen

#endif  // PERFBENCH_TRACE_H_
