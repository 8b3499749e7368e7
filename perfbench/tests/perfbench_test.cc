// Self-tests of the benchmark's own machinery: the percentile and
// sample-count rule, the seeded serve-online inputs, and self time from the
// union of child intervals. Checks stay active in every build type.
//
//   ctest --test-dir .bench_build/perfbench
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "schedule.h"
#include "stats.h"
#include "steal.h"
#include "trace.h"

namespace {

using namespace firzen;             // NOLINT(build/namespaces)
using namespace firzen::perfbench;  // NOLINT(build/namespaces)

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "perfbench_test.cc:%d: check failed: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentiles() {
  CHECK(Percentile(OneTo(100), 0.5) == 50.0);
  CHECK(Percentile(OneTo(100), 0.9) == 90.0);
  CHECK(Percentile(OneTo(1000), 0.99) == 990.0);
  CHECK(Percentile(OneTo(1), 0.99) == 1.0);
  CHECK(Percentile({3.0, 1.0, 2.0}, 1.0) == 3.0);
  CHECK(Median(OneTo(5)) == 3.0);
  // Ten samples beyond the reported percentile, no fewer.
  CHECK(SamplesBeyond(100, 0.9) == 10);
  CHECK(SamplesBeyond(99, 0.9) == 9);
  CHECK(SamplesBeyond(1000, 0.99) == 10);
  CHECK(SamplesBeyond(999, 0.99) == 9);
  CHECK(MinSamplesFor(0.9) == 100);
  CHECK(MinSamplesFor(0.99) == 1000);
  CHECK(MinSamplesFor(0.5) == 20);
}

bool SameRequests(const std::vector<RecRequest>& a,
                  const std::vector<RecRequest>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].user != b[i].user || a[i].k != b[i].k ||
        a[i].cold_only != b[i].cold_only || a[i].exclusion != b[i].exclusion ||
        a[i].candidates != b[i].candidates || a[i].exclude != b[i].exclude) {
      return false;
    }
  }
  return true;
}

void TestScheduleDeterminism() {
  CatalogShape shape;
  shape.num_users = 500;
  shape.num_items = 2000;
  const std::vector<RecRequest> a = MakeOnlineRequestPool(shape, 7, 2000);
  CHECK(SameRequests(a, MakeOnlineRequestPool(shape, 7, 2000)));
  CHECK(!SameRequests(a, MakeOnlineRequestPool(shape, 8, 2000)));

  // The mix: about 70% full catalog, 20% cold shelf, 10% candidate pools,
  // with k in {10, 20, 50} and hot users repeating.
  int full = 0, cold = 0, pools = 0;
  std::vector<int> per_user(static_cast<size_t>(shape.num_users), 0);
  for (const RecRequest& r : a) {
    CHECK(r.k == 10 || r.k == 20 || r.k == 50);
    CHECK(r.user >= 0 && r.user < shape.num_users);
    ++per_user[static_cast<size_t>(r.user)];
    if (!r.candidates.empty()) {
      ++pools;
      CHECK(r.exclusion == ExclusionPolicy::kCustom);
      CHECK(static_cast<Index>(r.exclude.size()) == kCustomExclusions);
    } else if (r.cold_only) {
      ++cold;
    } else {
      ++full;
    }
  }
  CHECK(full > 1300 && full < 1500);
  CHECK(cold > 330 && cold < 470);
  CHECK(pools > 140 && pools < 260);
  int hottest = 0;
  for (int c : per_user) hottest = std::max(hottest, c);
  CHECK(hottest > 100);  // Zipf(1): the top user draws ~1/H(500) = 15%

  const ArrivalSchedule s = MakePoissonSchedule(7, 1000.0, 5.0, 2000);
  const ArrivalSchedule same = MakePoissonSchedule(7, 1000.0, 5.0, 2000);
  CHECK(s.due_ns == same.due_ns && s.pool_index == same.pool_index);
  CHECK(MakePoissonSchedule(8, 1000.0, 5.0, 2000).due_ns != s.due_ns);
  CHECK(MakePoissonSchedule(7, 2000.0, 5.0, 2000).due_ns != s.due_ns);
  // 5000 arrivals expected; a Poisson count is within 4 sigma (~283).
  CHECK(s.due_ns.size() > 4717 && s.due_ns.size() < 5283);
  bool increasing = true;
  for (size_t i = 1; i < s.due_ns.size(); ++i) {
    increasing = increasing && s.due_ns[i] >= s.due_ns[i - 1];
  }
  CHECK(increasing);
  CHECK(s.due_ns.back() < 5'000'000'000);
}

Span MakeSpan(const std::string& name, int64_t start, int64_t end,
              std::vector<int64_t> users = {}) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.users = std::move(users);
  return s;
}

void TestSelfTime() {
  // Overlapping children count once; parts outside the parent are clipped.
  CHECK(UnionLengthNs({{10, 20}, {15, 30}, {40, 50}}, 0, 100) == 30);
  CHECK(UnionLengthNs({{10, 20}, {15, 30}, {40, 50}}, 18, 45) == 17);
  CHECK(UnionLengthNs({{10, 20}, {20, 30}}, 0, 100) == 20);
  CHECK(UnionLengthNs({{5, 10}, {1, 100}}, 0, 50) == 49);
  CHECK(UnionLengthNs({}, 0, 100) == 0);

  Tracer tracer;
  tracer.Record(MakeSpan("pass", 0, 100, {1, 2, 3}));
  tracer.Record(MakeSpan("pass", 50, 200, {4, 5}));
  tracer.Record(MakeSpan("score", 10, 40, {1, 2}));    // first pass
  tracer.Record(MakeSpan("score", 30, 60, {3}));       // first pass
  tracer.Record(MakeSpan("score", 60, 90, {4}));       // second: users match
  tracer.Record(MakeSpan("score", 120, 150, {5}));     // second pass
  tracer.Record(MakeSpan("score", 150, 250, {5}));     // outside both
  tracer.Record(MakeSpan("score", 70, 80, {1}));       // users: first pass
  std::vector<Span> spans = tracer.TakeSpans();
  CHECK(tracer.TakeSpans().empty());
  AttachChildren(&spans, "pass", "score", true);
  CHECK(spans[2].parent == spans[0].id);
  CHECK(spans[3].parent == spans[0].id);
  CHECK(spans[4].parent == spans[1].id);
  CHECK(spans[5].parent == spans[1].id);
  CHECK(spans[6].parent == 0);
  // Both passes contain [70, 80); only the earlier one served user 1.
  CHECK(spans[7].parent == spans[0].id);
  // First pass: children cover [10, 60) and [70, 80) of [0, 100): self 40.
  CHECK(SelfTimeNs(spans[0], ChildrenOf(spans, spans[0].id)) == 40);
  // Second pass: children cover [60, 90) and [120, 150) of [50, 200).
  CHECK(SelfTimeNs(spans[1], ChildrenOf(spans, spans[1].id)) == 90);

  // Without user matching the latest-starting container wins.
  std::vector<Span> by_time = spans;
  for (Span& s : by_time) s.parent = 0;
  AttachChildren(&by_time, "pass", "score", false);
  CHECK(by_time[3].parent == by_time[0].id);  // only the first contains it
  CHECK(by_time[4].parent == by_time[1].id);
  CHECK(by_time[7].parent == by_time[1].id);  // latest start wins
}

void TestCalmSamples() {
  Samples s;
  s.Add(1.0, false);
  s.Add(9.0, true);
  s.Add(3.0, false);
  s.Add(8.0, true);
  CHECK(s.size() == 4 && s.calm() == 2);
  int64_t dropped = 0;
  CHECK(s.Calm(2, &dropped) == std::vector<double>({1.0, 3.0}));
  CHECK(dropped == 2);
  // Too few calm samples for the caller's rule: all of them count.
  CHECK(s.Calm(3, &dropped) == std::vector<double>({1.0, 9.0, 3.0, 8.0}));
  CHECK(dropped == 2);
  Samples none;
  none.Add(5.0, true);
  CHECK(none.Calm(0, &dropped) == std::vector<double>({5.0}));
}

}  // namespace

int main() {
  TestPercentiles();
  TestScheduleDeterminism();
  TestSelfTime();
  TestCalmSamples();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
