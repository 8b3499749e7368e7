#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

namespace firzen {
namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Tracer::Record(Span span) {
  MutexLock lock(mu_);
  span.id = next_id_++;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<Span> Tracer::TakeSpans() {
  MutexLock lock(mu_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

Tracer& GlobalTracer() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

int64_t UnionLengthNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                      int64_t clip_begin, int64_t clip_end) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, clip_begin);
    iv.second = std::min(iv.second, clip_end);
  }
  intervals.erase(std::remove_if(intervals.begin(), intervals.end(),
                                 [](const std::pair<int64_t, int64_t>& iv) {
                                   return iv.second <= iv.first;
                                 }),
                  intervals.end());
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t run_begin = 0;
  int64_t run_end = 0;
  bool open = false;
  for (const auto& iv : intervals) {
    if (open && iv.first <= run_end) {
      run_end = std::max(run_end, iv.second);
      continue;
    }
    if (open) covered += run_end - run_begin;
    run_begin = iv.first;
    run_end = iv.second;
    open = true;
  }
  if (open) covered += run_end - run_begin;
  return covered;
}

int64_t SelfTimeNs(const Span& parent,
                   const std::vector<const Span*>& children) {
  std::vector<std::pair<int64_t, int64_t>> intervals;
  intervals.reserve(children.size());
  for (const Span* child : children) {
    intervals.emplace_back(child->start_ns, child->end_ns);
  }
  return parent.duration_ns() -
         UnionLengthNs(std::move(intervals), parent.start_ns, parent.end_ns);
}

void AttachChildren(std::vector<Span>* spans, const std::string& parent_name,
                    const std::string& child_name, bool match_users) {
  // Candidate parents sorted by start, so the containing span with the
  // latest start is found by scanning back from the child's start.
  std::vector<const Span*> parents;
  for (const Span& s : *spans) {
    if (s.name == parent_name) parents.push_back(&s);
  }
  std::sort(parents.begin(), parents.end(), [](const Span* a, const Span* b) {
    return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                      : a->id < b->id;
  });
  const auto covers_users = [](const Span& parent, const Span& child) {
    std::vector<int64_t> have = parent.users;
    std::sort(have.begin(), have.end());
    for (int64_t u : child.users) {
      if (!std::binary_search(have.begin(), have.end(), u)) return false;
    }
    return true;
  };
  for (Span& child : *spans) {
    if (child.name != child_name) continue;
    auto it = std::upper_bound(
        parents.begin(), parents.end(), child.start_ns,
        [](int64_t start, const Span* p) { return start < p->start_ns; });
    while (it != parents.begin()) {
      --it;
      const Span& p = **it;
      if (p.end_ns < child.end_ns) continue;
      if (match_users && !covers_users(p, child)) continue;
      child.parent = p.id;
      break;
    }
  }
}

std::vector<const Span*> ChildrenOf(const std::vector<Span>& spans,
                                    uint64_t id) {
  std::vector<const Span*> out;
  for (const Span& s : spans) {
    if (s.parent == id) out.push_back(&s);
  }
  return out;
}

namespace {

void WriteIdList(std::FILE* f, const char* key,
                 const std::vector<int64_t>& ids) {
  std::fprintf(f, ",\"%s\":[", key);
  for (size_t i = 0; i < ids.size(); ++i) {
    std::fprintf(f, "%s%lld", i ? "," : "", static_cast<long long>(ids[i]));
  }
  std::fprintf(f, "]");
}

}  // namespace

bool WriteSpansJsonl(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"request_id\":%lld,"
                 "\"work\":%lld",
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.request_id),
                 static_cast<long long>(s.work));
    WriteIdList(f, "carried", s.carried);
    WriteIdList(f, "users", s.users);
    std::fprintf(f, "}\n");
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
}  // namespace firzen
