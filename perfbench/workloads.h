// The benchmark's three workloads. Each builds its inputs from the seed,
// times the program through its public API, checks every output, and
// returns its metrics by name. See README.md for what each metric means and
// which way is better.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace firzen {
namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// false: the timed pass (end-to-end metrics). true: the traced pass
  /// (per-layer metrics), which also times an untraced half to report the
  /// tracing overhead.
  bool trace = false;
  /// serve-*: the embeddings file written by `perfbench gen`.
  std::string catalog_path;
  /// Directory for files the workload writes (train-cold's save/load).
  std::string work_dir;
  /// Where the traced pass writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
};

/// One fixed-rate phase of serve-online.
struct PhaseReport {
  std::string kind;  // "reference", "ladder" or "saturation"
  double rate_rps = 0.0;
  int64_t attempted = 0;
  int64_t served = 0;  // answered kOk and verified
  double p50_ms = 0.0;
  /// Median over consecutive 1000-request windows of each window's p99
  /// (each window has exactly kMinSamplesBeyond samples beyond its p99).
  double p99_ms = 0.0;
  /// p99 over the whole phase, for comparison.
  double pooled_p99_ms = 0.0;
  int64_t windows = 0;
  double gen_lag_p99_ms = 0.0;
  /// Requests answered per second, from the first due time to the last
  /// response.
  double achieved_rps = 0.0;
  bool backlog_grew = false;
  /// False when the sender, not the program, set the latency.
  bool valid = true;
  bool meets_limit = false;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> notes;
  /// The gated end-to-end metrics (timed pass) or the per-layer metrics
  /// (traced pass), by the names BENCHMARK.json lists.
  std::map<std::string, Metric> metrics;
  /// The workload's own end-to-end figures under their specific names
  /// (fit_s, batch_p90_ms, req_p99_ms, ...), printed and kept in the history.
  std::map<std::string, Metric> details;
  std::vector<PhaseReport> phases;
};

RunResult RunTrainCold(const RunOptions& options);
RunResult RunServeBatch(const RunOptions& options);
RunResult RunServeOnline(const RunOptions& options);

/// Writes the serving catalog of `workload` for `seed` to `path` through
/// SaveEmbeddings. Returns false on failure; `save_ms` gets the save time.
bool GenerateCatalog(const std::string& workload, uint64_t seed,
                     const std::string& path, double* save_ms);

}  // namespace perfbench
}  // namespace firzen

#endif  // PERFBENCH_WORKLOADS_H_
