#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "schedule.h"
#include "src/core/firzen_model.h"
#include "src/core/frozen_graphs.h"
#include "src/data/synthetic.h"
#include "src/eval/admission.h"
#include "src/eval/evaluator.h"
#include "src/eval/serving.h"
#include "src/eval/sharded_serving.h"
#include "src/graph/collaborative_kg.h"
#include "src/graph/cooccurrence_graph.h"
#include "src/graph/knn_graph.h"
#include "src/models/scorer.h"
#include "src/models/serialize.h"
#include "src/serve/distributed_serving.h"
#include "src/serve/shard_server.h"
#include "src/tensor/quantized.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "stats.h"
#include "steal.h"
#include "trace.h"

namespace firzen {
namespace perfbench {
namespace {

// ---------------------------------------------------------------------------
// Workload constants. The serve-online rates are absolute and were
// calibrated once on the reference host named in README.md; they are never
// derived from a capacity probe inside the run, so runs on different
// commits offer the same load.
// ---------------------------------------------------------------------------

// setup_s is the median of several set-ups in one run. train-cold sets up
// kTrainSetUpsFirst times before timing, then once after every fit and every
// kInferencePassesPerSetUp inference passes; the serving workloads repeat
// their set-up before timing, fewer times where it loads a 64 MiB catalog.
constexpr int kTrainSetUpsFirst = 3;
constexpr int kInferencePassesPerSetUp = 10;
constexpr int kBatchSetupReps = 5;
constexpr int kOnlineSetupReps = 11;

// train-cold: Beauty-S at scale 1.0, a fixed epoch budget, no validation
// (so no early stop can change the amount of work).
constexpr int kTrainEpochs = 3;

// serve-batch: a 131072 x 64 catalog of doubles (64 MiB: larger than a
// core's L2, smaller than the shared L3 of the reference host).
const CatalogShape kBatchShape{8192, 131072, 64, 20, 0.2};
constexpr Index kBatchSize = 64;
constexpr Index kDistinctBatches = 4;

// serve-online: a 16384-item int8 catalog (1 MiB of codes: fits in L2).
const CatalogShape kOnlineShape{4096, 16384, 64, 20, 0.2};
constexpr Index kOnlinePoolSize = 4096;
constexpr Index kOnlineShards = 2;
constexpr double kReferenceRateRps = 1000.0;
constexpr double kLadderRps[] = {2000.0, 3000.0, 4000.0, 5000.0, 6000.0};
constexpr double kLatencyLimitMs = 10.0;  // on the phase's p99
// Offered far above what the stack serves (about 5000 rps on the reference
// host), so every sender stays busy and the answered rate is the capacity.
constexpr double kSaturationRps = 8000.0;
constexpr double kSaturationSeconds = 0.5;
// Tail latency is taken per window of consecutive requests, 1000 being the
// fewest that leave ten samples beyond a p99, and a phase reports the median
// window. A short stall of the host (see README.md) then spoils one window
// instead of deciding the whole phase. The reference rate is measured in
// chunks spread over the run, one before each ladder step, for the same
// reason.
constexpr int64_t kWindowRequests = 1000;
constexpr int kLadderWindows = 3;
constexpr int64_t kPhaseGapNs = 100'000'000;

// Per-layer replay repetitions (median reported).
constexpr int kReplayReps = 15;

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Millis(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Times one call into a layer. Records a span when tracing is on; the
/// elapsed time is returned either way.
class SpanTimer {
 public:
  explicit SpanTimer(std::string name) : start_ns_(NowNs()) {
    span_.name = std::move(name);
  }
  Span& span() { return span_; }
  /// Ends the span and returns its duration in seconds.
  double Stop() {
    span_.start_ns = start_ns_;
    span_.end_ns = NowNs();
    const double s = Seconds(span_.end_ns - span_.start_ns);
    if (GlobalTracer().enabled()) GlobalTracer().Record(std::move(span_));
    return s;
  }

 private:
  int64_t start_ns_;
  Span span_;
};

/// Forwards every call to the wrapped scorer; while tracing, records one
/// span per call carrying the users scored and the cells (users x items).
class TimedScorer : public Scorer {
 public:
  TimedScorer(std::unique_ptr<Scorer> base, const std::string& prefix)
      : base_(std::move(base)),
        block_name_(prefix + ".score_block"),
        candidates_name_(prefix + ".score_candidates") {}

  using Scorer::ScoreBlock;
  using Scorer::ScoreCandidates;

  Index num_items() const override { return base_->num_items(); }

  void ScoreBlock(const std::vector<Index>& users, ItemBlock block,
                  MatrixView out, ScoringArena* arena) const override {
    if (!GlobalTracer().enabled()) {
      base_->ScoreBlock(users, block, out, arena);
      return;
    }
    const int64_t start = NowNs();
    base_->ScoreBlock(users, block, out, arena);
    Record(block_name_, start, users, block.size());
  }

  void ScoreCandidates(const std::vector<Index>& users,
                       const std::vector<Index>& candidates, MatrixView out,
                       ScoringArena* arena) const override {
    if (!GlobalTracer().enabled()) {
      base_->ScoreCandidates(users, candidates, out, arena);
      return;
    }
    const int64_t start = NowNs();
    base_->ScoreCandidates(users, candidates, out, arena);
    Record(candidates_name_, start, users,
           static_cast<Index>(candidates.size()));
  }

 private:
  void Record(const std::string& name, int64_t start,
              const std::vector<Index>& users, Index items) const {
    Span span;
    span.name = name;
    span.start_ns = start;
    span.end_ns = NowNs();
    span.users.assign(users.begin(), users.end());
    span.work = static_cast<int64_t>(users.size()) * items;
    GlobalTracer().Record(std::move(span));
  }

  std::unique_ptr<Scorer> base_;
  std::string block_name_;
  std::string candidates_name_;
};

/// Process CPU time and involuntary context switches at one instant.
struct Usage {
  int64_t wall_ns = 0;
  double cpu_s = 0.0;
  int64_t invol_csw = 0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.wall_ns = NowNs();
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.invol_csw = ru.ru_nivcsw;
  return u;
}

void AddUsageMetrics(const Usage& begin, const Usage& end, RunResult* result) {
  const double wall = Seconds(end.wall_ns - begin.wall_ns);
  result->metrics["util.cpu_per_wall"] = {(end.cpu_s - begin.cpu_s) / wall,
                                          "ratio", 1};
  result->metrics["util.invol_csw_per_s"] = {
      static_cast<double>(end.invol_csw - begin.invol_csw) / wall, "1/s", 1};
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

bool BitEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.rows() * a.cols()) * sizeof(Real)) == 0;
}

bool SameInteractions(const Dataset& a, const Dataset& b) {
  const auto same = [](const std::vector<Interaction>& x,
                       const std::vector<Interaction>& y) {
    return x.size() == y.size() &&
           std::equal(x.begin(), x.end(), y.begin(),
                      [](const Interaction& p, const Interaction& q) {
                        return p.user == q.user && p.item == q.item;
                      });
  };
  return a.num_users == b.num_users && a.num_items == b.num_items &&
         a.is_cold_item == b.is_cold_item && same(a.train, b.train) &&
         same(a.warm_test, b.warm_test) && same(a.cold_test, b.cold_test);
}

/// Same status, user, items and score bits.
bool SameResponse(const RecResponse& a, const RecResponse& b) {
  if (a.status != b.status || a.user != b.user ||
      a.items.size() != b.items.size()) {
    return false;
  }
  for (size_t i = 0; i < a.items.size(); ++i) {
    if (a.items[i].item != b.items[i].item ||
        std::memcmp(&a.items[i].score, &b.items[i].score, sizeof(Real)) != 0) {
      return false;
    }
  }
  return true;
}

std::unique_ptr<StaticRecommender> LoadCatalog(const std::string& path) {
  SpanTimer timer("models.load");
  Result<std::unique_ptr<StaticRecommender>> loaded = LoadEmbeddings(path);
  timer.Stop();
  if (!loaded.ok()) {
    throw std::runtime_error("LoadEmbeddings(" + path +
                             "): " + loaded.status().ToString());
  }
  return std::move(loaded.value());
}

/// Median duration (ms) of the spans called `name`; 0 when there are none.
Metric MedianSpanMs(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> ms;
  for (const Span& s : spans) {
    if (s.name == name) ms.push_back(Millis(s.duration_ns()));
  }
  if (ms.empty()) return {0.0, "ms", 0};
  return {Median(ms), "ms", static_cast<int64_t>(ms.size())};
}

/// Sums of the scoring spans named `<prefix>.score_*`.
struct ScoreTotals {
  int64_t calls = 0;
  int64_t cells = 0;
  int64_t ns = 0;
  int64_t candidate_ns = 0;
};

ScoreTotals SumScoring(const std::vector<Span>& spans,
                       const std::vector<std::string>& prefixes) {
  ScoreTotals t;
  for (const Span& s : spans) {
    for (const std::string& p : prefixes) {
      const bool block = s.name == p + ".score_block";
      const bool candidates = s.name == p + ".score_candidates";
      if (!block && !candidates) continue;
      ++t.calls;
      t.cells += s.work;
      t.ns += s.duration_ns();
      if (candidates) t.candidate_ns += s.duration_ns();
    }
  }
  return t;
}

/// models.score_* per unit of the workload's work (pass, batch or request).
void AddScoreMetrics(const ScoreTotals& t, double units, RunResult* result) {
  const auto per = [units](double v) { return units > 0 ? v / units : 0.0; };
  const auto n = static_cast<int64_t>(units);
  result->metrics["models.score_calls"] = {per(t.calls), "count", n};
  result->metrics["models.score_cells"] = {per(t.cells), "count", n};
  result->metrics["models.score_ms"] = {per(Millis(t.ns)), "ms", n};
  result->metrics["models.candidates_ms"] = {per(Millis(t.candidate_ns)), "ms",
                                             n};
}

/// Median of `reps` timed calls of fn, in ms.
template <typename Fn>
double ReplayMs(const char* name, int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    SpanTimer timer(name);
    fn();
    ms.push_back(1e3 * timer.Stop());
  }
  return Median(ms);
}

// A timed loop stretches past its seconds by at most this factor to collect
// its calm samples.
constexpr double kMaxStretch = 1.5;

/// A timed loop runs for `seconds`, then on until it has `want` calm
/// samples; past kMaxStretch x seconds it stops once it has `want` samples
/// of any kind (the sample-count rule still holds).
bool KeepGoing(int64_t start_ns, double seconds, const Samples& samples,
               int64_t want) {
  const double elapsed = Seconds(NowNs() - start_ns);
  if (samples.size() < want) return true;
  if (elapsed < seconds) return true;
  return samples.calm() < want && elapsed < kMaxStretch * seconds;
}

void WriteTrace(const RunOptions& options, const std::vector<Span>& spans,
                RunResult* result) {
  if (options.trace_out.empty()) return;
  if (!WriteSpansJsonl(spans, options.trace_out)) {
    result->notes.push_back("could not write spans to " + options.trace_out);
  }
}

// ---------------------------------------------------------------------------
// train-cold
// ---------------------------------------------------------------------------

/// One strict-cold inference pass on a trained model, in the pipeline's
/// order: expand and mask the item-item graphs (Eqs. 34-35), then rank every
/// cold and every warm test user over the catalog. Repeatable: each pass
/// rebuilds the inference state from the frozen training graphs.
struct InferencePass {
  double seconds = 0.0;
  Real recall_cold = 0.0;
  Real recall_warm = 0.0;
};

InferencePass RunInferencePass(FirzenModel* model, const Dataset& dataset) {
  EvalOptions eval;
  eval.k = 20;
  eval.pool = ThreadPool::Global();
  const auto evaluate = [&](const std::vector<Interaction>& split,
                            EvalSetting setting) {
    SpanTimer mint("models.mint");
    TimedScorer scorer(model->MakeScorer(), "models");
    mint.Stop();
    SpanTimer timer("eval.evaluate");
    const EvalResult r = EvaluateRanking(dataset, split, setting, scorer, eval);
    timer.Stop();
    return r.metrics.recall;
  };
  InferencePass pass;
  const int64_t start = NowNs();
  {
    SpanTimer timer("core.prepare_cold");
    model->PrepareColdInference(dataset);
    timer.Stop();
  }
  pass.recall_cold = evaluate(dataset.cold_test, EvalSetting::kCold);
  pass.recall_warm = evaluate(dataset.warm_test, EvalSetting::kWarm);
  pass.seconds = Seconds(NowNs() - start);
  return pass;
}

/// Times each graph-building function Fit calls, on the workload's own
/// dataset.
void ReplayGraphs(const Dataset& dataset, RunResult* result) {
  FrozenGraphOptions graph_options;
  graph_options.knn_k = FirzenOptions().knn_k;
  graph_options.user_topk = FirzenOptions().user_topk;
  graph_options.pool = ThreadPool::Global();
  FrozenGraphs train_graphs;
  const double train_ms = ReplayMs("graph.train_build", 3, [&] {
    train_graphs = BuildTrainGraphs(dataset, graph_options);
  });
  KnnGraphOptions knn;
  knn.top_k = graph_options.knn_k;
  knn.candidate_items = dataset.WarmItems();
  knn.query_items = knn.candidate_items;
  knn.pool = graph_options.pool;
  const double knn_ms = ReplayMs("graph.knn", 3, [&] {
    for (const Modality& m : dataset.modalities) {
      BuildItemItemGraph(m.features, knn);
    }
  });
  const double cooccur_ms = ReplayMs("graph.cooccur", 3, [&] {
    BuildUserCooccurrenceGraph(dataset.train, dataset.num_users,
                               dataset.num_items, graph_options.user_topk);
  });
  const double ckg_ms = ReplayMs("graph.ckg", 3, [&] {
    BuildCollaborativeKg(dataset.train, dataset.num_users, dataset.kg);
  });
  const double infer_ms = ReplayMs("graph.infer_build", 3, [&] {
    BuildInferenceGraphs(dataset, graph_options, train_graphs);
  });
  int64_t item_item_nnz = 0;
  for (const auto& g : train_graphs.item_item) item_item_nnz += g->nnz();
  auto& m = result->metrics;
  m["graph.train_build_ms"] = {train_ms, "ms", 3};
  m["graph.knn_ms"] = {knn_ms, "ms", 3};
  m["graph.cooccur_ms"] = {cooccur_ms, "ms", 3};
  m["graph.ckg_ms"] = {ckg_ms, "ms", 3};
  m["graph.infer_build_ms"] = {infer_ms, "ms", 3};
  m["graph.interaction_nnz"] = {
      static_cast<double>(train_graphs.interaction->nnz()), "count", 1};
  m["graph.item_item_nnz"] = {static_cast<double>(item_item_nnz), "count", 1};

  // SpMM over the interaction graph with a 32-column operand, as in Fit's
  // propagation. Bytes moved are computed from the shapes, not measured:
  // values + column ids + row pointers + one operand row read per stored
  // entry + the output written once.
  const CsrMatrix& graph = *train_graphs.interaction;
  constexpr Index kCols = 32;
  Rng rng(31);  // a seeded operand of the propagation's shape
  Matrix x(graph.cols(), kCols);
  x.FillNormal(&rng, 1.0);
  Matrix y;
  const double spmm_ms = ReplayMs("tensor.spmm", kReplayReps, [&] {
    graph.SpMM(x, &y, ThreadPool::Global());
  });
  const double bytes =
      static_cast<double>(graph.nnz()) * (sizeof(Real) + sizeof(Index)) +
      static_cast<double>(graph.rows() + 1) * sizeof(Index) +
      static_cast<double>(graph.nnz()) * kCols * sizeof(Real) +
      static_cast<double>(graph.rows()) * kCols * sizeof(Real);
  m["tensor.spmm_ms"] = {spmm_ms, "ms", kReplayReps};
  m["tensor.spmm_gb_s"] = {bytes / (spmm_ms * 1e-3) * 1e-9, "GB/s",
                           kReplayReps};
}

}  // namespace

RunResult RunTrainCold(const RunOptions& options) {
  RunResult result;
  const StealMonitor host;
  GlobalTracer().set_enabled(options.trace);
  SyntheticConfig config = BeautySConfig(1.0);
  config.seed = options.seed;
  // The set-up is repeated through the run, not only before it: on the
  // reference host the speed of a single thread changes by a third for
  // seconds at a time, so repetitions in one burst all land in one state.
  // Every repetition must regenerate the same dataset.
  std::vector<double> setup_s;
  Dataset dataset;
  const auto set_up_again = [&] {
    SpanTimer timer("data.synth");
    const Dataset again = GenerateSyntheticDataset(config);
    setup_s.push_back(timer.Stop());
    if (!SameInteractions(again, dataset)) {
      result.correct = false;
      result.notes.push_back("the same seed generated a different dataset");
    }
  };
  {
    SpanTimer timer("data.synth");
    dataset = GenerateSyntheticDataset(config);
    setup_s.push_back(timer.Stop());
  }
  for (int r = 1; r < kTrainSetUpsFirst; ++r) set_up_again();

  TrainOptions train;
  train.embedding_dim = 32;
  train.epochs = kTrainEpochs;
  train.eval_every = kTrainEpochs + 1;  // no validation: early stopping off
  train.batch_size = 512;
  train.seed = options.seed;
  train.pool = ThreadPool::Global();

  // Half the run fits, half runs inference passes on the last fitted model.
  // The traced pass splits each half again into an untraced and a traced
  // quarter.
  const double share = options.trace ? options.seconds / 4 : options.seconds / 2;
  std::unique_ptr<FirzenModel> model;
  Matrix first_user;
  Matrix first_item;
  const auto fit_for = [&](double seconds, bool traced) {
    GlobalTracer().set_enabled(traced);
    Samples fit_s;
    const int64_t start = NowNs();
    while (KeepGoing(start, seconds, fit_s, 1)) {
      model = std::make_unique<FirzenModel>();
      const int64_t fit_start = NowNs();
      SpanTimer timer("core.fit");
      model->Fit(dataset, train);
      fit_s.Add(timer.Stop(), host.Disturbed(fit_start, NowNs()));
      // Fit is deterministic for a seed: every fit must reproduce the
      // first one's embeddings bit for bit.
      const Matrix user = model->UserEmbeddings();
      const Matrix item = model->ItemEmbeddings();
      if (first_user.empty()) {
        first_user = user;
        first_item = item;
      }
      ++result.attempted;
      if (!BitEqual(user, first_user) || !BitEqual(item, first_item)) {
        ++result.failed;
        result.notes.push_back("a refit gave different embeddings");
      }
      set_up_again();
    }
    return fit_s;
  };
  const Usage usage_begin = ReadUsage();
  const Samples fit_s = fit_for(share, false);
  const Usage usage_end = ReadUsage();
  if (options.trace) fit_for(share, true);

  GlobalTracer().set_enabled(false);
  const InferencePass reference = RunInferencePass(model.get(), dataset);
  if (!std::isfinite(reference.recall_cold) ||
      !std::isfinite(reference.recall_warm)) {
    result.correct = false;
    result.notes.push_back("Recall@20 is not finite");
  }
  // Runs inference passes for `seconds` and at least `want` times. Every
  // pass must rank exactly as the first: any changed ranking moves Recall@20
  // by at least 1/|test users|, far outside the 1e-12 tolerance. Drift
  // inside it is counted, not failed: EvaluateRanking adds its per-shard
  // metric sums in thread completion order, so the mean itself can differ
  // in the last bits between identical rankings.
  size_t traced_begin = 0;
  int64_t ulp_drift = 0;
  std::vector<InferencePass> passes;
  const auto same_recall = [](Real a, Real b) {
    return std::abs(a - b) <= 1e-12 * std::abs(b);
  };
  const auto infer_for = [&](double seconds, bool traced, int64_t want) {
    GlobalTracer().set_enabled(traced);
    Samples ms;
    const int64_t start = NowNs();
    while (KeepGoing(start, seconds, ms, want)) {
      const int64_t pass_start = NowNs();
      passes.push_back(RunInferencePass(model.get(), dataset));
      const InferencePass& pass = passes.back();
      ms.Add(1e3 * pass.seconds, host.Disturbed(pass_start, NowNs()));
      ++result.attempted;
      if (!same_recall(pass.recall_cold, reference.recall_cold) ||
          !same_recall(pass.recall_warm, reference.recall_warm)) {
        ++result.failed;
        result.correct = false;
        char note[160];
        std::snprintf(note, sizeof(note),
                      "inference pass %zu: Recall@20 cold %.17g warm %.17g, "
                      "first pass %.17g %.17g",
                      passes.size(), pass.recall_cold, pass.recall_warm,
                      reference.recall_cold, reference.recall_warm);
        result.notes.push_back(note);
      } else if (pass.recall_cold != reference.recall_cold ||
                 pass.recall_warm != reference.recall_warm) {
        ++ulp_drift;
      }
      if (ms.size() % kInferencePassesPerSetUp == 0) set_up_again();
    }
    return ms;
  };
  const Samples infer_ms =
      infer_for(share, false, options.trace ? 10 : MinSamplesFor(0.9));
  traced_begin = passes.size();
  Samples traced_infer_ms;
  if (options.trace) traced_infer_ms = infer_for(share, true, 10);

  // Offline training -> online serving hand-off: the embeddings must
  // survive SaveEmbeddings/LoadEmbeddings bit for bit.
  {
    const Matrix user_emb = model->UserEmbeddings();
    const Matrix item_emb = model->ItemEmbeddings();
    const std::string path = options.work_dir + "/train-cold.fzem";
    SpanTimer save("models.save");
    const Status saved = SaveEmbeddings(*model, user_emb, item_emb, path);
    save.Stop();
    ++result.attempted;
    bool ok = saved.ok();
    if (ok) {
      const std::unique_ptr<StaticRecommender> loaded = LoadCatalog(path);
      ok = BitEqual(loaded->user_embeddings(), user_emb) &&
           BitEqual(loaded->ItemEmbeddings(), item_emb);
    }
    if (!ok) {
      ++result.failed;
      result.correct = false;
      result.notes.push_back("embeddings did not survive save and load");
    }
  }
  GlobalTracer().set_enabled(false);

  const double served_frac =
      static_cast<double>(result.attempted - result.failed) /
      static_cast<double>(result.attempted);
  if (!options.trace) {
    int64_t dropped = 0;
    const std::vector<double> fits = fit_s.Calm(1, &dropped);
    const std::vector<double> infers = infer_ms.Calm(MinSamplesFor(0.9), &dropped);
    const auto n_fits = static_cast<int64_t>(fits.size());
    const auto n_infers = static_cast<int64_t>(infers.size());
    const double trained_per_s =
        static_cast<double>(dataset.train.size()) * kTrainEpochs / Median(fits);
    auto& m = result.metrics;
    m["setup_s"] = {Median(setup_s), "s",
                    static_cast<int64_t>(setup_s.size())};
    m["peak_rss_mb"] = {PeakRssMb(), "MB", 1};
    m["served_frac"] = {served_frac, "ratio", result.attempted};
    m["throughput_per_s"] = {trained_per_s, "1/s", n_fits};
    m["latency_p50_ms"] = {Median(infers), "ms", n_infers};
    m["latency_tail_ms"] = {Percentile(infers, 0.9), "ms", n_infers};
    auto& d = result.details;
    d["fit_s"] = {Median(fits), "s", n_fits};
    d["eval_s"] = {1e-3 * Median(infers), "s", n_infers};
    d["eval_p90_s"] = {1e-3 * Percentile(infers, 0.9), "s", n_infers};
    d["host_disturbed_samples"] = {static_cast<double>(dropped), "count",
                                   fit_s.size() + infer_ms.size()};
    d["recall20_cold"] = {reference.recall_cold, "ratio", infer_ms.size() + 1};
    d["recall20_warm"] = {reference.recall_warm, "ratio", infer_ms.size() + 1};
    d["recall20_ulp_drift_passes"] = {static_cast<double>(ulp_drift), "count",
                                      infer_ms.size()};
    d["served_frac"] = m["served_frac"];
    return result;
  }

  ReplayGraphs(dataset, &result);
  GlobalTracer().set_enabled(false);
  std::vector<Span> spans = GlobalTracer().TakeSpans();
  AttachChildren(&spans, "eval.evaluate", "models.score_block", false);
  AttachChildren(&spans, "eval.evaluate", "models.score_candidates", false);
  // Per traced inference pass (the only traced evaluations).
  const auto traced_passes = static_cast<double>(passes.size() - traced_begin);
  double evaluate_ns = 0.0;
  double evaluate_self_ns = 0.0;
  for (const Span& s : spans) {
    if (s.name != "eval.evaluate") continue;
    evaluate_ns += static_cast<double>(s.duration_ns());
    evaluate_self_ns +=
        static_cast<double>(SelfTimeNs(s, ChildrenOf(spans, s.id)));
  }
  auto& m = result.metrics;
  const auto n = static_cast<int64_t>(traced_passes);
  m["data.synth_ms"] = MedianSpanMs(spans, "data.synth");
  m["core.prepare_cold_ms"] = MedianSpanMs(spans, "core.prepare_cold");
  m["models.mint_ms"] = MedianSpanMs(spans, "models.mint");
  m["models.save_ms"] = MedianSpanMs(spans, "models.save");
  m["models.load_ms"] = MedianSpanMs(spans, "models.load");
  AddScoreMetrics(SumScoring(spans, {"models"}), traced_passes, &result);
  m["eval.evaluate_ms"] = {1e-6 * evaluate_ns / traced_passes, "ms", n};
  m["eval.evaluate_self_ms"] = {1e-6 * evaluate_self_ns / traced_passes, "ms",
                                n};
  AddUsageMetrics(usage_begin, usage_end, &result);
  int64_t dropped = 0;
  m["bench.trace_overhead_pct"] = {
      100.0 * (Median(traced_infer_ms.Calm(5, &dropped)) /
                   Median(infer_ms.Calm(5, &dropped)) -
               1.0),
      "%", n};
  WriteTrace(options, spans, &result);
  return result;
}

// ---------------------------------------------------------------------------
// serve-batch
// ---------------------------------------------------------------------------

namespace {

/// A loaded catalog behind one serving engine. The model owns the tables the
/// engine's scorer reads, so it is declared first and destroyed last.
struct BatchServer {
  std::unique_ptr<StaticRecommender> model;
  std::unique_ptr<ServingEngine> engine;
};

BatchServer SetUpBatchServer(const std::string& catalog_path,
                             const Dataset& dataset,
                             const std::vector<RecRequest>& warm_up) {
  BatchServer server;
  server.model = LoadCatalog(catalog_path);
  SpanTimer mint("models.mint");
  auto scorer = std::make_unique<TimedScorer>(
      server.model->MakeScorer(ScoringPrecision::kFp32), "models");
  mint.Stop();
  ServingEngineOptions engine_options;
  engine_options.item_block = 8192;
  server.engine = std::make_unique<ServingEngine>(std::move(scorer), dataset,
                                                  engine_options);
  server.engine->RecommendBatch(warm_up);
  return server;
}

}  // namespace

RunResult RunServeBatch(const RunOptions& options) {
  RunResult result;
  const StealMonitor host;
  GlobalTracer().set_enabled(options.trace);
  const Dataset dataset = MakeServingDataset(kBatchShape, options.seed);
  const std::vector<std::vector<RecRequest>> batches =
      MakeBatchRequests(kBatchShape, options.seed, kDistinctBatches, kBatchSize);

  std::vector<double> setup_s;
  BatchServer server;
  for (int r = 0; r < kBatchSetupReps; ++r) {
    server.engine.reset();  // release the previous catalog first
    server.model.reset();
    const int64_t start = NowNs();
    server = SetUpBatchServer(options.catalog_path, dataset, batches[0]);
    setup_s.push_back(Seconds(NowNs() - start));
  }

  // Closed loop, one client: the next batch is sent when the last returns.
  struct Timed {
    size_t batch;
    int64_t ns;
    std::vector<RecResponse> responses;
  };
  std::vector<Timed> timed;
  const int64_t min_samples = MinSamplesFor(0.9);
  const auto run_loop = [&](double seconds, bool traced, int64_t want) {
    GlobalTracer().set_enabled(traced);
    Samples ms;
    const int64_t start = NowNs();
    while (KeepGoing(start, seconds, ms, want)) {
      const size_t b = timed.size() % batches.size();
      const int64_t batch_start = NowNs();
      SpanTimer timer("eval.recommend_batch");
      std::vector<RecResponse> responses =
          server.engine->RecommendBatch(batches[b]);
      const double s = timer.Stop();
      ms.Add(1e3 * s, host.Disturbed(batch_start, NowNs()));
      timed.push_back({b, static_cast<int64_t>(s * 1e9), std::move(responses)});
    }
    return ms;
  };
  // Every batch has kBatchSize users: users per second of batch time.
  const auto users_per_s = [](const std::vector<double>& ms) {
    double total_ms = 0.0;
    for (double v : ms) total_ms += v;
    return static_cast<double>(kBatchSize) * static_cast<double>(ms.size()) /
           (1e-3 * total_ms);
  };

  const Usage usage_begin = ReadUsage();
  const Samples untraced = run_loop(
      options.trace ? options.seconds / 2 : options.seconds, false,
      options.trace ? 10 : min_samples);
  const Usage usage_end = ReadUsage();
  const size_t untraced_batches = timed.size();
  // Set-up spans (load, mint, warm-up scoring) are kept apart from the
  // timed phase's.
  std::vector<Span> setup_spans = GlobalTracer().TakeSpans();
  Samples traced;
  if (options.trace) traced = run_loop(options.seconds / 2, true, 10);
  GlobalTracer().set_enabled(false);

  // Reference: every request answered alone on the direct path, computed
  // after the timed phase. Batched scoring is batch-size-invariant, so each
  // timed response must match bit for bit.
  std::vector<std::vector<RecResponse>> reference(batches.size());
  for (size_t b = 0; b < batches.size(); ++b) {
    for (const RecRequest& request : batches[b]) {
      reference[b].push_back(server.engine->Recommend(request));
    }
  }
  for (const Timed& t : timed) {
    ++result.attempted;
    bool ok = t.responses.size() == reference[t.batch].size();
    for (size_t i = 0; ok && i < t.responses.size(); ++i) {
      ok = t.responses[i].status == RecStatus::kOk &&
           SameResponse(t.responses[i], reference[t.batch][i]);
    }
    if (!ok) ++result.failed;
  }
  if (result.failed > 0) {
    result.correct = false;
    result.notes.push_back("a batch response differs from the direct answer");
  }

  auto& m = result.metrics;
  if (!options.trace) {
    int64_t dropped = 0;
    const std::vector<double> ms = untraced.Calm(min_samples, &dropped);
    const auto n = static_cast<int64_t>(ms.size());
    m["setup_s"] = {Median(setup_s), "s", kBatchSetupReps};
    m["peak_rss_mb"] = {PeakRssMb(), "MB", 1};
    m["served_frac"] = {
        static_cast<double>(result.attempted - result.failed) /
            static_cast<double>(result.attempted),
        "ratio", result.attempted};
    m["throughput_per_s"] = {users_per_s(ms), "1/s", n};
    m["latency_p50_ms"] = {Median(ms), "ms", n};
    m["latency_tail_ms"] = {Percentile(ms, 0.9), "ms", n};
    auto& d = result.details;
    d["users_per_s"] = m["throughput_per_s"];
    d["batch_p50_ms"] = m["latency_p50_ms"];
    d["batch_p90_ms"] = m["latency_tail_ms"];
    d["served_frac"] = m["served_frac"];
    d["host_disturbed_samples"] = {static_cast<double>(dropped), "count",
                                   untraced.size()};
    return result;
  }

  // GemmBT at the workload's shape: the first batch's user rows against the
  // first 8192-item block of the loaded catalog.
  GlobalTracer().set_enabled(true);
  {
    const Matrix& users = server.model->user_embeddings();
    Matrix a(kBatchSize, users.cols());
    for (Index r = 0; r < kBatchSize; ++r) {
      std::memcpy(a.row(r), users.row(batches[0][static_cast<size_t>(r)].user),
                  static_cast<size_t>(users.cols()) * sizeof(Real));
    }
    const Matrix items = server.model->ItemEmbeddings();
    constexpr Index kBlock = 8192;
    Matrix out(kBatchSize, kBlock);
    m["tensor.gemm_bt_ms"] = {
        ReplayMs("tensor.gemm_bt", kReplayReps,
                 [&] { GemmBT(a, items.data(), kBlock, MatrixView(&out)); }),
        "ms", kReplayReps};
  }
  GlobalTracer().set_enabled(false);
  std::vector<Span> spans = GlobalTracer().TakeSpans();
  m["models.mint_ms"] = MedianSpanMs(setup_spans, "models.mint");
  m["models.load_ms"] = MedianSpanMs(setup_spans, "models.load");
  AttachChildren(&spans, "eval.recommend_batch", "models.score_block", false);
  AttachChildren(&spans, "eval.recommend_batch", "models.score_candidates",
                 false);
  std::vector<double> self_ms;
  for (const Span& s : spans) {
    if (s.name == "eval.recommend_batch") {
      self_ms.push_back(Millis(SelfTimeNs(s, ChildrenOf(spans, s.id))));
    }
  }
  const double traced_batches =
      static_cast<double>(timed.size() - untraced_batches);
  m["eval.batch_self_ms"] = {Median(self_ms), "ms",
                             static_cast<int64_t>(self_ms.size())};
  AddScoreMetrics(SumScoring(spans, {"models"}), traced_batches, &result);
  AddUsageMetrics(usage_begin, usage_end, &result);
  int64_t dropped = 0;
  m["bench.trace_overhead_pct"] = {
      100.0 * (users_per_s(untraced.Calm(5, &dropped)) /
                   users_per_s(traced.Calm(5, &dropped)) -
               1.0),
      "%", static_cast<int64_t>(traced_batches)};
  spans.insert(spans.begin(), setup_spans.begin(), setup_spans.end());
  WriteTrace(options, spans, &result);
  return result;
}

// ---------------------------------------------------------------------------
// serve-online
// ---------------------------------------------------------------------------

namespace {

/// The distributed serving stack of serve-online, declared in dependency
/// order so it is torn down front end first.
struct OnlineStack {
  std::unique_ptr<StaticRecommender> model;
  std::vector<std::unique_ptr<ShardServer>> shards;
  std::unique_ptr<DistributedServingEngine> engine;
  std::unique_ptr<AdmissionController> admission;

  void Reset() {
    admission.reset();
    engine.reset();
    shards.clear();
    model.reset();
  }
};

std::string ShardPrefix(Index shard) { return "shard" + std::to_string(shard); }

OnlineStack SetUpOnlineStack(const std::string& catalog_path,
                             const Dataset& dataset,
                             const std::vector<RecRequest>& warm_up) {
  OnlineStack stack;
  stack.model = LoadCatalog(catalog_path);
  const auto state =
      ServingSharedState::FromDataset(dataset, dataset.num_items);
  DistributedServingOptions dist_options;
  ShardServerOptions server_options;
  server_options.num_users = dataset.num_users;
  server_options.precision = ScoringPrecision::kInt8;
  const std::vector<ItemBlock> ranges =
      MakeShardRanges(dataset.num_items, kOnlineShards);
  for (Index s = 0; s < kOnlineShards; ++s) {
    SpanTimer mint("models.mint");
    auto scorer = std::make_unique<TimedScorer>(
        stack.model->MakeScorer(ScoringPrecision::kInt8), ShardPrefix(s));
    mint.Stop();
    stack.shards.push_back(std::make_unique<ShardServer>(
        std::move(scorer), state, ranges[static_cast<size_t>(s)],
        server_options));
    const Status started = stack.shards.back()->Start();
    if (!started.ok()) {
      throw std::runtime_error("ShardServer::Start: " + started.ToString());
    }
    dist_options.shard_addresses.push_back(stack.shards.back()->bound_address());
  }
  Result<std::unique_ptr<DistributedServingEngine>> connected =
      DistributedServingEngine::Connect(std::move(dist_options));
  if (!connected.ok()) {
    throw std::runtime_error("DistributedServingEngine::Connect: " +
                             connected.status().ToString());
  }
  stack.engine = std::move(connected.value());
  // The admission layer is measured through its public Backend: each fused
  // pass is one span carrying the ids (RecRequest::tenant, which the FIFO
  // drain ignores) of the requests it served.
  const DistributedServingEngine* engine = stack.engine.get();
  AdmissionController::Backend backend =
      [engine](const std::vector<RecRequest>& batch) {
        if (!GlobalTracer().enabled()) return engine->RecommendBatchDirect(batch);
        SpanTimer timer("eval.admission.pass");
        for (const RecRequest& r : batch) {
          timer.span().carried.push_back(r.tenant);
          timer.span().users.push_back(r.user);
        }
        std::vector<RecResponse> responses = engine->RecommendBatchDirect(batch);
        timer.Stop();
        return responses;
      };
  stack.admission = std::make_unique<AdmissionController>(std::move(backend));
  for (const RecRequest& request : warm_up) stack.admission->Recommend(request);
  return stack;
}

struct RequestRecord {
  int64_t id = 0;
  Index pool_index = 0;
  int64_t due_ns = 0;
  int64_t grab_ns = 0;  // when a sender took the request
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
  RecResponse response;
};

void SleepUntilNs(int64_t t_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t_ns)));
}

/// Sends one phase's schedule open-loop from `senders` threads. A free
/// sender takes the next request, waits for its due time and calls
/// Recommend; when every sender is busy the request goes out late, and that
/// lateness is charged to the program because latency runs from the due
/// time.
std::vector<RequestRecord> RunOpenLoop(const AdmissionController& admission,
                                       const std::vector<RecRequest>& pool,
                                       const ArrivalSchedule& schedule,
                                       int senders, int64_t first_id) {
  const size_t n = schedule.due_ns.size();
  std::vector<RequestRecord> records(n);
  std::atomic<size_t> next{0};
  const int64_t start = NowNs() + 20'000'000;  // let every sender start
  const auto send_loop = [&] {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      RequestRecord& rec = records[i];
      rec.grab_ns = NowNs();
      rec.id = first_id + static_cast<int64_t>(i);
      rec.pool_index = schedule.pool_index[i];
      rec.due_ns = start + schedule.due_ns[i];
      RecRequest request = pool[static_cast<size_t>(rec.pool_index)];
      request.tenant = rec.id;
      SleepUntilNs(rec.due_ns);
      rec.send_ns = NowNs();
      rec.response = admission.Recommend(request);
      rec.recv_ns = NowNs();
      if (GlobalTracer().enabled()) {
        Span span;
        span.name = "eval.admission.request";
        span.start_ns = rec.send_ns;
        span.end_ns = rec.recv_ns;
        span.request_id = rec.id;
        span.users.push_back(request.user);
        GlobalTracer().Record(std::move(span));
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < senders; ++t) threads.emplace_back(send_loop);
  for (std::thread& t : threads) t.join();
  return records;
}

/// Long enough for kLadderWindows full windows at `rate` (10% spare for
/// the Poisson count).
double LadderPhaseSeconds(double rate) {
  return 1.1 * kLadderWindows * static_cast<double>(kWindowRequests) / rate;
}

/// Latency of each request from its due time, in due order.
std::vector<double> LatenciesMs(const std::vector<RequestRecord>& recs) {
  std::vector<double> ms;
  for (const RequestRecord& r : recs) ms.push_back(Millis(r.recv_ns - r.due_ns));
  return ms;
}

/// p99 of each full window of kWindowRequests consecutive requests.
std::vector<double> WindowP99s(const std::vector<double>& latency) {
  std::vector<double> out;
  for (size_t w = 0; w + kWindowRequests <= latency.size();
       w += kWindowRequests) {
    out.push_back(Percentile(
        std::vector<double>(latency.begin() + static_cast<long>(w),
                            latency.begin() + static_cast<long>(w + kWindowRequests)),
        0.99));
  }
  return out;
}

/// Latency, lateness and validity of one phase; `ok[i]` says whether
/// record i was served and verified.
PhaseReport SummarizePhase(const std::string& kind, double rate,
                           const std::vector<RequestRecord>& recs,
                           const std::vector<bool>& ok) {
  PhaseReport p;
  p.kind = kind;
  p.rate_rps = rate;
  p.attempted = static_cast<int64_t>(recs.size());
  if (recs.empty()) return p;
  const std::vector<double> latency = LatenciesMs(recs);
  std::vector<double> gen_lag;
  std::vector<double> lateness;  // send - due, in due order
  int64_t first_due = recs.front().due_ns;
  int64_t last_recv = 0;
  for (size_t i = 0; i < recs.size(); ++i) {
    const RequestRecord& r = recs[i];
    if (ok[i]) ++p.served;
    gen_lag.push_back(Millis(r.send_ns - std::max(r.due_ns, r.grab_ns)));
    lateness.push_back(Millis(r.send_ns - r.due_ns));
    first_due = std::min(first_due, r.due_ns);
    last_recv = std::max(last_recv, r.recv_ns);
  }
  p.p50_ms = Median(latency);
  p.pooled_p99_ms = Percentile(latency, 0.99);
  const std::vector<double> window_p99 = WindowP99s(latency);
  p.windows = static_cast<int64_t>(window_p99.size());
  p.p99_ms = window_p99.empty() ? p.pooled_p99_ms : Median(window_p99);
  p.gen_lag_p99_ms = Percentile(gen_lag, 0.99);
  p.achieved_rps =
      static_cast<double>(p.served) / Seconds(last_recv - first_due);
  // A backlog that grows shows as sends running ever later: compare the
  // last tenth of the phase against the limit.
  const size_t tail = std::max<size_t>(1, lateness.size() / 10);
  p.backlog_grew =
      Median(std::vector<double>(lateness.end() - static_cast<long>(tail),
                                 lateness.end())) > kLatencyLimitMs;
  // The sender set the latency when it woke late while idle by more than a
  // quarter of the observed p99 (and by more than half a millisecond).
  p.valid = !(p.gen_lag_p99_ms > 0.5 && p.gen_lag_p99_ms > 0.25 * p.p99_ms);
  p.meets_limit = p.valid && !p.backlog_grew && p.served == p.attempted &&
                  p.windows > 0 && p.p99_ms <= kLatencyLimitMs;
  return p;
}

struct OnlineCounters {
  uint64_t admitted = 0, fused = 0, shed = 0, deadline = 0;
  uint64_t rpcs = 0, failed_rpcs = 0, degraded = 0, reconnects = 0, bytes = 0;
};

OnlineCounters ReadCounters(const OnlineStack& stack) {
  OnlineCounters c;
  c.admitted = stack.admission->admitted_requests();
  c.fused = stack.admission->fused_batches();
  c.shed = stack.admission->shed_requests();
  c.deadline = stack.admission->deadline_rejections();
  c.rpcs = stack.engine->shard_rpcs();
  c.failed_rpcs = stack.engine->failed_shard_rpcs();
  c.degraded = stack.engine->degraded_responses();
  c.reconnects = stack.engine->reconnects();
  c.bytes = stack.engine->bytes_sent() + stack.engine->bytes_received();
  return c;
}

/// Per-layer metrics of the traced half: admission waits and passes, the
/// shard fan-out, wire volume and scoring.
void AddOnlineLayerMetrics(std::vector<Span>* spans,
                           const std::vector<RequestRecord>& traced,
                           const OnlineCounters& before,
                           const OnlineCounters& after, RunResult* result) {
  for (Index s = 0; s < kOnlineShards; ++s) {
    AttachChildren(spans, "eval.admission.pass", ShardPrefix(s) + ".score_block",
                   true);
    AttachChildren(spans, "eval.admission.pass",
                   ShardPrefix(s) + ".score_candidates", true);
  }
  std::map<int64_t, const Span*> pass_of_request;
  std::vector<double> pass_ms;
  std::vector<double> shard_ms;
  std::vector<double> fanout_self_ms;
  for (const Span& pass : *spans) {
    if (pass.name != "eval.admission.pass") continue;
    for (int64_t id : pass.carried) pass_of_request[id] = &pass;
    pass_ms.push_back(Millis(pass.duration_ns()));
    const std::vector<const Span*> children = ChildrenOf(*spans, pass.id);
    int64_t slowest = 0;
    for (Index s = 0; s < kOnlineShards; ++s) {
      std::vector<std::pair<int64_t, int64_t>> intervals;
      for (const Span* c : children) {
        if (c->name.rfind(ShardPrefix(s) + ".", 0) == 0) {
          intervals.emplace_back(c->start_ns, c->end_ns);
        }
      }
      slowest = std::max(slowest, UnionLengthNs(std::move(intervals),
                                                pass.start_ns, pass.end_ns));
    }
    shard_ms.push_back(Millis(slowest));
    fanout_self_ms.push_back(Millis(pass.duration_ns() - slowest));
  }
  std::vector<double> queue_wait_ms;
  for (const RequestRecord& r : traced) {
    const auto it = pass_of_request.find(r.id);
    if (it == pass_of_request.end()) continue;
    queue_wait_ms.push_back(
        Millis((r.recv_ns - r.send_ns) - it->second->duration_ns()));
  }
  auto& m = result->metrics;
  const auto requests = static_cast<double>(traced.size());
  const auto n = static_cast<int64_t>(traced.size());
  const auto passes = static_cast<int64_t>(pass_ms.size());
  if (queue_wait_ms.empty() || pass_ms.empty()) {
    throw std::runtime_error("the traced phase recorded no fused passes");
  }
  const auto qn = static_cast<int64_t>(queue_wait_ms.size());
  m["eval.admission.queue_wait_p50_ms"] = {Median(queue_wait_ms), "ms", qn};
  m["eval.admission.queue_wait_p99_ms"] = {Percentile(queue_wait_ms, 0.99),
                                           "ms", qn};
  m["eval.admission.pass_ms_p50"] = {Median(pass_ms), "ms", passes};
  m["eval.admission.batch_mean"] = {
      static_cast<double>(after.admitted - before.admitted) /
          static_cast<double>(std::max<uint64_t>(1, after.fused - before.fused)),
      "count", passes};
  m["eval.admission.shed"] = {static_cast<double>(after.shed - before.shed),
                              "count", n};
  m["eval.admission.deadline_rejected"] = {
      static_cast<double>(after.deadline - before.deadline), "count", n};
  m["serve.shard_rpcs"] = {
      static_cast<double>(after.rpcs - before.rpcs) / requests, "count", n};
  m["serve.failed_rpcs"] = {
      static_cast<double>(after.failed_rpcs - before.failed_rpcs), "count", n};
  m["serve.degraded"] = {static_cast<double>(after.degraded - before.degraded),
                         "count", n};
  m["serve.reconnects"] = {
      static_cast<double>(after.reconnects - before.reconnects), "count", n};
  m["serve.wire_bytes_per_req"] = {
      static_cast<double>(after.bytes - before.bytes) / requests, "B", n};
  m["serve.shard_score_ms"] = {Median(shard_ms), "ms", passes};
  m["serve.fanout_self_ms"] = {Median(fanout_self_ms), "ms", passes};
  std::vector<std::string> prefixes;
  for (Index s = 0; s < kOnlineShards; ++s) prefixes.push_back(ShardPrefix(s));
  AddScoreMetrics(SumScoring(*spans, prefixes), requests, result);
}

}  // namespace

RunResult RunServeOnline(const RunOptions& options) {
  RunResult result;
  const StealMonitor host;
  GlobalTracer().set_enabled(options.trace);
  const Dataset dataset = MakeServingDataset(kOnlineShape, options.seed);
  const std::vector<RecRequest> pool =
      MakeOnlineRequestPool(kOnlineShape, options.seed, kOnlinePoolSize);
  const int senders =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  // The phase plan, and every phase's schedule, are fixed before anything
  // is timed. The timed pass interleaves the reference chunks with the
  // ladder steps and the saturation phases; the traced pass runs the
  // reference rate twice, untraced then traced.
  struct Phase {
    std::string kind;
    double rate;
    double seconds;
  };
  std::vector<Phase> plan;
  if (options.trace) {
    plan.push_back({"reference", kReferenceRateRps, options.seconds / 2});
    plan.push_back({"reference", kReferenceRateRps, options.seconds / 2});
  } else {
    // Half the run at the reference rate, each chunk long enough for two
    // full windows (10% spare for the Poisson count).
    const double chunk = std::max(
        options.seconds / 2 / static_cast<double>(std::size(kLadderRps)),
        2.2 * static_cast<double>(kWindowRequests) / kReferenceRateRps);
    for (size_t i = 0; i < std::size(kLadderRps); ++i) {
      plan.push_back({"reference", kReferenceRateRps, chunk});
      plan.push_back({"ladder", kLadderRps[i], LadderPhaseSeconds(kLadderRps[i])});
      plan.push_back({"saturation", kSaturationRps, kSaturationSeconds});
    }
  }
  std::vector<ArrivalSchedule> schedules;
  for (size_t p = 0; p < plan.size(); ++p) {
    schedules.push_back(MakePoissonSchedule(options.seed * 131 + p,
                                            plan[p].rate, plan[p].seconds,
                                            kOnlinePoolSize));
  }
  std::vector<RecRequest> warm_up(pool.begin(),
                                  pool.begin() + 4 * senders);

  std::vector<double> setup_s;
  OnlineStack stack;
  for (int r = 0; r < kOnlineSetupReps; ++r) {
    stack.Reset();
    const int64_t start = NowNs();
    stack = SetUpOnlineStack(options.catalog_path, dataset, warm_up);
    setup_s.push_back(Seconds(NowNs() - start));
  }
  GlobalTracer().set_enabled(false);
  // Set-up spans (load, mint, warm-up passes) are kept apart from the
  // traced phase's.
  std::vector<Span> setup_spans = GlobalTracer().TakeSpans();

  // Untimed open-loop warm-up at the reference rate: the first phase after
  // set-up otherwise pays for first-touch page faults and thread start-up.
  int64_t next_id = 0;
  {
    const ArrivalSchedule warm = MakePoissonSchedule(
        options.seed * 131 + plan.size(), kReferenceRateRps, 0.5,
        kOnlinePoolSize);
    RunOpenLoop(*stack.admission, pool, warm, senders, next_id);
    next_id += static_cast<int64_t>(warm.due_ns.size());
  }

  std::vector<std::vector<RequestRecord>> phases;
  Usage usage_begin;
  Usage usage_end;
  OnlineCounters traced_before;
  OnlineCounters traced_after;
  for (size_t p = 0; p < plan.size(); ++p) {
    const bool traced = options.trace && p == 1;
    if (traced) traced_before = ReadCounters(stack);
    GlobalTracer().set_enabled(traced);
    if (p == 0) usage_begin = ReadUsage();
    phases.push_back(
        RunOpenLoop(*stack.admission, pool, schedules[p], senders, next_id));
    if (p == 0) usage_end = ReadUsage();
    GlobalTracer().set_enabled(false);
    if (traced) traced_after = ReadCounters(stack);
    next_id += static_cast<int64_t>(schedules[p].due_ns.size());
    SleepUntilNs(NowNs() + kPhaseGapNs);
  }

  // Reference answers: the in-process engine's direct path over the same
  // catalog at the same precision, computed after the timed phases.
  ServingEngineOptions reference_options;
  reference_options.precision = ScoringPrecision::kInt8;
  const ServingEngine reference_engine(stack.model.get(), dataset,
                                       reference_options);
  std::vector<RecResponse> reference;
  for (size_t begin = 0; begin < pool.size(); begin += 64) {
    const std::vector<RecRequest> chunk(
        pool.begin() + static_cast<long>(begin),
        pool.begin() + static_cast<long>(std::min(pool.size(), begin + 64)));
    for (RecResponse& r : reference_engine.RecommendBatchDirect(chunk)) {
      reference.push_back(std::move(r));
    }
  }

  int64_t mismatches = 0;
  for (size_t p = 0; p < phases.size(); ++p) {
    std::vector<bool> ok;
    for (const RequestRecord& r : phases[p]) {
      const bool served = r.response.status == RecStatus::kOk;
      const bool same =
          SameResponse(r.response, reference[static_cast<size_t>(r.pool_index)]);
      if (served && !same) ++mismatches;
      ok.push_back(served && same);
      ++result.attempted;
      if (!(served && same)) ++result.failed;
    }
    result.phases.push_back(
        SummarizePhase(plan[p].kind, plan[p].rate, phases[p], ok));
    if (!result.phases.back().valid) {
      result.notes.push_back(plan[p].kind + " phase at " +
                             std::to_string(plan[p].rate) +
                             " rps is invalid: the sender ran late");
    }
  }
  if (mismatches > 0) {
    result.correct = false;
    result.notes.push_back(std::to_string(mismatches) +
                           " served responses differ from the direct answer");
  }

  // The reference rate over all its chunks: p50 and p90 over the requests
  // of the windows the host left calm, p99 as the median calm window.
  std::vector<double> ref_latency;
  std::vector<double> calm_latency;
  Samples ref_window_p99;
  std::vector<double> ref_gen_lag;
  Samples saturation_rps;
  double max_rate = 0.0;
  const size_t ref_phases = options.trace ? 1 : plan.size();
  for (size_t p = 0; p < ref_phases; ++p) {
    const PhaseReport& report = result.phases[p];
    const std::vector<RequestRecord>& recs = phases[p];
    if (plan[p].kind == "ladder" && report.meets_limit) {
      // The rate as offered by this seed's schedule, not the nominal one.
      max_rate = std::max(max_rate, static_cast<double>(recs.size()) /
                                        plan[p].seconds);
    }
    if (plan[p].kind == "saturation" && !recs.empty()) {
      int64_t last_recv = 0;
      for (const RequestRecord& r : recs) last_recv = std::max(last_recv, r.recv_ns);
      saturation_rps.Add(report.achieved_rps,
                         host.Disturbed(recs.front().due_ns, last_recv));
    }
    if (plan[p].kind != "reference") continue;
    const std::vector<double> latency = LatenciesMs(recs);
    ref_latency.insert(ref_latency.end(), latency.begin(), latency.end());
    const std::vector<double> window_p99 = WindowP99s(latency);
    for (size_t w = 0; w < window_p99.size(); ++w) {
      const size_t begin = w * kWindowRequests;
      const size_t end = begin + kWindowRequests;
      int64_t last_recv = 0;
      for (size_t i = begin; i < end; ++i) {
        last_recv = std::max(last_recv, recs[i].recv_ns);
      }
      const bool disturbed = host.Disturbed(recs[begin].due_ns, last_recv);
      ref_window_p99.Add(window_p99[w], disturbed);
      if (!disturbed) {
        calm_latency.insert(calm_latency.end(),
                            latency.begin() + static_cast<long>(begin),
                            latency.begin() + static_cast<long>(end));
      }
    }
    ref_gen_lag.push_back(report.gen_lag_p99_ms);
  }
  if (ref_window_p99.size() == 0) {
    throw std::runtime_error("the reference rate got no full 1000-request window");
  }
  // Half the windows calm, or all of them count.
  const int64_t min_calm_windows = (ref_window_p99.size() + 1) / 2;
  if (ref_window_p99.calm() < min_calm_windows) calm_latency = ref_latency;
  int64_t dropped = 0;
  const std::vector<double> window_p99 =
      ref_window_p99.Calm(min_calm_windows, &dropped);
  const auto ref_n = static_cast<int64_t>(calm_latency.size());
  const auto windows = static_cast<int64_t>(window_p99.size());
  const double ref_p50 = Median(calm_latency);

  auto& m = result.metrics;
  if (!options.trace) {
    const std::vector<double> saturation = saturation_rps.Calm(1, &dropped);
    const auto sat_n = static_cast<int64_t>(saturation.size());
    m["setup_s"] = {Median(setup_s), "s", kOnlineSetupReps};
    m["peak_rss_mb"] = {PeakRssMb(), "MB", 1};
    m["served_frac"] = {static_cast<double>(result.attempted - result.failed) /
                            static_cast<double>(result.attempted),
                        "ratio", result.attempted};
    m["throughput_per_s"] = {Median(saturation), "1/s", sat_n};
    m["latency_p50_ms"] = {ref_p50, "ms", ref_n};
    m["latency_tail_ms"] = {Percentile(calm_latency, 0.9), "ms", ref_n};
    auto& d = result.details;
    d["req_p50_ms"] = m["latency_p50_ms"];
    d["req_p90_ms"] = m["latency_tail_ms"];
    d["req_p99_ms"] = {Median(window_p99), "ms", windows};
    d["req_p99_pooled_ms"] = {Percentile(ref_latency, 0.99), "ms",
                              static_cast<int64_t>(ref_latency.size())};
    d["host_disturbed_samples"] = {
        static_cast<double>(dropped), "count",
        ref_window_p99.size() + saturation_rps.size()};
    d["max_rate_rps"] = {max_rate, "1/s",
                         static_cast<int64_t>(std::size(kLadderRps))};
    d["saturation_rps"] = m["throughput_per_s"];
    d["served_frac"] = m["served_frac"];
    d["gen_lag_p99_ms"] = {*std::max_element(ref_gen_lag.begin(), ref_gen_lag.end()),
                           "ms", ref_n};
    return result;
  }

  // GemmBTQuant at the fused-pass shape: one user per sender against one
  // 8192-item block of the quantized catalog.
  GlobalTracer().set_enabled(true);
  {
    const QuantizedMatrix items =
        QuantizedMatrix::FromMatrix(stack.model->ItemEmbeddings());
    const Matrix& users = stack.model->user_embeddings();
    const Index m_rows = senders;
    std::vector<int8_t> codes(static_cast<size_t>(m_rows * items.stride()));
    std::vector<float> scales(static_cast<size_t>(m_rows));
    for (Index r = 0; r < m_rows; ++r) {
      QuantizeRow(users.row(pool[static_cast<size_t>(r)].user), users.cols(),
                  items.stride(), codes.data() + r * items.stride(),
                  &scales[static_cast<size_t>(r)]);
    }
    constexpr Index kBlock = 8192;
    Matrix out(m_rows, kBlock);
    m["tensor.gemm_bt_quant_ms"] = {
        ReplayMs("tensor.gemm_bt_quant", kReplayReps,
                 [&] {
                   GemmBTQuant(codes.data(), m_rows, items.cols(),
                               items.stride(), scales.data(), items, 0, kBlock,
                               MatrixView(&out));
                 }),
        "ms", kReplayReps};
  }
  GlobalTracer().set_enabled(false);
  std::vector<Span> spans = GlobalTracer().TakeSpans();
  AddOnlineLayerMetrics(&spans, phases[1], traced_before, traced_after,
                        &result);
  m["models.mint_ms"] = MedianSpanMs(setup_spans, "models.mint");
  m["models.load_ms"] = MedianSpanMs(setup_spans, "models.load");
  AddUsageMetrics(usage_begin, usage_end, &result);
  m["bench.gen_lag_p99_ms"] = {result.phases[0].gen_lag_p99_ms, "ms", ref_n};
  m["bench.trace_overhead_pct"] = {
      100.0 * (result.phases[1].p50_ms / ref_p50 - 1.0), "%",
      result.phases[1].attempted};
  spans.insert(spans.begin(), setup_spans.begin(), setup_spans.end());
  WriteTrace(options, spans, &result);
  return result;
}

// ---------------------------------------------------------------------------
// Catalog generation (the benchmark's own cost, run in its own process)
// ---------------------------------------------------------------------------

bool GenerateCatalog(const std::string& workload, uint64_t seed,
                     const std::string& path, double* save_ms) {
  const CatalogShape& shape =
      workload == "serve-batch" ? kBatchShape : kOnlineShape;
  Matrix user_emb;
  Matrix item_emb;
  MakeCatalogEmbeddings(shape, seed, &user_emb, &item_emb);
  const StaticRecommender model("perfbench-" + workload, user_emb, item_emb);
  const int64_t start = NowNs();
  const Status status = SaveEmbeddings(model, user_emb, item_emb, path);
  *save_ms = Millis(NowNs() - start);
  if (!status.ok()) {
    std::fprintf(stderr, "SaveEmbeddings: %s\n", status.ToString().c_str());
  }
  return status.ok();
}

}  // namespace perfbench
}  // namespace firzen
