// Table VII: training time and per-user inference time on Beauty-S as the
// side-information branches are enabled one by one:
// BA -> +KA -> +KA+VA -> +KA+VA+TA.
#include "bench/bench_common.h"

#include "src/core/firzen_model.h"
#include "src/util/stopwatch.h"

int main() {
  using namespace firzen;        // NOLINT(build/namespaces)
  using namespace firzen::bench;  // NOLINT(build/namespaces)
  SetLogLevel(LogLevel::kError);
  PrintHeader("Table VII: training / inference time vs enabled components",
              "paper Table VII");

  const Dataset dataset = LoadProfile("Beauty-S");
  TrainOptions train = BenchTrainOptions();
  train.patience = 1000;  // fixed epoch budget for comparable timings

  struct Config {
    const char* label;
    FirzenOptions options;
  };
  std::vector<Config> configs;
  {
    FirzenOptions o;
    o.use_knowledge = false;
    o.use_modality = false;
    configs.push_back({"BA", o});
  }
  {
    FirzenOptions o;
    o.use_modality = false;
    configs.push_back({"BA+KA", o});
  }
  {
    FirzenOptions o;
    o.use_text = false;
    configs.push_back({"BA+KA+VA", o});
  }
  configs.push_back({"BA+KA+VA+TA", FirzenOptions()});

  TablePrinter table({"Components", "Training time (s)",
                      "Cold inference (ms/user)", "Warm inference (ms/user)"});
  for (const Config& config : configs) {
    FirzenModel model(config.options);
    Stopwatch fit_watch;
    model.Fit(dataset, train);
    const double fit_seconds = fit_watch.ElapsedSeconds();

    // Warm inference: batch scoring of 256 users over all items.
    std::vector<Index> users;
    for (Index u = 0; u < std::min<Index>(256, dataset.num_users); ++u) {
      users.push_back(u);
    }
    // Full users x catalog scores through a freshly minted scorer.
    Matrix scores;
    const auto score_all = [&] {
      const auto scorer = model.MakeScorer();
      scores.ResizeUninitialized(static_cast<Index>(users.size()),
                                 scorer->num_items());
      scorer->ScoreBlock(users, {0, scorer->num_items()}, MatrixView(&scores));
    };
    Stopwatch warm_watch;
    score_all();
    const double warm_ms = warm_watch.ElapsedMillis() / users.size();

    // Cold inference: includes the one-off graph expansion amortized over
    // the same user batch (the paper reports per-user latency).
    Stopwatch cold_watch;
    model.PrepareColdInference(dataset);
    score_all();
    const double cold_ms = cold_watch.ElapsedMillis() / users.size();

    std::fprintf(stderr, "  [%s] done (%.1fs train)\n", config.label,
                 fit_seconds);
    table.BeginRow();
    table.AddCell(config.label);
    table.AddCell(fit_seconds, 2);
    table.AddCell(cold_ms, 3);
    table.AddCell(warm_ms, 3);
  }
  table.Print();
  return 0;
}
