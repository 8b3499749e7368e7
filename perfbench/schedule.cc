#include "schedule.h"

#include <algorithm>
#include <cmath>

#include "src/util/rng.h"

namespace firzen {
namespace perfbench {
namespace {

// Independent streams per input kind, so changing how one input is drawn
// never shifts another.
enum Stream : uint64_t {
  kEmbeddingStream = 1,
  kDatasetStream = 2,
  kBatchStream = 3,
  kPoolStream = 4,
  kScheduleStream = 5,
};

Rng StreamRng(uint64_t seed, Stream stream) {
  return Rng(seed * 0x9E3779B97F4A7C15ULL + stream);
}

}  // namespace

void MakeCatalogEmbeddings(const CatalogShape& shape, uint64_t seed,
                           Matrix* user_emb, Matrix* item_emb) {
  Rng rng = StreamRng(seed, kEmbeddingStream);
  *user_emb = Matrix(shape.num_users, shape.dim);
  user_emb->FillNormal(&rng, 1.0);
  *item_emb = Matrix(shape.num_items, shape.dim);
  item_emb->FillNormal(&rng, 1.0);
}

Dataset MakeServingDataset(const CatalogShape& shape, uint64_t seed) {
  Rng rng = StreamRng(seed, kDatasetStream);
  Dataset dataset;
  dataset.name = "perfbench-serving";
  dataset.num_users = shape.num_users;
  dataset.num_items = shape.num_items;
  dataset.is_cold_item.assign(static_cast<size_t>(shape.num_items), false);
  const auto num_cold =
      static_cast<Index>(shape.cold_fraction * static_cast<double>(shape.num_items));
  for (Index item : rng.SampleWithoutReplacement(shape.num_items, num_cold)) {
    dataset.is_cold_item[static_cast<size_t>(item)] = true;
  }
  dataset.train.reserve(
      static_cast<size_t>(shape.num_users * shape.train_per_user));
  for (Index u = 0; u < shape.num_users; ++u) {
    for (Index t = 0; t < shape.train_per_user; ++t) {
      Index item = rng.UniformInt(shape.num_items);
      while (dataset.is_cold_item[static_cast<size_t>(item)]) {
        item = rng.UniformInt(shape.num_items);
      }
      dataset.train.push_back({u, item});
    }
  }
  return dataset;
}

std::vector<std::vector<RecRequest>> MakeBatchRequests(
    const CatalogShape& shape, uint64_t seed, Index num_batches,
    Index batch_size) {
  Rng rng = StreamRng(seed, kBatchStream);
  std::vector<std::vector<RecRequest>> batches;
  for (Index b = 0; b < num_batches; ++b) {
    std::vector<RecRequest> batch;
    for (Index user : rng.SampleWithoutReplacement(shape.num_users, batch_size)) {
      RecRequest request;
      request.user = user;
      request.k = 20;
      request.exclusion = ExclusionPolicy::kTrainSeen;
      batch.push_back(request);
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

std::vector<RecRequest> MakeOnlineRequestPool(const CatalogShape& shape,
                                              uint64_t seed, Index pool_size) {
  Rng rng = StreamRng(seed, kPoolStream);
  std::vector<Index> by_popularity(static_cast<size_t>(shape.num_users));
  for (Index u = 0; u < shape.num_users; ++u) {
    by_popularity[static_cast<size_t>(u)] = u;
  }
  rng.Shuffle(&by_popularity);
  // Zipf(1) over popularity ranks, sampled by inverting the CDF.
  std::vector<double> cdf(by_popularity.size());
  double total = 0.0;
  for (size_t r = 0; r < cdf.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  const Index kChoices[] = {10, 20, 50};
  std::vector<RecRequest> pool;
  pool.reserve(static_cast<size_t>(pool_size));
  for (Index i = 0; i < pool_size; ++i) {
    RecRequest request;
    const double x = rng.Uniform() * total;
    const auto rank = static_cast<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), x) - cdf.begin());
    request.user = by_popularity[std::min(rank, cdf.size() - 1)];
    request.k = kChoices[rng.UniformInt(3)];
    const double kind = rng.Uniform();
    if (kind < kFullCatalogShare) {
      request.exclusion = ExclusionPolicy::kTrainSeen;
    } else if (kind < kFullCatalogShare + kColdOnlyShare) {
      request.exclusion = ExclusionPolicy::kTrainSeen;
      request.cold_only = true;
    } else {
      request.candidates =
          rng.SampleWithoutReplacement(shape.num_items, kCandidatePoolSize);
      request.exclusion = ExclusionPolicy::kCustom;
      for (Index e = 0; e < kCustomExclusions; ++e) {
        request.exclude.push_back(
            request.candidates[static_cast<size_t>(rng.UniformInt(kCandidatePoolSize))]);
      }
    }
    pool.push_back(std::move(request));
  }
  return pool;
}

ArrivalSchedule MakePoissonSchedule(uint64_t seed, double rate_rps,
                                    double seconds, Index pool_size) {
  // The rate enters the stream key so phases at different rates draw
  // different sequences.
  Rng rng = StreamRng(seed ^ (static_cast<uint64_t>(rate_rps) << 32),
                      kScheduleStream);
  ArrivalSchedule schedule;
  const double mean_gap_ns = 1e9 / rate_rps;
  const double end_ns = seconds * 1e9;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.Uniform()) * mean_gap_ns;
    if (t >= end_ns) break;
    schedule.due_ns.push_back(static_cast<int64_t>(t));
    schedule.pool_index.push_back(rng.UniformInt(pool_size));
  }
  return schedule;
}

}  // namespace perfbench
}  // namespace firzen
