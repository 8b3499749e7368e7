// Seeded inputs for the serving workloads: the serving catalog's side data,
// the serve-batch request batches, the serve-online request pool and its
// Poisson arrival schedules. Everything is drawn from the seed before any
// timing starts, so one seed always yields the same inputs.
#ifndef PERFBENCH_SCHEDULE_H_
#define PERFBENCH_SCHEDULE_H_

#include <cstdint>
#include <vector>

#include "src/data/dataset.h"
#include "src/eval/serving.h"
#include "src/tensor/matrix.h"

namespace firzen {
namespace perfbench {

/// Shape of one synthetic serving catalog.
struct CatalogShape {
  Index num_users = 0;
  Index num_items = 0;
  Index dim = 64;
  Index train_per_user = 20;   // seen items per user (kTrainSeen exclusions)
  double cold_fraction = 0.2;  // share of items on the strict cold shelf
};

/// User and item embedding tables, N(0, 1) entries drawn from `seed`.
void MakeCatalogEmbeddings(const CatalogShape& shape, uint64_t seed,
                           Matrix* user_emb, Matrix* item_emb);

/// The interaction side data the engines read: train-seen items per user and
/// the strict cold-start bitmap.
Dataset MakeServingDataset(const CatalogShape& shape, uint64_t seed);

/// `num_batches` batches of `batch_size` full-catalog requests (k = 20,
/// kTrainSeen) over distinct users.
std::vector<std::vector<RecRequest>> MakeBatchRequests(
    const CatalogShape& shape, uint64_t seed, Index num_batches,
    Index batch_size);

/// serve-online's request mix, as shares of the pool.
inline constexpr double kFullCatalogShare = 0.7;
inline constexpr double kColdOnlyShare = 0.2;  // remainder: candidate pools
inline constexpr Index kCandidatePoolSize = 256;
inline constexpr Index kCustomExclusions = 8;

/// `pool_size` distinct serve-online requests: users from a Zipf(1) law over
/// a seeded permutation of the users (so hot users repeat), k drawn from
/// {10, 20, 50}, and the kinds mixed as above. Candidate-pool requests
/// exclude kCustomExclusions of their own candidates (kCustom).
std::vector<RecRequest> MakeOnlineRequestPool(const CatalogShape& shape,
                                              uint64_t seed, Index pool_size);

/// One open-loop phase: send offsets (ns from the phase start) of a Poisson
/// process at `rate_rps` over `seconds`, and the pool index of each request.
struct ArrivalSchedule {
  std::vector<int64_t> due_ns;
  std::vector<Index> pool_index;
};

ArrivalSchedule MakePoissonSchedule(uint64_t seed, double rate_rps,
                                    double seconds, Index pool_size);

}  // namespace perfbench
}  // namespace firzen

#endif  // PERFBENCH_SCHEDULE_H_
