// Serving and serialization tests: embedding save/load round trips, the
// StaticRecommender scoring contract, and ServingEngine request/response
// semantics (exclusion policies, candidate pools, cold shelf, fused-stream
// parity with the materialized legacy path).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/data/synthetic.h"
#include "src/eval/serving.h"
#include "src/eval/topk.h"
#include "src/models/bpr_mf.h"
#include "src/models/registry.h"
#include "src/models/serialize.h"
#include "src/util/logging.h"
#include "tests/test_scorers.h"

namespace firzen {
namespace {

Matrix RandomEmb(Index rows, Index cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  m.FillNormal(&rng, 1.0);
  return m;
}

TEST(SerializeTest, RoundTripPreservesEmbeddingsAndName) {
  const Matrix user = RandomEmb(7, 5, 1);
  const Matrix item = RandomEmb(9, 5, 2);
  StaticRecommender original("TestModel", user, item);
  const std::string path = ::testing::TempDir() + "/model.fzem";
  ASSERT_TRUE(SaveEmbeddings(original, user, item, path).ok());

  auto loaded = LoadEmbeddings(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->Name(), "TestModel");
  const Matrix& lu = loaded.value()->user_embeddings();
  const Matrix li = loaded.value()->ItemEmbeddings();
  ASSERT_EQ(lu.rows(), 7);
  ASSERT_EQ(li.rows(), 9);
  for (Index i = 0; i < user.size(); ++i) {
    EXPECT_DOUBLE_EQ(lu.data()[i], user.data()[i]);
  }
  for (Index i = 0; i < item.size(); ++i) {
    EXPECT_DOUBLE_EQ(li.data()[i], item.data()[i]);
  }
}

TEST(SerializeTest, LoadedModelScoresIdenticallyToSource) {
  SetLogLevel(LogLevel::kError);
  const Dataset dataset = GenerateSyntheticDataset(BeautySConfig(0.12));
  BprMf model;
  TrainOptions options;
  options.embedding_dim = 8;
  options.epochs = 3;
  options.eval_every = 3;
  model.Fit(dataset, options);

  const std::string path = ::testing::TempDir() + "/bpr.fzem";
  ASSERT_TRUE(SaveEmbeddings(model, model.UserEmbeddings(),
                             model.ItemEmbeddings(), path)
                  .ok());
  auto loaded = LoadEmbeddings(path);
  ASSERT_TRUE(loaded.ok());

  const std::vector<Index> users{0, 3, 5};
  const Matrix original_scores = ScoreFullCatalog(model, users);
  const Matrix loaded_scores = ScoreFullCatalog(*loaded.value(), users);
  ASSERT_EQ(original_scores.size(), loaded_scores.size());
  for (Index i = 0; i < original_scores.size(); ++i) {
    EXPECT_DOUBLE_EQ(original_scores.data()[i], loaded_scores.data()[i]);
  }
}

TEST(SerializeTest, RejectsGarbageAndTruncatedFiles) {
  const std::string path = ::testing::TempDir() + "/garbage.fzem";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("not a firzen file at all", f);
    std::fclose(f);
  }
  auto loaded = LoadEmbeddings(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);

  auto missing = LoadEmbeddings("/no/such/file.fzem");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);
}

// Writes `bytes` to a fresh file under the test temp dir; returns its path.
std::string WriteBytes(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  return path;
}

template <typename T>
void Append(std::string* bytes, T value) {
  bytes->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

// Regression: a header claiming a 2^32 x 2^20 matrix in a 24-byte file used
// to be allocated before any byte was read (std::bad_alloc). Every claimed
// size is now checked against the bytes left in the file first.
TEST(SerializeTest, LyingMatrixHeaderIsAStatusNotAnAllocation) {
  std::string bytes = "FZEM";
  Append<uint32_t>(&bytes, 1);
  Append<int64_t>(&bytes, int64_t{1} << 32);
  Append<int64_t>(&bytes, int64_t{1} << 20);
  ASSERT_EQ(bytes.size(), 24u);
  auto loaded = LoadEmbeddings(WriteBytes("huge_header.fzem", bytes));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// Same for the trailing model-name length: a valid file whose name_len
// claims 4 GiB must fail as truncated, not allocate the string.
TEST(SerializeTest, LyingNameLengthIsAStatusNotAnAllocation) {
  const Matrix user = RandomEmb(2, 3, 8);
  const Matrix item = RandomEmb(4, 3, 9);
  const std::string path = ::testing::TempDir() + "/name_len.fzem";
  ASSERT_TRUE(
      SaveEmbeddings(StaticRecommender("X", user, item), user, item, path)
          .ok());
  std::string bytes;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    char buf[4096];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
    std::fclose(f);
  }
  // The file ends with u32 name_len + "X": claim 0xFFFFFFFF bytes instead.
  ASSERT_GE(bytes.size(), 5u);
  bytes.resize(bytes.size() - 5);
  Append<uint32_t>(&bytes, 0xFFFFFFFFu);
  bytes += "X";
  auto loaded = LoadEmbeddings(WriteBytes("name_len_lie.fzem", bytes));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, SaveRejectsEmptyOrMismatchedEmbeddings) {
  StaticRecommender model("X", RandomEmb(2, 3, 3), RandomEmb(2, 3, 4));
  const std::string path = ::testing::TempDir() + "/bad.fzem";
  EXPECT_FALSE(SaveEmbeddings(model, Matrix(), RandomEmb(2, 3, 5), path).ok());
  EXPECT_FALSE(
      SaveEmbeddings(model, RandomEmb(2, 3, 6), RandomEmb(2, 4, 7), path)
          .ok());
}

// Top-k items for one user through the engine, best first — the shape of
// the retired ServingIndex::TopK entry point, which these regression tests
// predate. Train-seen exclusion (the engine default) applies.
std::vector<Recommendation> TopK(const ServingEngine& engine, Index user,
                                 Index k, std::vector<Index> candidates = {}) {
  RecRequest request;
  request.user = user;
  request.k = k;
  request.candidates = std::move(candidates);
  return engine.Recommend(request).items;
}

class ServingFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_.num_users = 3;
    dataset_.num_items = 6;
    dataset_.is_cold_item.assign(6, false);
    dataset_.train = {{0, 0}, {0, 1}, {1, 2}};
    // Deterministic scores: user u prefers item (u + i) % 6 descending.
    Matrix user(3, 6);
    Matrix item(6, 6);
    for (Index i = 0; i < 6; ++i) item(i, i) = 1.0;
    for (Index u = 0; u < 3; ++u) {
      for (Index i = 0; i < 6; ++i) {
        user(u, i) = -static_cast<Real>((u + i) % 6);
      }
    }
    model_ = std::make_unique<StaticRecommender>("fixture", user, item);
  }

  Dataset dataset_;
  std::unique_ptr<StaticRecommender> model_;
};

TEST_F(ServingFixture, ExcludesTrainItems) {
  ServingEngine engine(model_.get(), dataset_);
  const auto recs = TopK(engine, 0, 6);
  // User 0 interacted with items 0 and 1 -> never recommended.
  for (const Recommendation& rec : recs) {
    EXPECT_NE(rec.item, 0);
    EXPECT_NE(rec.item, 1);
  }
  EXPECT_EQ(recs.size(), 4u);
}

TEST_F(ServingFixture, ReturnsBestFirst) {
  ServingEngine engine(model_.get(), dataset_);
  const auto recs = TopK(engine, 2, 3);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_GE(recs[0].score, recs[1].score);
  EXPECT_GE(recs[1].score, recs[2].score);
  // User 2 scores: item i -> -((2+i)%6): best is item 4 (score 0).
  EXPECT_EQ(recs[0].item, 4);
}

TEST_F(ServingFixture, CandidateRestrictionHonored) {
  ServingEngine engine(model_.get(), dataset_);
  const auto recs = TopK(engine, 1, 10, {3, 5});
  ASSERT_EQ(recs.size(), 2u);
  for (const Recommendation& rec : recs) {
    EXPECT_TRUE(rec.item == 3 || rec.item == 5);
  }
}

TEST_F(ServingFixture, BatchMatchesSingle) {
  ServingEngine engine(model_.get(), dataset_);
  std::vector<RecRequest> requests(3);
  for (Index u = 0; u < 3; ++u) {
    requests[static_cast<size_t>(u)].user = u;
    requests[static_cast<size_t>(u)].k = 3;
  }
  const auto batch = engine.RecommendBatch(requests);
  ASSERT_EQ(batch.size(), 3u);
  for (Index u = 0; u < 3; ++u) {
    const auto single = TopK(engine, u, 3);
    ASSERT_EQ(batch[static_cast<size_t>(u)].items.size(), single.size());
    for (size_t k = 0; k < single.size(); ++k) {
      EXPECT_EQ(batch[static_cast<size_t>(u)].items[k].item, single[k].item);
    }
  }
}

// --- Regression: degenerate pools must yield short/empty lists, never a
// read past the retained heap entries. ---

TEST_F(ServingFixture, KLargerThanCandidatePoolReturnsShortList) {
  ServingEngine engine(model_.get(), dataset_);
  const auto recs = TopK(engine, 2, 100, {3, 5});
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_GE(recs[0].score, recs[1].score);
}

TEST_F(ServingFixture, UserWhoSawEveryCandidateGetsEmptyList) {
  // User 0 trained on items 0 and 1; restrict the pool to exactly those.
  ServingEngine engine(model_.get(), dataset_);
  EXPECT_TRUE(TopK(engine, 0, 3, {0, 1}).empty());
}

TEST_F(ServingFixture, KLargerThanUnseenCatalogReturnsAllUnseen) {
  ServingEngine engine(model_.get(), dataset_);
  const auto recs = TopK(engine, 0, 1000);
  EXPECT_EQ(recs.size(), 4u);  // 6 items minus the 2 train-seen
}

// Regression: the heaps used to reserve k + 1 slots up front, so one
// request with k = 2^40 threw std::bad_alloc. A k beyond the catalog now
// behaves like any k beyond the pool: a short, complete response.
TEST_F(ServingFixture, HugeKIsServedAsTheWholeEligibleCatalog) {
  for (Index shards : {Index{1}, Index{3}}) {
    ServingEngineOptions options;
    options.num_shards = shards;
    ServingEngine engine(model_.get(), dataset_, options);
    const auto want = TopK(engine, 0, 6);
    for (const std::vector<Index>& pool :
         {std::vector<Index>{}, std::vector<Index>{5, 2, 3}}) {
      const auto got = TopK(engine, 0, Index{1} << 40, pool);
      const auto bounded = TopK(engine, 0, 6, pool);
      ASSERT_EQ(got.size(), bounded.size()) << "shards=" << shards;
      for (size_t j = 0; j < got.size(); ++j) {
        EXPECT_EQ(got[j].item, bounded[j].item);
        EXPECT_EQ(got[j].score, bounded[j].score);
      }
    }
    EXPECT_EQ(TopK(engine, 0, Index{1} << 40).size(), want.size());
  }
}

// --- ServingEngine request/response semantics. ---

TEST_F(ServingFixture, EngineExcludesTrainSeenByDefault) {
  ServingEngine engine(model_.get(), dataset_);
  RecRequest request;
  request.user = 0;
  request.k = 6;
  const RecResponse response = engine.Recommend(request);
  EXPECT_EQ(response.user, 0);
  EXPECT_EQ(response.items.size(), 4u);
  for (const Recommendation& rec : response.items) {
    EXPECT_NE(rec.item, 0);
    EXPECT_NE(rec.item, 1);
  }
}

TEST_F(ServingFixture, EngineCustomAndNoneExclusionPolicies) {
  ServingEngine engine(model_.get(), dataset_);
  RecRequest none;
  none.user = 0;
  none.k = 6;
  none.exclusion = ExclusionPolicy::kNone;
  EXPECT_EQ(engine.Recommend(none).items.size(), 6u);

  RecRequest custom;
  custom.user = 0;
  custom.k = 6;
  custom.exclusion = ExclusionPolicy::kCustom;
  custom.exclude = {5, 2, 5};  // unsorted with a duplicate
  const RecResponse response = engine.Recommend(custom);
  EXPECT_EQ(response.items.size(), 4u);
  for (const Recommendation& rec : response.items) {
    EXPECT_NE(rec.item, 2);
    EXPECT_NE(rec.item, 5);
  }
}

TEST_F(ServingFixture, EngineColdShelfFlag) {
  Dataset dataset = dataset_;
  dataset.is_cold_item = {false, false, false, true, false, true};
  ServingEngine engine(model_.get(), dataset);
  RecRequest request;
  request.user = 1;
  request.k = 10;
  request.cold_only = true;
  request.exclusion = ExclusionPolicy::kNone;
  const RecResponse response = engine.Recommend(request);
  ASSERT_EQ(response.items.size(), 2u);
  for (const Recommendation& rec : response.items) {
    EXPECT_TRUE(rec.item == 3 || rec.item == 5);
  }
  // cold_only composes with an explicit candidate pool.
  request.candidates = {0, 1, 3};
  const RecResponse shelf = engine.Recommend(request);
  ASSERT_EQ(shelf.items.size(), 1u);
  EXPECT_EQ(shelf.items[0].item, 3);
}

TEST_F(ServingFixture, EngineBatchMixesStreamedAndCandidateRequests) {
  ServingEngine engine(model_.get(), dataset_);
  std::vector<RecRequest> requests(3);
  requests[0].user = 0;
  requests[0].k = 3;
  requests[1].user = 1;
  requests[1].k = 2;
  requests[1].candidates = {3, 4, 5};
  requests[2].user = 2;
  requests[2].k = 3;
  const auto responses = engine.RecommendBatch(requests);
  ASSERT_EQ(responses.size(), 3u);
  for (size_t i = 0; i < requests.size(); ++i) {
    const RecResponse single = engine.Recommend(requests[i]);
    ASSERT_EQ(responses[i].items.size(), single.items.size()) << i;
    for (size_t j = 0; j < single.items.size(); ++j) {
      EXPECT_EQ(responses[i].items[j].item, single.items[j].item) << i;
      EXPECT_DOUBLE_EQ(responses[i].items[j].score, single.items[j].score)
          << i;
    }
  }
}

// --- Regression: duplicate candidate entries must not yield duplicate
// recommendations (the pool is deduplicated once per request). ---

TEST_F(ServingFixture, DuplicateCandidateEntriesAreDeduplicated) {
  ServingEngine engine(model_.get(), dataset_);
  RecRequest clean;
  clean.user = 2;
  clean.k = 10;
  clean.exclusion = ExclusionPolicy::kNone;
  clean.candidates = {3, 5};
  const RecResponse expected = engine.Recommend(clean);
  ASSERT_EQ(expected.items.size(), 2u);

  RecRequest noisy = clean;
  noisy.candidates = {5, 3, 5, 5, 3};
  const RecResponse response = engine.Recommend(noisy);
  ASSERT_EQ(response.items.size(), 2u);
  for (size_t j = 0; j < expected.items.size(); ++j) {
    EXPECT_EQ(response.items[j].item, expected.items[j].item);
    EXPECT_EQ(response.items[j].score, expected.items[j].score);
  }
}

// --- Regression: NaN scores must never corrupt the heap ordering or appear
// in responses. ---

TEST(TopKHeapTest, NaNPushesAreDroppedDeterministically) {
  const Real nan = std::nan("");
  TopKHeap heap(3, 5);
  heap.Push(0, nan);
  heap.Push(1, 1.0);
  heap.Push(2, nan);
  heap.Push(3, 2.0);
  heap.Push(4, nan);
  const auto& sorted = heap.Sorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].item, 3);
  EXPECT_EQ(sorted[1].item, 1);
}

TEST(ServingEngineTest, NaNScoresNeverRecommended) {
  // Items 1 and 4 score NaN for every user; the rest score -item.
  auto scorer = std::make_unique<FunctionScorer>(
      [](Index user, Index item) {
        (void)user;
        return (item == 1 || item == 4) ? std::nan("")
                                        : -static_cast<Real>(item);
      },
      /*num_items=*/6);
  Dataset dataset;
  dataset.num_users = 2;
  dataset.num_items = 6;
  dataset.is_cold_item.assign(6, false);
  ServingEngine engine(std::move(scorer), dataset);
  RecRequest request;
  request.user = 0;
  request.k = 10;
  request.exclusion = ExclusionPolicy::kNone;
  const RecResponse response = engine.Recommend(request);
  ASSERT_EQ(response.items.size(), 4u);  // 6 items minus the 2 NaN-scored
  for (size_t j = 0; j < response.items.size(); ++j) {
    EXPECT_TRUE(std::isfinite(response.items[j].score));
    EXPECT_NE(response.items[j].item, 1);
    EXPECT_NE(response.items[j].item, 4);
  }
  // Deterministic ranking of the finite scores: 0 > -2 > -3 > -5.
  EXPECT_EQ(response.items[0].item, 0);
  EXPECT_EQ(response.items[1].item, 2);
  EXPECT_EQ(response.items[2].item, 3);
  EXPECT_EQ(response.items[3].item, 5);

  // The same pool through an explicit candidate list, duplicates included.
  request.candidates = {4, 1, 0, 2, 4, 3, 5, 1};
  const RecResponse pooled = engine.Recommend(request);
  ASSERT_EQ(pooled.items.size(), 4u);
  for (size_t j = 0; j < pooled.items.size(); ++j) {
    EXPECT_EQ(pooled.items[j].item, response.items[j].item);
    EXPECT_EQ(pooled.items[j].score, response.items[j].score);
  }
}

// --- Unequal explicit pools batch through one union stream; responses must
// match the same requests served alone. ---

TEST_F(ServingFixture, UnequalCandidatePoolsBatchBitExact) {
  ServingEngine engine(model_.get(), dataset_);
  std::vector<RecRequest> requests(4);
  requests[0].user = 0;
  requests[0].k = 4;
  requests[0].candidates = {2, 3, 4};
  requests[1].user = 1;
  requests[1].k = 2;
  requests[1].candidates = {5, 0, 5, 1};  // overlapping, with a duplicate
  requests[1].exclusion = ExclusionPolicy::kNone;
  requests[2].user = 2;
  requests[2].k = 3;  // full catalog mixed into the same batch
  requests[3].user = 2;
  requests[3].k = 6;
  requests[3].candidates = {1, 2};
  requests[3].exclusion = ExclusionPolicy::kCustom;
  requests[3].exclude = {2};
  const auto batched = engine.RecommendBatch(requests);
  ASSERT_EQ(batched.size(), 4u);
  for (size_t i = 0; i < requests.size(); ++i) {
    const RecResponse single = engine.Recommend(requests[i]);
    ASSERT_EQ(batched[i].items.size(), single.items.size()) << i;
    for (size_t j = 0; j < single.items.size(); ++j) {
      EXPECT_EQ(batched[i].items[j].item, single.items[j].item) << i;
      EXPECT_EQ(batched[i].items[j].score, single.items[j].score) << i;
    }
  }
}

// --- Sibling engines share exclusion/cold state instead of deep-copying
// it. ---

TEST_F(ServingFixture, SiblingEnginesShareState) {
  ServingEngine engine(model_.get(), dataset_);
  ASSERT_NE(engine.shared_state(), nullptr);
  ServingEngine sibling(model_->MakeScorer(), engine.shared_state());
  EXPECT_EQ(sibling.shared_state().get(), engine.shared_state().get());
  RecRequest request;
  request.user = 0;
  request.k = 6;
  const RecResponse a = engine.Recommend(request);
  const RecResponse b = sibling.Recommend(request);
  ASSERT_EQ(a.items.size(), b.items.size());
  for (size_t j = 0; j < a.items.size(); ++j) {
    EXPECT_EQ(a.items[j].item, b.items[j].item);
    EXPECT_EQ(a.items[j].score, b.items[j].score);
  }
}

// Fused block streaming must reproduce the legacy materialize-then-rank
// results bit-for-bit, for any block size.
TEST(ServingEngineParityTest, FusedMatchesMaterializedForTrainedModel) {
  SetLogLevel(LogLevel::kError);
  const Dataset dataset = GenerateSyntheticDataset(BeautySConfig(0.12));
  BprMf model;
  TrainOptions options;
  options.embedding_dim = 8;
  options.epochs = 3;
  options.eval_every = 3;
  model.Fit(dataset, options);

  const std::vector<Index> users{0, 2, 5, 9};
  const Index k = 20;
  // Legacy reference: full score matrix, then per-user bounded heap.
  const Matrix scores = ScoreFullCatalog(model, users);
  const auto seen = dataset.TrainItemsByUser();
  std::vector<std::vector<ScoredItem>> reference;
  for (size_t r = 0; r < users.size(); ++r) {
    TopKHeap heap(k, dataset.num_items);
    const auto& exclude = seen[static_cast<size_t>(users[r])];
    for (Index item = 0; item < dataset.num_items; ++item) {
      if (std::binary_search(exclude.begin(), exclude.end(), item)) continue;
      heap.Push(item, scores(static_cast<Index>(r), item));
    }
    reference.push_back(heap.Sorted());
  }

  for (Index block : {Index{1}, Index{7}, Index{64}, dataset.num_items}) {
    ServingEngineOptions engine_options;
    engine_options.item_block = block;
    ServingEngine engine(&model, dataset, engine_options);
    std::vector<RecRequest> requests;
    for (Index user : users) {
      RecRequest request;
      request.user = user;
      request.k = k;
      requests.push_back(std::move(request));
    }
    const auto responses = engine.RecommendBatch(requests);
    for (size_t r = 0; r < users.size(); ++r) {
      ASSERT_EQ(responses[r].items.size(), reference[r].size())
          << "block=" << block;
      for (size_t j = 0; j < reference[r].size(); ++j) {
        EXPECT_EQ(responses[r].items[j].item, reference[r][j].item)
            << "block=" << block;
        EXPECT_EQ(responses[r].items[j].score, reference[r][j].score)
            << "block=" << block;
      }
    }
  }
}

TEST(ServingIntegrationTest, ColdShelfRecommendationsWork) {
  SetLogLevel(LogLevel::kError);
  const Dataset dataset = GenerateSyntheticDataset(BeautySConfig(0.15));
  auto model = CreateModel("Firzen");
  TrainOptions options;
  options.embedding_dim = 16;
  options.epochs = 4;
  options.eval_every = 4;
  model->Fit(dataset, options);
  model->PrepareColdInference(dataset);

  ServingEngine engine(model.get(), dataset);
  const auto recs = TopK(engine, 0, 5, dataset.ColdItems());
  ASSERT_EQ(recs.size(), 5u);
  for (const Recommendation& rec : recs) {
    EXPECT_TRUE(dataset.is_cold_item[static_cast<size_t>(rec.item)]);
    EXPECT_TRUE(std::isfinite(rec.score));
  }
}

}  // namespace
}  // namespace firzen
