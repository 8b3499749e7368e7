// Test-only scoring helpers: a Scorer over an arbitrary per-cell score
// function, and full-catalog score rows from any model's scorer.
#ifndef FIRZEN_TESTS_TEST_SCORERS_H_
#define FIRZEN_TESTS_TEST_SCORERS_H_

#include <functional>
#include <utility>
#include <vector>

#include "src/models/recommender.h"
#include "src/models/scorer.h"

namespace firzen {

/// Scorer whose score for (user, item) is `fn(user, item)`: lets a test pin
/// exact scores (ties, NaN holes, hand-checked rankings) without training a
/// model. Blocks and candidate lists evaluate the same function, so the
/// Scorer block-invariance contract holds by construction.
class FunctionScorer : public Scorer {
 public:
  using Fn = std::function<Real(Index user, Index item)>;

  FunctionScorer(Fn fn, Index num_items)
      : fn_(std::move(fn)), num_items_(num_items) {}

  using Scorer::ScoreBlock;
  using Scorer::ScoreCandidates;

  Index num_items() const override { return num_items_; }

  void ScoreBlock(const std::vector<Index>& users, ItemBlock block,
                  MatrixView out, ScoringArena* arena) const override {
    (void)arena;
    for (size_t r = 0; r < users.size(); ++r) {
      for (Index j = 0; j < block.size(); ++j) {
        out(static_cast<Index>(r), j) = fn_(users[r], block.begin + j);
      }
    }
  }

  void ScoreCandidates(const std::vector<Index>& users,
                       const std::vector<Index>& candidates, MatrixView out,
                       ScoringArena* arena) const override {
    (void)arena;
    for (size_t r = 0; r < users.size(); ++r) {
      for (size_t j = 0; j < candidates.size(); ++j) {
        out(static_cast<Index>(r), static_cast<Index>(j)) =
            fn_(users[r], candidates[j]);
      }
    }
  }

 private:
  Fn fn_;
  Index num_items_;
};

/// users.size() x num_items score rows of `model`'s fp32 scorer: one
/// catalog-wide ScoreBlock.
inline Matrix ScoreFullCatalog(const Recommender& model,
                               const std::vector<Index>& users) {
  const auto scorer = model.MakeScorer();
  Matrix scores(static_cast<Index>(users.size()), scorer->num_items());
  scorer->ScoreBlock(users, {0, scorer->num_items()}, MatrixView(&scores));
  return scores;
}

}  // namespace firzen

#endif  // FIRZEN_TESTS_TEST_SCORERS_H_
