#include "src/models/recommender.h"

namespace firzen {

Recommender::~Recommender() = default;

void Recommender::PrepareColdInference(const Dataset& dataset) {
  (void)dataset;
}

void Recommender::PrepareNormalColdInference(const Dataset& dataset) {
  PrepareColdInference(dataset);
}

Matrix Recommender::ItemEmbeddings() const { return Matrix(); }

Matrix Recommender::UserEmbeddings() const { return Matrix(); }

bool EarlyStopper::Update(Real metric) {
  if (metric > best_) {
    best_ = metric;
    strikes_ = 0;
    improved_ = true;
    return false;
  }
  improved_ = false;
  return ++strikes_ > patience_;
}

}  // namespace firzen
