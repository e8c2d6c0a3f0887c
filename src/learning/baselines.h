// Baseline classifiers for the ablation bench: weighted-kNN over the
// similarity graph and a constant majority-label predictor.

#ifndef SIGHT_LEARNING_BASELINES_H_
#define SIGHT_LEARNING_BASELINES_H_

#include <string>
#include <vector>

#include "learning/classifier.h"
#include "util/status.h"

namespace sight {

/// Predicts the similarity-weighted mean of the k most similar labeled
/// instances. Nodes with no similarity to any labeled instance fall back
/// to the label mean.
class KnnClassifier : public GraphClassifier {
 public:
  [[nodiscard]] static Result<KnnClassifier> Create(size_t k);

  [[nodiscard]]
  Result<std::vector<double>> Predict(const PoolGraph& graph,
                                      const LabeledSet& labeled) const override;

  std::string name() const override { return "knn"; }

 private:
  explicit KnnClassifier(size_t k) : k_(k) {}
  size_t k_;
};

/// Predicts the most frequent labeled value for every unlabeled instance
/// (ties resolved toward the smaller label, i.e. toward lower risk —
/// matching the paper's note that under-prediction is the dangerous
/// direction makes this a deliberately weak baseline).
class MajorityClassifier : public GraphClassifier {
 public:
  MajorityClassifier() = default;

  [[nodiscard]]
  Result<std::vector<double>> Predict(const PoolGraph& graph,
                                      const LabeledSet& labeled) const override;

  std::string name() const override { return "majority"; }
};

}  // namespace sight

#endif  // SIGHT_LEARNING_BASELINES_H_
