#include "learning/classifier.h"

#include <cmath>

#include "util/string_util.h"

namespace sight {

Result<std::vector<double>> GraphClassifier::PredictWithState(
    const PoolGraph& graph, const LabeledSet& labeled,
    ClassifierState* state, SolveStats* stats) const {
  (void)state;  // Stateless by default: every predict is a cold solve.
  if (stats != nullptr) {
    stats->solver = name();
    stats->iterations = 0;
    stats->warm = false;
    stats->residual = 0.0;
  }
  return Predict(graph, labeled);
}

std::unique_ptr<ClassifierState> GraphClassifier::MakeState() const {
  return nullptr;
}

namespace internal {

Status ValidateLabeledSet(size_t n, const LabeledSet& labeled) {
  if (labeled.indices.size() != labeled.values.size()) {
    return Status::InvalidArgument(
        "labeled indices/values size mismatch");
  }
  if (labeled.size() == 0) {
    return Status::InvalidArgument("labeled set is empty");
  }
  std::vector<char> seen(n, 0);
  for (size_t idx : labeled.indices) {
    if (idx >= n) {
      return Status::OutOfRange(
          StrFormat("labeled index %zu out of range (pool size %zu)", idx,
                    n));
    }
    if (seen[idx] != 0) {
      return Status::InvalidArgument(
          StrFormat("labeled index %zu appears twice", idx));
    }
    seen[idx] = 1;
  }
  return Status::OK();
}

}  // namespace internal

int RoundToLabel(double score, int label_min, int label_max) {
  int rounded = static_cast<int>(std::lround(score));
  if (rounded < label_min) return label_min;
  if (rounded > label_max) return label_max;
  return rounded;
}

}  // namespace sight
